"""Command-line pipeline: synth, ingest, quality, comfort, perf.

Commands hand off through files only: `synth` materializes a scenario,
`ingest` loads measurement CSVs into the store, one series per sensor,
`quality` audits availability and writes repaired series, `comfort` and
`perf` consume the repaired store and emit report CSVs. Every command is
deterministic given its config and data: no wall-clock dependence, stable
ordering, full-precision decimals. `ingest` and `quality` write every
catalog sensor, an empty series included, so each store holds exactly what
its stage computed and no earlier run shows through.

The JSON config file is the only source of settings, and it names paths
only: `catalog`, `store` and `out` are required, `weather` and
`measurements` (a list) are optional, and relative paths resolve against
the config file's directory. Every building runs through the same analysis,
so window sizes and thresholds are constants of the analysis modules.
Besides the period (`--from` before `--to`), the one choice per run is
`comfort --acceptability`, which every comfort row records.

Report dates are calendar days of one of two kinds. Local days, by the site's
fixed UTC offset: `comfort_daily.csv`, `comfort_plot.csv`, `perf_swings.csv`,
and the `poor_insulation` and `unshaded_solar_gain` rows of
`perf_anomalies.csv` (and `.txt`). UTC days: `quality_report.csv`, and the
`occupant_event` rows of `perf_anomalies.csv`. The period follows the same
split: `comfort` and `perf` read `--from`/`--to` as local days, `quality --to`
as a UTC day. `site_quality.csv` gives each site's start as a UTC timestamp;
the other reports hold no dates.

Each command imports only the modules it runs. A command is a fresh process,
and without cached bytecode it compiles every module it imports, so a module
that a command never calls still costs it start-up time. `synthgen` loads in
`synth` alone, `quality` in `quality`, `comfort` in `comfort`, and
`performance` in `perf`; `orderstat`, the order-statistic kernel, loads with
`quality` and with `performance`. The parser lists the acceptability classes
from `model`, which defines them for `comfort`. The exceptions that `main`
maps live in `model`, `ingest` and here, so mapping them loads nothing more.

Every text file a command reads or writes is UTF-8 whatever the locale.

Errors are mapped to exit codes in `main` only, and each failure prints one
``error:`` line to stderr:

  0  success
  1  environment or I/O failure: a file cannot be read or written
     (OSError) or named in the locale's encoding (UnicodeEncodeError),
     or the store on disk is inconsistent (StoreIntegrityError)
  2  usage, config or input error: bad arguments, ConfigError (including a
     stage run before its inputs exist, or a period with no days in it),
     ScenarioError, a malformed input file (IngestError), ModelError or
     QualityError
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .ingest import (
    IngestError,
    SeriesStore,
    StoreIntegrityError,
    last_wins,
    load_weather,
    parse_catalog,
    parse_measurements,
)
from .model import (
    BAND_HALF_WIDTH,
    CATEGORIES,
    DAY_SECONDS,
    DEFAULT_ACCEPTABILITY,
    DeploymentCatalog,
    ModelError,
    QualityError,
    ScenarioError,
    SensorKind,
    SensorMeta,
    TimeSeries,
    day_to_date,
    filter_weekdays,
    format_iso8601,
    slice_series,
    to_epoch,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2

# each perf finding kind and the metric its report value is, in report order
ANOMALY_METRICS = {
    "poor_insulation": "swing_c",
    "unshaded_solar_gain": "pearson_r",
    "occupant_event": "drop_c",
}


class ConfigError(ValueError):
    """Bad config, or a command that cannot run with what is configured."""


@dataclass(frozen=True)
class RunConfig:
    """Where the analysis commands read and write."""

    catalog: Path
    store: Path
    out: Path
    weather: Path | None = None
    measurements: tuple[Path, ...] = ()

    @property
    def repaired(self) -> Path:
        return self.out / "repaired"


def load_config(path: Path | str) -> RunConfig:
    """Read a JSON config file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config syntax error at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")

    keys = [f.name for f in dataclasses.fields(RunConfig)]
    unknown = set(data) - set(keys)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}; a config names "
                          f"only the paths {', '.join(keys)}")
    missing = {"catalog", "store", "out"} - set(data)
    if missing:
        raise ConfigError(f"config missing required keys: {sorted(missing)}")

    def resolve(name: str, value) -> Path:
        if not isinstance(value, str):
            raise ConfigError(f"{name} must be a path, got {value!r}")
        p = Path(value)
        return p if p.is_absolute() else path.parent / p

    kwargs = {}
    for name, value in data.items():
        if name == "measurements":
            if not isinstance(value, list):
                raise ConfigError(f"measurements must be a list of paths, got {value!r}")
            kwargs[name] = tuple(resolve(name, v) for v in value)
        elif name != "weather" or value is not None:  # weather may be null
            kwargs[name] = resolve(name, value)
    return RunConfig(**kwargs)


def _write_csv(path: Path, header: str, rows: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


def _parse_file(parse, path: Path, *args):
    """Read one input file and parse it; a format error names the file."""
    try:
        return parse(path.read_text(encoding="utf-8"), *args)
    except (IngestError, UnicodeDecodeError) as exc:
        raise IngestError(f"{path}: {exc}") from None


def generate(spec, out_dir: Path):
    """`synthgen.generate`, imported when called: only `synth` needs the generator."""
    from . import synthgen
    return synthgen.generate(spec, out_dir)


def cmd_synth(spec_path: Path, out_dir: Path) -> None:
    from .synthgen import ScenarioSpec
    try:
        spec = ScenarioSpec.from_json(Path(spec_path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"cannot read spec {spec_path}: {exc}") from None
    scenario = generate(spec, out_dir)
    truth = scenario.ground_truth
    n_rooms = sum(len(s.rooms) for s in scenario.catalog.sites)
    print(f"scenario written to {out_dir}")
    print(f"sites: {len(scenario.catalog.sites)}  rooms: {n_rooms}  "
          f"sensors: {len(scenario.catalog.sensors)}  days: {spec.days}")
    for site in spec.sites:
        ids = [m.sensor_id for m in scenario.catalog.sensors_for_site(site.site_id)]
        print(f"  {site.site_id}: outage {truth.outage_fraction(ids):.4f} "
              f"(target {site.outage_fraction}), zero rate {site.zero_error_rate}, "
              f"spike rate {site.spike_rate}")


def cmd_ingest(config: RunConfig) -> None:
    catalog = _parse_file(parse_catalog, config.catalog)
    paths = list(config.measurements)
    if not paths:
        raise ConfigError("no measurement files configured")

    parts = {m.sensor_id: [TimeSeries.empty(m.sensor_id)] for m in catalog.sensors}
    rejects: dict[str, int] = {}
    for path in paths:
        parsed = _parse_file(parse_measurements, path, catalog)
        for sensor_id, series in parsed.series.items():
            parts[sensor_id].append(series)
        for sensor_id, count in parsed.rejected.items():
            rejects[sensor_id] = rejects.get(sensor_id, 0) + count

    store = SeriesStore(config.store)
    stored = 0
    for meta in catalog.sensors:
        # files are read in order, so a later file's sample wins a repeated timestamp
        merged = last_wins(meta.sensor_id,
                           np.concatenate([s.times for s in parts[meta.sensor_id]]),
                           np.concatenate([s.values for s in parts[meta.sensor_id]]))
        store.save(meta.site_id, merged)
        stored += len(merged)
    _write_csv(
        config.out / "rejects.csv", "sensor_id,lines",
        [f"{sid},{rejects[sid]}" for sid in sorted(rejects)])
    print(f"ingested {stored} samples from {len(paths)} files "
          f"into {config.store}; {sum(rejects.values())} rejected lines")


def _load_all_series(
    store: SeriesStore, catalog: DeploymentCatalog
) -> dict[str, TimeSeries]:
    """Every catalog sensor's raw series; absent sensors load empty."""
    return {
        meta.sensor_id: store.load(meta.site_id, meta.sensor_id).series
        for meta in catalog.sensors
    }


def cmd_quality(config: RunConfig, end: date | None = None) -> None:
    from . import quality as quality_mod
    catalog = _parse_file(parse_catalog, config.catalog)
    store = SeriesStore(config.store)
    if not store.sites():
        raise ConfigError(f"no data in store {config.store}")
    raw = _load_all_series(store, catalog)
    last_times = [int(s.times[-1]) for s in raw.values() if len(s)]
    if not last_times:
        raise ConfigError("no data in store (all sensors empty)")
    if end is None:
        end_epoch = ((max(last_times) // DAY_SECONDS) + 1) * DAY_SECONDS
    else:
        end_epoch = to_epoch(end)
    # the repaired store and every report cover [site start, end) only; a site
    # that starts after the end keeps no sample
    raw = {m.sensor_id: slice_series(raw[m.sensor_id],
                                     min(catalog.site(m.site_id).start_time, end_epoch),
                                     end_epoch)
           for m in catalog.sensors}

    matrix = quality_mod.availability_matrix(raw, catalog, end_epoch)
    if not matrix:
        raise ConfigError(f"the period ends {day_to_date(end_epoch // DAY_SECONDS)}, "
                          "on or before the start of every site")
    repaired_store = SeriesStore(config.repaired)
    # of each repair, the reports read only the flags and the filled times; the
    # repaired series is saved and let go
    flags: dict[str, np.ndarray] = {}
    filled: dict[str, np.ndarray] = {}
    for meta in catalog.sensors:
        site = catalog.site(meta.site_id)
        outcome = quality_mod.repair_series(raw[meta.sensor_id], meta, site)
        repaired_store.save(meta.site_id, outcome.series)
        flags[meta.sensor_id], filled[meta.sensor_id] = outcome.flags, outcome.filled

    rows = []
    for sensor_id, (days, expected, observed) in matrix.items():
        fraction = np.divide(observed, expected, out=np.ones(len(days)), where=expected > 0)
        outage = 100.0 * (1.0 - np.minimum(1.0, fraction))
        index, kinds = flags[sensor_id]["index"], flags[sensor_id]["kind"]
        flagged = [raw[sensor_id].times[index[kinds == kind]]
                   for kind in quality_mod.FlagKind]  # zero, spike, bound: the column order
        columns = [expected, observed, outage,
                   *(quality_mod.day_counts(at, days) for at in [*flagged, filled[sensor_id]])]
        site_id = catalog.sensor(sensor_id).site_id
        for day, *values in zip(days.tolist(), *(c.tolist() for c in columns)):
            rows.append(f"{site_id},{sensor_id},{day_to_date(day).isoformat()},"
                        + ",".join(map(repr, values)))
    _write_csv(
        config.out / "quality_report.csv",
        "site_id,sensor_id,date,expected,observed,outage_pct,"
        "zero_flags,spike_flags,bound_flags,fills",
        rows)

    site_stats = _group_quality([site.site_id for site in catalog.sites],
                                lambda m: m.site_id, catalog, matrix, raw, flags)
    _write_csv(
        config.out / "site_quality.csv",
        "site_id,pos,sensors,start_time,outage_pct,outlier_pct",
        [f"{site_id},{pos},{n},{format_iso8601(catalog.site(site_id).start_time)},"
         f"{outage!r},{outlier!r}" for site_id, pos, n, outage, outlier in site_stats])
    kind_stats = _group_quality(CATEGORIES, lambda m: m.kind.category,
                                catalog, matrix, raw, flags)
    _write_csv(
        config.out / "kind_quality.csv",
        "category,pos,sensors,outage_pct,outlier_pct",
        [f"{category},{pos},{n},{outage!r},{outlier!r}"
         for category, pos, n, outage, outlier in kind_stats])

    print(f"quality report for {len(catalog.sensors)} sensors written to {config.out}")
    for site_id, _, _, outage, _ in sorted(site_stats):
        print(f"  site {site_id}: outage {outage:.2f}%")


def _group_quality(
    order: Iterable[str],
    group_of: Callable[[SensorMeta], str],
    catalog: DeploymentCatalog,
    matrix: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]],
    raw: dict[str, TimeSeries],
    flags: dict[str, np.ndarray],
) -> list[tuple[str, int, int, float, float]]:
    """(group, positions, sensors, outage %, outlier %) for each group in
    `order` that expects a sample in the period; a group whose sensors all
    start after the period, expect no grid point in it, or that has no
    sensor, gets no row."""
    from .quality import outage_percentage
    stats = []
    for group in order:
        metas = [m for m in catalog.sensors if group_of(m) == group]
        counted = [matrix[m.sensor_id] for m in metas if m.sensor_id in matrix]
        if not any(expected.any() for _, expected, _ in counted):
            continue
        _, expected, observed = (np.concatenate(c) for c in zip(*counted))
        outage = outage_percentage(expected, observed)
        pos = len({(m.site_id, m.room_id) for m in metas})
        samples = sum(len(raw[m.sensor_id]) for m in metas)
        flagged = sum(len(flags[m.sensor_id]) for m in metas)
        outlier_pct = 100.0 * flagged / samples if samples else 0.0
        stats.append((group, pos, len(metas), outage, outlier_pct))
    return stats


def _repaired_store(config: RunConfig) -> SeriesStore:
    store = SeriesStore(config.repaired)
    if not store.sites():
        raise ConfigError(f"no repaired series in {config.repaired}; run quality first")
    return store


def _indoor_room_sensors(catalog: DeploymentCatalog, site_id: str) -> dict[str, str]:
    """room_id -> indoor temperature sensor_id for one site."""
    out = {}
    for meta in catalog.sensors_for_site(site_id):
        if meta.kind is SensorKind.INDOOR_TEMPERATURE and meta.room_id is not None:
            out[meta.room_id] = meta.sensor_id
    return out


def cmd_comfort(config: RunConfig, start: date, end: date, acceptability: int) -> None:
    from . import comfort as comfort_mod
    catalog = _parse_file(parse_catalog, config.catalog)
    if config.weather is None:
        raise ConfigError("no weather file configured")
    weather = _parse_file(load_weather, config.weather)
    store = _repaired_store(config)

    daily_rows = []
    summary_rows = []
    plot_rows = []
    for site in catalog.sites:
        site_weather = weather.get(site.site_id)
        room_sensors = _indoor_room_sensors(catalog, site.site_id)
        if site_weather is None or not room_sensors:
            continue
        room_series = {
            room_id: store.load(site.site_id, sensor_id).series
            for room_id, sensor_id in sorted(room_sensors.items())
        }
        try:
            summary = comfort_mod.site_comfort_summary(
                site, room_series, site_weather, start, end, acceptability=acceptability)
        except comfort_mod.ComfortError:
            continue
        day_scores: dict[int, list[float]] = {}
        total_days = 0
        for room_id in sorted(summary.room_scores):
            for score in summary.room_scores[room_id]:
                daily_rows.append(
                    f"{site.site_id},{room_id},{day_to_date(score.day).isoformat()},"
                    f"{score.score!r},{score.hours_evaluated},{acceptability},"
                    f"{score.t_pmo!r}")
                day_scores.setdefault(score.day, []).append(score.score)
                total_days += 1
        summary_rows.append(
            f"{site.site_id},{acceptability},{total_days},{summary.mean!r},"
            f"{summary.minimum!r},{summary.maximum!r},{summary.q1!r},{summary.q3!r}")
        for day in sorted(day_scores):
            mean = float(np.mean(day_scores[day]))
            plot_rows.append(f"{site.site_id},{day_to_date(day).isoformat()},{mean!r}")

    if not summary_rows:
        raise ConfigError("no scorable site in the period (missing weather or data)")
    _write_csv(config.out / "comfort_daily.csv",
               "site_id,room_id,date,score,hours_evaluated,acceptability,t_pmo",
               daily_rows)
    _write_csv(config.out / "comfort_sites.csv",
               "site_id,acceptability,room_days,mean,min,max,q1,q3", summary_rows)
    _write_csv(config.out / "comfort_plot.csv", "site_id,date,score", plot_rows)
    print(f"comfort reports for [{start}, {end}) at {acceptability}% written to {config.out}")


def cmd_perf(config: RunConfig, start: date | None = None, end: date | None = None) -> None:
    from . import performance as perf_mod
    catalog = _parse_file(parse_catalog, config.catalog)
    weather = {}
    if config.weather is not None:
        weather = _parse_file(load_weather, config.weather)
    store = _repaired_store(config)

    swing_rows = []
    corr_rows = []
    findings: list[tuple[str, str, str, tuple[int, ...], tuple[float, ...]]] = []
    notes = []
    for site in catalog.sites:
        tz = site.tz_offset_minutes
        lo = -(2 ** 63) if start is None else to_epoch(start) - tz * 60
        hi = 2 ** 63 - 1 if end is None else to_epoch(end) - tz * 60
        site_weather = weather.get(site.site_id)
        for room_id, sensor_id in sorted(_indoor_room_sensors(catalog, site.site_id).items()):
            series = slice_series(store.load(site.site_id, sensor_id).series, lo, hi)
            if not len(series):
                continue
            report = perf_mod.weekend_daily_swings(series, tz)
            for s in report.swings:
                swing_rows.append(
                    f"{site.site_id},{room_id},{day_to_date(s.day).isoformat()},"
                    f"{s.min_t!r},{s.max_t!r},{s.swing!r},{s.rise_hours!r}")
            hits = perf_mod.poor_insulation_days(report)
            if hits:
                findings.append((site.site_id, "poor_insulation", room_id,
                                 tuple(s.day for s in hits), tuple(s.swing for s in hits)))

            if site_weather is not None:
                orientation = site.room(room_id).orientation
                try:
                    corr = perf_mod.solar_gain_correlation(series, site_weather, orientation, tz)
                except perf_mod.CorrelationUndefined as exc:
                    notes.append(f"correlation skipped: {room_id}: {exc}")
                else:
                    corr_rows.append(
                        f"{site.site_id},{room_id},{orientation.value},{corr.r!r},{corr.hours}")
                    if corr.unshaded:
                        findings.append((site.site_id, "unshaded_solar_gain", room_id,
                                         (corr.last_day,), (corr.r,)))

            events = perf_mod.detect_occupant_events(filter_weekdays(series, tz))
            if events:
                findings.append((site.site_id, "occupant_event", room_id,
                                 tuple(e.time // DAY_SECONDS for e in events),
                                 tuple(e.fall for e in events)))

    anomaly_rows = []
    text_lines = []
    kinds = list(ANOMALY_METRICS)
    findings.sort(key=lambda f: (f[0], kinds.index(f[1]), f[2]))
    for site_id, kind, room_id, days, values in findings:
        dates = ";".join(day_to_date(day).isoformat() for day in days)
        metric = ANOMALY_METRICS[kind]
        value = max(values)
        anomaly_rows.append(f"{site_id},{room_id},{kind},{metric},{value!r},{dates}")
        text_lines.append(
            f"anomaly site={site_id} room={room_id} kind={kind} {metric}={value!r} dates={dates}")
    _write_csv(config.out / "perf_swings.csv",
               "site_id,room_id,date,min_t,max_t,swing,rise_hours", swing_rows)
    _write_csv(config.out / "perf_correlation.csv",
               "site_id,room_id,orientation,r,hours", corr_rows)
    _write_csv(config.out / "perf_anomalies.csv",
               "site_id,room_id,kind,metric,value,dates", anomaly_rows)
    notes_text = "".join(f"# {n}\n" for n in notes)
    (config.out / "perf_anomalies.txt").write_text(
        notes_text + "\n".join(text_lines) + ("\n" if text_lines else ""), encoding="utf-8")
    print(f"performance reports written to {config.out}: "
          f"{len(anomaly_rows)} anomaly records")


def _parse_date(text: str) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schoolsense",
        description="Building-telemetry analytics: data quality, thermal "
                    "comfort and thermal-performance anomaly detection.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="materialize a synthetic scenario")
    p.add_argument("spec", type=Path, help="scenario spec JSON")
    p.add_argument("--out", type=Path, required=True, help="output directory")

    for name, needs_period in (("ingest", False), ("quality", False),
                               ("comfort", True), ("perf", False)):
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, required=True, help="run config JSON")
        if name in ("comfort", "perf"):
            p.add_argument("--from", dest="start", type=_parse_date, default=None,
                           required=needs_period)
        if name in ("quality", "comfort", "perf"):
            p.add_argument("--to", dest="end", type=_parse_date, default=None,
                           required=needs_period)
        if name == "comfort":
            p.add_argument("--acceptability", type=int, choices=sorted(BAND_HALF_WIDTH),
                           default=DEFAULT_ACCEPTABILITY)
    return parser


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def _run(args: argparse.Namespace) -> None:
    if args.command == "synth":
        cmd_synth(args.spec, args.out)
        return
    start, end = getattr(args, "start", None), getattr(args, "end", None)
    if start is not None and end is not None and start >= end:
        raise ConfigError(f"--from {start} must be before --to {end}")
    config = load_config(args.config)
    if args.command == "ingest":
        cmd_ingest(config)
    elif args.command == "quality":
        cmd_quality(config, end=end)
    elif args.command == "comfort":
        cmd_comfort(config, start, end, args.acceptability)
    else:
        cmd_perf(config, start, end)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _run(args)
    except (OSError, StoreIntegrityError) as exc:
        return _fail(exc, EXIT_IO)
    except UnicodeEncodeError as exc:
        return _fail(f"cannot encode {exc.object!r} in the locale's encoding, {exc.encoding}; "
                     f"use a UTF-8 locale", EXIT_IO)
    except (ConfigError, ScenarioError, IngestError, ModelError, QualityError) as exc:
        return _fail(exc, EXIT_USAGE)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
