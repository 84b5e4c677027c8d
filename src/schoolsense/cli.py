"""Command-line pipeline: synth, ingest, quality, comfort, perf.

Commands hand off through files only: `synth` materializes a scenario,
`ingest` loads measurement CSVs into the store, one series per sensor,
`quality` audits availability and writes repaired series, `comfort` and
`perf` consume the repaired store and emit report CSVs. Every command is
deterministic given its config and data: no wall-clock dependence, stable
ordering, full-precision decimals. `ingest` and `quality` write every
catalog sensor, an empty series included, so each store holds exactly what
its stage computed and no earlier run shows through. `quality` checks every
stored series before it writes anything, so a damaged store or an empty
period fails with nothing written; it then loads, audits, repairs and saves
one sensor at a time, keeping only report rows and per-site and per-category
totals between sensors.

The JSON config file is the only source of settings, and it names paths
only: `catalog`, `store` and `out` are required, `weather` and
`measurements` (a list) are optional, and relative paths resolve against
the config file's directory. Every building runs through the same analysis,
so window sizes and thresholds are constants of the analysis modules.
Besides the period (`--from` before `--to`), the one choice per run is
`comfort --acceptability`, which every comfort row records.

Report dates are calendar days of one of two kinds. Local days, by the site's
clock: `comfort_daily.csv`, `comfort_plot.csv`, `perf_swings.csv`, and the
`poor_insulation` and `unshaded_solar_gain` rows of `perf_anomalies.csv` (and
`.txt`). UTC days: `quality_report.csv`, and the `occupant_event` rows of
`perf_anomalies.csv`. The period follows the same split: `comfort` and `perf`
read `--from`/`--to` as local days, `quality --to` as a UTC day.
`site_quality.csv` gives each site's start as a UTC timestamp; the other
reports hold no dates. A site's clock is `Site.local`, from UTC to local time,
and its inverse `Site.utc`; no other code converts between the two.

Each command imports only the modules it runs. A command is a fresh process,
and without cached bytecode it compiles every module it imports, so a module
that a command never calls still costs it start-up time. `synthgen` loads in
`synth` alone, `quality` in `quality`, `comfort` in `comfort`, and
`performance` in `perf`; `orderstat`, the order-statistic kernel, loads with
`quality` and with `performance`. The parser lists the acceptability classes
from `model`, which defines them for `comfort`. The exceptions that `main`
maps live in `model`, `ingest` and here, so mapping them loads nothing more.
Start-up is also why no class on an analysis command's path is a dataclass:
each one takes about 1 ms to build in every process, so results are
`NamedTuple`s, values that check their fields are plain ``__slots__``
classes, and only `synth` loads `dataclasses`. Teardown is cut too: `entry`,
which the console script and ``python -m schoolsense.cli`` run, freezes the
garbage collector once `main` returns, so the interpreter's finalizing
collections skip the heap the imports built (numpy's above all), and the OS
reclaims it. That saves about 20 ms a command. `main` freezes nothing, so a
caller that runs it in-process keeps its own collector as it was.

Every text file a command reads or writes is UTF-8 whatever the locale.
The CSV inputs, measurement files and ``weather.csv``, are read in pieces of
whole lines, each parsed below the file's header as it is read, so a command
never holds a whole input file (`_read_csv`), and `ingest` spills each piece
to its store's root rather than hold it (`cmd_ingest`). When a piece fails,
the whole file is read again and parsed once, so an error names its line in
the file exactly as a single read would.

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
import gc
import json
import shutil
import sys
from datetime import date
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .ingest import (
    RECORD,
    IngestError,
    SeriesStore,
    StoreIntegrityError,
    WeatherHistory,
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
    day_to_date,
    format_iso8601,
    is_weekend,
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


class RunConfig(NamedTuple):
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

    keys = RunConfig._fields
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


# A CSV file is read in pieces of about this many characters, each ending just
# after a line break. A piece's arrays take several times its size, and each
# piece costs about 0.3 ms of numpy calls. On 2.4 MB measurement files, 64 KiB
# pieces took 1.5 times as long to parse as these, and 1 MiB pieces raised
# parsing's peak 2.8 times.
_BLOCK = 1 << 18


def _read_csv(parse, path: Path, *args) -> Iterator:
    """`parse`'s result for each line-aligned piece of a CSV file, in file order,
    each yielded as soon as it is parsed.

    Each piece is about `_BLOCK` characters of whole lines, and `parse` gets
    it below the file's header line, so no more than a piece of the file is
    held at a time. `cmd_ingest` keeps no piece: it appends each to spill
    files in `SPILL_DIR` under the store root, so it writes every sample
    twice, and removes that directory when it ends. A file without a line
    below its header is one piece. If a piece fails, the whole file is parsed
    once (`_parse_file`) for its error alone, so that the error names its line
    in the file and outranks the file's other errors as it would in one read;
    no piece is yielded twice. A non-UTF-8 file fails that way too.
    """
    try:
        with open(path, encoding="utf-8") as lines:
            header = lines.readline()
            piece = lines.read(_BLOCK)
            while True:
                if not piece.endswith("\n"):
                    piece += lines.readline()
                yield parse(header + piece, *args)
                if not (piece := lines.read(_BLOCK)):
                    return
    except (IngestError, UnicodeDecodeError) as exc:
        _parse_file(parse, path, *args)  # raises the error of one read of the file
        raise IngestError(f"{path}: {exc}") from None


def _read_weather(path: Path) -> dict[str, WeatherHistory]:
    """The weather file's histories, each site's pieces joined in file order.

    A site's stamps must increase across pieces too; where they do not, the
    whole file is parsed once and raises the error that its one read gives.
    """
    pieces = list(_read_csv(load_weather, path))
    histories = {}
    for site_id in sorted({site_id for piece in pieces for site_id in piece}):
        parts = [piece[site_id] for piece in pieces if site_id in piece]
        times = np.concatenate([h.times for h in parts])
        if np.any(times[1:] <= times[:-1]):
            return _parse_file(load_weather, path)
        histories[site_id] = WeatherHistory(
            times, *(np.concatenate([getattr(h, name) for h in parts])
                     for name in ("outdoor_temp", "wind_speed", "cloud_cover")))
    return histories


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


# The directory under the store root that holds `ingest`'s spill files while it
# runs. A site id holds no comma (`ingest._store_id`), so no site's directory
# can take its name.
SPILL_DIR = "ingest,spill"


def cmd_ingest(config: RunConfig) -> None:
    """Read every measurement file into the store, one series per catalog sensor.

    A later file may resend a stamp, so a sensor is saved only once every file
    is read. Until then, each piece's samples are appended, as `RECORD` bytes,
    to one spill file per sensor in `SPILL_DIR` under the store root, opened
    and closed for each append. After the last file, each sensor in catalog order
    is read from its spill, merged by `last_wins` (appends follow file order,
    then piece order, so the later sample of a stamp wins), saved, and its
    spill deleted. Ingest thus holds one piece, then one sensor, at a time, at
    the price of writing every sample twice, at 16 B each time. The spill
    directory, and any directory the ingest made and left empty, is removed
    when it ends, on an error too, so a failing ingest leaves the store as it
    found it.
    """
    catalog = _parse_file(parse_catalog, config.catalog)
    paths = list(config.measurements)
    if not paths:
        raise ConfigError("no measurement files configured")

    store = SeriesStore(config.store)
    spill = store.root / SPILL_DIR
    made = [d for d in (store.root, *store.root.parents) if not d.exists()]
    shutil.rmtree(spill, ignore_errors=True)  # left by an ingest that was killed
    spill.mkdir(parents=True)
    rejects: dict[str, int] = {}
    stored = 0
    try:
        for path in paths:
            for parsed in _read_csv(parse_measurements, path, catalog):
                for sensor_id, series in parsed.series.items():
                    records = np.empty(len(series), RECORD)
                    records["t"], records["v"] = series.times, series.values
                    with open(spill / sensor_id, "ab") as out:
                        out.write(records)
                for sensor_id, count in parsed.rejected.items():
                    rejects[sensor_id] = rejects.get(sensor_id, 0) + count
        for meta in catalog.sensors:
            path = spill / meta.sensor_id
            records = np.fromfile(path, RECORD) if path.exists() else np.empty(0, RECORD)
            merged = last_wins(meta.sensor_id, records["t"], records["v"])
            store.save(meta.site_id, merged)
            path.unlink(missing_ok=True)
            stored += len(merged)
    finally:
        shutil.rmtree(spill, ignore_errors=True)
        for directory in made:  # innermost first
            if any(directory.iterdir()):
                break
            directory.rmdir()
    _write_csv(
        config.out / "rejects.csv", "sensor_id,lines",
        [f"{sid},{rejects[sid]}" for sid in sorted(rejects)])
    print(f"ingested {stored} samples from {len(paths)} files "
          f"into {config.store}; {sum(rejects.values())} rejected lines")


def cmd_quality(config: RunConfig, end: date | None = None) -> None:
    from . import quality as quality_mod
    catalog = _parse_file(parse_catalog, config.catalog)
    store = SeriesStore(config.store)
    if not store.sites():
        raise ConfigError(f"no data in store {config.store}")
    # the first pass reads every stored series in catalog order, keeping only
    # its last stamp, so that no store or period error fires after a write
    loaded = (store.load(m.site_id, m.sensor_id).series for m in catalog.sensors)
    last = max((int(s.times[-1]) for s in loaded if len(s)), default=None)
    if last is None:
        raise ConfigError("no data in store (all sensors empty)")
    end_epoch = (last // DAY_SECONDS + 1) * DAY_SECONDS if end is None else to_epoch(end)
    if all(catalog.site(m.site_id).start_time >= end_epoch for m in catalog.sensors):
        raise ConfigError(f"the period ends {day_to_date(end_epoch // DAY_SECONDS)}, "
                          "on or before the start of every site")

    # each site's and each category's [sensors, positions, expected, observed,
    # samples, flags], with each day's observed count capped at its expected
    # count; apart, since a site may be named like a category
    site_totals = {site.site_id: [0, set(), 0, 0, 0, 0] for site in catalog.sites}
    kind_totals = {category: [0, set(), 0, 0, 0, 0] for category in CATEGORIES}
    repaired_store = SeriesStore(config.repaired)
    rows = []
    for meta in sorted(catalog.sensors, key=lambda m: m.sensor_id):
        site = catalog.site(meta.site_id)
        # the repaired store and every report cover [site start, end) only; a
        # site that starts after the end keeps no sample and has no day
        raw = slice_series(store.load(meta.site_id, meta.sensor_id).series,
                           min(site.start_time, end_epoch), end_epoch)
        days, expected, observed = quality_mod.availability_matrix(
            raw, meta.sensing_rate, site.start_time, end_epoch)
        # of the repair, the reports read only the flags and the filled times
        outcome = quality_mod.repair_series(raw, meta, site)
        repaired_store.save(meta.site_id, outcome.series)
        counts = [int(expected.sum()), int(np.minimum(observed, expected).sum()),
                  len(raw), len(outcome.flags)]
        fraction = np.divide(observed, expected, out=np.ones(len(days)), where=expected > 0)
        outage = 100.0 * (1.0 - np.minimum(1.0, fraction))
        index, kinds = outcome.flags["index"], outcome.flags["kind"]
        flagged = [raw.times[index[kinds == kind]]
                   for kind in quality_mod.FlagKind]  # zero, spike, bound: the column order
        columns = [expected, observed, outage,
                   *(quality_mod.day_counts(at, days) for at in [*flagged, outcome.filled])]
        for day, *values in zip(days.tolist(), *(c.tolist() for c in columns)):
            rows.append(f"{meta.site_id},{meta.sensor_id},{day_to_date(day).isoformat()},"
                        + ",".join(map(repr, values)))
        for totals in (site_totals[meta.site_id], kind_totals[meta.kind.category]):
            totals[0] += 1
            totals[1].add((meta.site_id, meta.room_id))
            totals[2:] = [total + count for total, count in zip(totals[2:], counts)]
    _write_csv(
        config.out / "quality_report.csv",
        "site_id,sensor_id,date,expected,observed,outage_pct,"
        "zero_flags,spike_flags,bound_flags,fills",
        rows)

    def group_stats(totals: dict[str, list]) -> list[tuple[str, int, int, float, float]]:
        """(group, positions, sensors, outage %, outlier %) for each group that
        expects a sample in the period, in the order of `totals`."""
        return [(group, len(positions), sensors,
                 quality_mod.outage_percentage(np.array([expected]), np.array([observed])),
                 100.0 * flags / samples if samples else 0.0)
                for group, (sensors, positions, expected, observed, samples, flags)
                in totals.items() if expected]

    site_stats = group_stats(site_totals)
    _write_csv(
        config.out / "site_quality.csv",
        "site_id,pos,sensors,start_time,outage_pct,outlier_pct",
        [f"{site_id},{pos},{n},{format_iso8601(catalog.site(site_id).start_time)},"
         f"{outage!r},{outlier!r}" for site_id, pos, n, outage, outlier in site_stats])
    _write_csv(
        config.out / "kind_quality.csv",
        "category,pos,sensors,outage_pct,outlier_pct",
        [f"{category},{pos},{n},{outage!r},{outlier!r}"
         for category, pos, n, outage, outlier in group_stats(kind_totals)])

    print(f"quality report for {len(catalog.sensors)} sensors written to {config.out}")
    for site_id, _, _, outage, _ in sorted(site_stats):
        print(f"  site {site_id}: outage {outage:.2f}%")


def _repaired_store(config: RunConfig) -> SeriesStore:
    store = SeriesStore(config.repaired)
    if not store.sites():
        raise ConfigError(f"no repaired series in {config.repaired}; run quality first")
    return store


def _indoor_room_sensors(catalog: DeploymentCatalog, site_id: str) -> dict[str, str]:
    """room_id -> indoor temperature sensor_id for one site, which must be the room's one."""
    out = {}
    for meta in catalog.sensors_for_site(site_id):
        if meta.kind is SensorKind.INDOOR_TEMPERATURE and meta.room_id is not None:
            if meta.room_id in out:
                raise ConfigError(
                    f"site {site_id!r}, room {meta.room_id!r}: two indoor temperature sensors, "
                    f"{out[meta.room_id]!r} and {meta.sensor_id!r}")
            out[meta.room_id] = meta.sensor_id
    return out


def cmd_comfort(config: RunConfig, start: date, end: date, acceptability: int) -> None:
    from . import comfort as comfort_mod
    catalog = _parse_file(parse_catalog, config.catalog)
    if config.weather is None:
        raise ConfigError("no weather file configured")
    weather = _read_weather(config.weather)
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
        weather = _read_weather(config.weather)
    store = _repaired_store(config)

    swing_rows = []
    corr_rows = []
    findings: list[tuple[str, str, str, tuple[int, ...], tuple[float, ...]]] = []
    notes = []
    for site in catalog.sites:
        lo = -(2 ** 63) if start is None else site.utc(to_epoch(start))
        hi = 2 ** 63 - 1 if end is None else site.utc(to_epoch(end))
        site_weather = weather.get(site.site_id)
        for room_id, sensor_id in sorted(_indoor_room_sensors(catalog, site.site_id).items()):
            series = slice_series(store.load(site.site_id, sensor_id).series, lo, hi)
            if not len(series):
                continue
            report = perf_mod.weekend_daily_swings(series, site)
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
                    corr = perf_mod.solar_gain_correlation(series, site_weather, orientation, site)
                except perf_mod.CorrelationUndefined as exc:
                    notes.append(f"correlation skipped: {room_id}: {exc}")
                else:
                    corr_rows.append(
                        f"{site.site_id},{room_id},{orientation.value},{corr.r!r},{corr.hours}")
                    if corr.unshaded:
                        findings.append((site.site_id, "unshaded_solar_gain", room_id,
                                         (corr.last_day,), (corr.r,)))

            events = perf_mod.detect_occupant_events(
                series.take(~is_weekend(site.local(series.times))))
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


def entry() -> None:
    """Run `main` on the command line and exit with its code, the collector frozen."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
