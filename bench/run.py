"""schoolsense benchmark: fresh-process stage times, accuracy, and a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload, in turn
    python3 bench/run.py --workload NAME --write-lock

With --trace 0 the run creates the workload's inputs with `schoolsense
synth` (SETUP_REPEATS times; setup_s is the median), checks them against
`inputs.lock.json`, then repeats ingest -> quality -> comfort -> perf, each
command a fresh child process, while another pass fits in S seconds, and
reports each stage's mean over the passes.  Reports are checked, must be
byte-identical from pass to pass, and are scored against the ground truth.  With --trace 1 each pass
is followed by the same four commands run under timing wrappers
(`tracing.py`), which give the per-layer metrics.

Each workload pins its scenario seed, so its inputs never depend on --seed;
the seed is recorded with the result.  Inputs that differ from the lock
print "inputs changed" and exit 3 without a result: a timing on other
inputs is not comparable.  The last stdout line is the JSON result; a
record with versions, digests and per-pass numbers goes to
.bench_work/records/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import pipeline as P
import score
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
LOCK = HERE / "inputs.lock.json"
SETUP_REPEATS = 3
ISO_KERNEL_SAMPLES = 100_000
EXIT_INPUTS_CHANGED = 3

E2E_UNITS = {
    "setup_s": "s",
    "ingest_s": "s",
    "quality_s": "s",
    "comfort_s": "s",
    "perf_s": "s",
    "pipeline_samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "event_precision": "ratio",
    "event_recall": "ratio",
    "room_anomaly_precision": "ratio",
    "room_anomaly_recall": "ratio",
    "outlier_precision": "ratio",
    "outlier_recall": "ratio",
}
# Printed with the end-to-end table but kept out of the JSON result: both
# are 0 on correct code, so a relative bound cannot be set on them.
ZERO_ON_SUCCESS_UNITS = {"error_rate": "ratio", "outage_abs_err_pct": "%"}


class InputsChanged(P.BenchError):
    pass


# ---------------------------------------------------------------- inputs

def check_inputs(workload: Workload, inputs: Path, lock: dict | None) -> dict:
    digest = P.input_digest(inputs)
    if lock is not None:
        pinned = lock.get(workload.name)
        if pinned is None:
            raise P.BenchError(f"no pinned inputs for {workload.name} in {LOCK.name}")
        if digest != pinned:
            changed = sorted(k for k in set(digest) | set(pinned)
                             if digest.get(k) != pinned.get(k))
            raise InputsChanged(f"inputs changed for {workload.name}: {', '.join(changed)}")
    return digest


def read_lock() -> dict:
    if not LOCK.is_file():
        raise P.BenchError(f"{LOCK} not found")
    return json.loads(LOCK.read_text())


def setup(workload: Workload, run_dir: Path, lock: dict | None, repeats: int,
          argv_prefix: list[str] | None = None) -> tuple[list[float], Path, dict]:
    """Synthesize the inputs `repeats` times; every copy must match the lock."""
    times = []
    for _ in range(repeats):
        child = P.synth(workload, run_dir / "setup", argv_prefix)
        times.append(child.wall_s)
        digest = check_inputs(workload, run_dir / "setup" / "inputs", lock)
    return times, run_dir / "setup" / "inputs", digest


# ---------------------------------------------------------------- passes

def run_pass(workload: Workload, inputs: Path, pass_dir: Path, catalog: dict,
             trace_dir: Path | None = None) -> dict:
    """ingest -> quality -> comfort -> perf from an empty store and out dir.

    With trace_dir set, each command runs under the tracer and leaves its
    span record there.
    """
    P.fresh_dir(pass_dir)
    config = P.write_config(inputs, pass_dir)
    children, problems, records = {}, {}, {}
    for command in P.ANALYSIS:
        args = P.command_args(workload, command, config)
        if trace_dir is None:
            argv = P.cli_argv(*args)
        else:
            trace_dir.mkdir(parents=True, exist_ok=True)
            record_path = trace_dir / f"{command}.json"
            argv = [sys.executable, str(HERE / "tracing.py"), str(record_path), "--", *args]
        child = P.run_child(argv, pass_dir / "logs" / command)
        children[command] = child
        if child.returncode != 0:
            problems[command] = [f"exit {child.returncode}: {child.stderr.strip()[-500:]}"]
        else:
            problems[command] = P.check_outputs(command, pass_dir / "out", catalog, workload)
        if trace_dir is not None and record_path.is_file():
            records[command] = json.loads(record_path.read_text())
    out = pass_dir / "out"
    digests = P.report_digests(out) if out.is_dir() else {}
    return {"children": children, "problems": problems, "records": records,
            "digests": digests, "out": out, "store": pass_dir / "store"}


def pass_fits(elapsed: float, done: int, seconds: float) -> bool:
    """Start another pass if at least half of it fits in the run length."""
    return elapsed + 0.5 * elapsed / done <= seconds


def pass_failures(p: dict) -> int:
    return sum(1 for v in p["problems"].values() if v)


def median(values) -> float:
    return float(statistics.median(values))


def stage_metrics(passes: list[dict], rows: int) -> dict:
    """Stage times are means over the passes of a run.

    On a shared host the pass-to-pass noise is bounded machine-speed
    variation rather than rare outliers, and for that the mean of a few
    passes is steadier than their median.
    """
    walls = {c: [p["children"][c].wall_s for p in passes] for c in P.ANALYSIS}
    metrics = {f"{c}_s": statistics.fmean(walls[c]) for c in P.ANALYSIS}
    metrics["pipeline_samples_per_s"] = rows / sum(metrics[f"{c}_s"] for c in P.ANALYSIS)
    metrics["peak_rss_mb"] = median(
        max(p["children"][c].peak_rss_mb for c in P.ANALYSIS) for p in passes)
    return metrics


# ---------------------------------------------------------------- per-layer

def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else float("nan")


SAMPLES_PER_S = ("samples_per_s", "samples")


def layer_metrics(records: dict, fresh: dict, store: Path, synth: dict) -> dict:
    """Per-layer metrics of one traced pass; absent spans give absent metrics.

    `records` holds the traced analysis commands, `fresh` the untraced
    children of the pass before, `synth` the traced synth that made the inputs.
    """
    m: dict[str, float] = {}
    spans: dict[str, dict] = {}
    for rec in [synth, *records.values()]:
        for name, s in rec["spans"].items():
            total = spans.setdefault(name, {"busy_s": 0.0, "self_s": 0.0, "counts": {}})
            total["busy_s"] += s["busy_s"]
            total["self_s"] += s["self_s"]
            for k, v in s["counts"].items():
                total["counts"][k] = total["counts"].get(k, 0) + v

    if records:
        m["cli.import_s"] = median(rec["import_s"] for rec in records.values())
    overhead_base = overhead_traced = 0.0
    for command, rec in records.items():
        m[f"cli.{command}.self_s"] = rec["command_s"] - rec["top_s"]
        m[f"cli.{command}.peak_rss_mb"] = fresh[command].peak_rss_mb
        overhead_base += fresh[command].wall_s - rec["import_s"]
        overhead_traced += rec["command_s"]
    if overhead_base > 0:
        m["trace.overhead_pct"] = 100.0 * (overhead_traced - overhead_base) / overhead_base

    def span_metrics(name, rate=None, counts=()):
        s = spans.get(name)
        if s is None:
            return
        m[f"{name}.busy_s"] = s["busy_s"]
        if rate is not None:
            metric, key = rate
            m[f"{name}.{metric}"] = _rate(s["counts"].get(key, 0), s["busy_s"])
        for key in counts:
            m[f"{name}.{key}"] = s["counts"].get(key, 0)

    span_metrics("synthgen.generate", SAMPLES_PER_S)
    span_metrics("ingest.parse_measurements", SAMPLES_PER_S, ["rejected"])
    span_metrics("ingest.SeriesStore.save", SAMPLES_PER_S, ["partitions"])
    span_metrics("ingest.SeriesStore.load", SAMPLES_PER_S)
    span_metrics("ingest.load_weather")
    parse = spans.get("ingest.parse_measurements")
    ingest_save = records.get("ingest", {}).get("spans", {}).get("ingest.SeriesStore.save")
    if parse is not None and ingest_save is not None:
        saved = ingest_save["counts"].get("samples", 0)
        m["ingest.parse_measurements.duplicates"] = parse["counts"]["accepted_rows"] - saved
        if saved and store.is_dir():
            size = sum(f.stat().st_size for f in store.rglob("*") if f.is_file())
            m["ingest.store_bytes_per_sample"] = size / saved
    span_metrics("quality.flag_outliers", SAMPLES_PER_S, ["flags"])
    flag = spans.get("quality.flag_outliers")
    if flag is not None and flag["counts"].get("samples"):
        m["quality.flag_outliers.flag_rate"] = flag["counts"]["flags"] / flag["counts"]["samples"]
    span_metrics("quality.replace_outliers", SAMPLES_PER_S, ["replaced", "dropped"])
    span_metrics("quality.fill_missing", SAMPLES_PER_S, ["filled", "unfilled"])
    span_metrics("quality.moving_average")
    span_metrics("quality.availability_matrix")
    if "quality.repair_series" in spans:
        m["quality.repair_series.self_s"] = spans["quality.repair_series"]["self_s"]
    span_metrics("comfort.site_comfort_summary", ("room_days_per_s", "room_days_scored"),
                 ["room_days_scored", "room_days_skipped"])
    span_metrics("performance.detect_occupant_events", SAMPLES_PER_S, ["events"])
    span_metrics("performance.weekend_daily_swings")
    span_metrics("performance.solar_gain_correlation", counts=["skipped"])
    return m


def iso_kernel(inputs: Path, limit: int = ISO_KERNEL_SAMPLES) -> dict:
    """Samples/s of model.format_iso8601 over the workload's own timestamps."""
    if str(P.SRC) not in sys.path:
        sys.path.insert(0, str(P.SRC))
    import numpy as np
    from schoolsense import model

    fmt = getattr(model, "format_iso8601", None)
    if fmt is None:
        return {}
    stamps = []
    for path in sorted((inputs / "measurements").glob("*.csv")):
        with open(path) as fh:
            next(fh)
            for line in fh:
                stamps.append(line.split(",", 2)[1])
                if len(stamps) == limit:
                    break
        if len(stamps) == limit:
            break
    epochs = np.array([s[:-1] for s in stamps], dtype="datetime64[s]").astype(np.int64).tolist()
    t0 = time.perf_counter()
    formatted = [fmt(t) for t in epochs]
    elapsed = time.perf_counter() - t0
    if formatted != stamps:
        raise P.BenchError("format_iso8601 does not reproduce the input timestamps")
    return {"model.format_iso8601.samples_per_s": len(stamps) / elapsed}


# ---------------------------------------------------------------- runs

def run_workload(workload: Workload, seconds: float, trace: bool, lock: dict | None,
                 setup_repeats: int = SETUP_REPEATS) -> dict:
    run_dir = P.fresh_dir(P.WORK / workload.name)
    if trace:
        # the traced run makes its inputs with one traced synth
        synth_record = P.fresh_dir(run_dir / "trace") / "synth.json"
        tracer = [sys.executable, str(HERE / "tracing.py"), str(synth_record), "--"]
        setup_times, inputs, input_digest = setup(workload, run_dir, lock, 1, tracer)
        synth_rec = json.loads(synth_record.read_text())
    else:
        setup_times, inputs, input_digest = setup(workload, run_dir, lock, setup_repeats)
    catalog = json.loads((inputs / "catalog.json").read_text())
    rows = P.measurement_rows(inputs)

    passes, traced = [], []
    t0 = time.perf_counter()
    while not passes or pass_fits(time.perf_counter() - t0, len(passes), seconds):
        n = len(passes)
        passes.append(run_pass(workload, inputs, run_dir / "pass", catalog))
        if trace:
            traced.append(run_pass(workload, inputs, run_dir / "traced", catalog,
                                   trace_dir=run_dir / "trace" / f"pass{n}"))
            traced[-1]["layers"] = layer_metrics(
                traced[-1]["records"], passes[-1]["children"], traced[-1]["store"], synth_rec)
        if n == 0:
            # scored before the next pass overwrites the reports
            accuracy = score.score(inputs, passes[0]["out"])

    attempted = len(setup_times) + sum(len(p["children"]) for p in passes + traced)
    failed = sum(pass_failures(p) for p in passes + traced)
    problems = [f"pass {i} {c}: {msg}" for i, p in enumerate(passes + traced)
                for c, msgs in p["problems"].items() for msg in msgs]
    reference = passes[0]["digests"]
    for i, p in enumerate(passes[1:] + traced, start=1):
        if p["digests"] != reference:
            problems.append(f"pass {i}: reports differ from pass 0")
            failed += not pass_failures(p)

    e2e = {"setup_s": median(setup_times), **stage_metrics(passes, rows), **accuracy}
    e2e["error_rate"] = failed / attempted
    result = {
        "workload": workload.name,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "end_to_end": e2e,
        "samples_in": rows,
        "setup_times": setup_times,
        "stage_times": {c: [p["children"][c].wall_s for p in passes] for c in P.ANALYSIS},
        "stage_peak_rss_mb": {c: [p["children"][c].peak_rss_mb for p in passes]
                              for c in P.ANALYSIS},
        "input_digest": input_digest,
        "report_digests": reference,
    }
    if trace:
        layers_per_pass = [t["layers"] for t in traced]
        layers = {k: median(lp[k] for lp in layers_per_pass) for k in layers_per_pass[0]}
        layers.update(iso_kernel(inputs))
        result["per_layer"] = layers
        result["missing_targets"] = sorted(
            {t for rec in [synth_rec] + [r for t in traced for r in t["records"].values()]
             for t in rec["missing"]})
    return result


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=P.ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "git_sha": sha,
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
    }


PER_LAYER_UNITS_BY_SUFFIX = (
    ("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"), ("_pct", "%"),
    ("flag_rate", "ratio"), ("bytes_per_sample", "B"),
)


def layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS_BY_SUFFIX:
        if name.endswith(suffix):
            return unit
    return "count"


def print_table(result: dict, trace: bool) -> None:
    print(f"== {result['workload']}: {result['samples_in']} samples in, "
          f"{result['attempted']} commands, {result['failed']} failed")
    units = {**E2E_UNITS, **ZERO_ON_SUCCESS_UNITS}
    for name, unit in units.items():
        print(f"  {name:<40} {result['end_to_end'][name]:>16.6g} {unit}")
    if trace:
        for name, value in sorted(result["per_layer"].items()):
            print(f"  {name:<52} {value:>16.6g} {layer_unit(name)}")
        if result["missing_targets"]:
            print(f"  missing trace targets: {', '.join(result['missing_targets'])}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")


def json_metrics(result: dict, trace: bool) -> dict:
    if trace:
        return {k: {"value": v, "unit": layer_unit(k)} for k, v in result["per_layer"].items()}
    return {k: {"value": result["end_to_end"][k], "unit": u} for k, u in E2E_UNITS.items()}


def write_record(result: dict, env: dict, seed: int, trace: bool) -> Path:
    records = P.WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{result['workload']}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps({"seed": seed, "trace": trace, "environment": env, **result},
                               indent=2, sort_keys=True) + "\n")
    return path


def write_lock(names: list[str]) -> None:
    lock = json.loads(LOCK.read_text()) if LOCK.is_file() else {}
    for name in names:
        run_dir = P.fresh_dir(P.WORK / name)
        _, _, digest = setup(WORKLOADS[name], run_dir, None, 1)
        lock[name] = digest
        print(f"pinned {name}: {len(digest)} files")
    LOCK.write_text(json.dumps(lock, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: each workload pins its scenario seed")
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-lock", action="store_true",
                        help="pin the workload's current synth outputs and exit")
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)

    try:
        P.require_program()
        if args.write_lock:
            write_lock(names)
            return 0
        lock = read_lock()
        env = environment()
        results = []
        for name in names:
            result = run_workload(WORKLOADS[name], args.seconds, trace, lock)
            record = write_record(result, env, args.seed, trace)
            print_table(result, trace)
            print(f"  record: {record.relative_to(P.ROOT)}")
            results.append(result)
    except InputsChanged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUTS_CHANGED
    except P.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        metrics = json_metrics(results[0], trace)
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in json_metrics(r, trace).items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
