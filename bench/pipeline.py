"""Runs schoolsense commands as fresh child processes and checks their outputs.

One closed loop: a single child at a time, each waiting for the one before,
so interpreter start-up and imports count as a user feels them.  Wall time
comes from `time.perf_counter` around spawn-to-reap, and peak RSS from that
child's own `os.wait4` rusage (RUSAGE_CHILDREN would give the running
maximum over every child so far).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from datetime import timedelta
from pathlib import Path

from workloads import Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

ANALYSIS = ("ingest", "quality", "comfort", "perf")
CHILD_TIMEOUT_S = 60  # a command here takes seconds; a hung one is killed

# Every report each command documents, with its header line.
REPORTS = {
    "ingest": {"rejects.csv": "sensor_id,lines"},
    "quality": {
        "quality_report.csv": "site_id,sensor_id,date,expected,observed,outage_pct,"
                              "zero_flags,spike_flags,bound_flags,fills",
        "site_quality.csv": "site_id,pos,sensors,start_time,outage_pct,outlier_pct",
        "kind_quality.csv": "category,pos,sensors,outage_pct,outlier_pct",
    },
    "comfort": {
        "comfort_daily.csv": "site_id,room_id,date,score,hours_evaluated,acceptability,t_pmo",
        "comfort_sites.csv": "site_id,acceptability,room_days,mean,min,max,q1,q3",
        "comfort_plot.csv": "site_id,date,score",
    },
    "perf": {
        "perf_swings.csv": "site_id,room_id,date,min_t,max_t,swing,rise_hours",
        "perf_correlation.csv": "site_id,room_id,orientation,r,hours",
        "perf_anomalies.csv": "site_id,room_id,kind,metric,value,dates",
        "perf_anomalies.txt": None,
    },
}

INPUT_FILES = ("catalog.json", "weather.csv", "ground_truth.json")


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, changed inputs)."""


@dataclass(frozen=True)
class Child:
    wall_s: float
    peak_rss_mb: float
    returncode: int
    stderr: str


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SCHOOLSENSE_")}
    env["PYTHONPATH"] = str(SRC)
    # every command compiles the sources as in a fresh checkout, and nothing
    # is written under src/
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(argv: list[str], log_dir: Path) -> Child:
    """Spawn one child, wait for it with wait4, and time it end to end."""
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        returncode=proc.returncode,
        stderr=err_path.read_text(errors="replace"),
    )


def require_program() -> None:
    if not (SRC / "schoolsense" / "cli.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "schoolsense.cli", *args]


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def count_rows(path: Path) -> int:
    """Data rows of a CSV (header excluded); lines for any other file."""
    with open(path, "rb") as fh:
        lines = sum(1 for _ in fh)
    return lines - 1 if path.suffix == ".csv" else lines


# ---------------------------------------------------------------- inputs

def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def synth(workload: Workload, run_dir: Path, argv_prefix: list[str] | None = None) -> Child:
    """Create the workload's inputs under run_dir/inputs with `schoolsense synth`."""
    fresh_dir(run_dir)
    spec = run_dir / "spec.json"
    spec.write_text(json.dumps(workload.spec(), indent=2) + "\n")
    argv = (argv_prefix or cli_argv()) + ["synth", str(spec), "--out", str(run_dir / "inputs")]
    child = run_child(argv, run_dir / "logs" / "synth")
    if child.returncode != 0:
        raise BenchError(f"synth failed ({child.returncode}): {child.stderr.strip()}")
    if workload.resend_days:
        write_resend(workload, run_dir / "inputs")
    return child


def measurement_files(inputs: Path) -> list[Path]:
    """The measurement CSVs in the order ingest reads them (last wins)."""
    return sorted((inputs / "measurements").glob("*.csv"))


def write_resend(workload: Workload, inputs: Path) -> None:
    """A further file that sends every row of the last `resend_days` again."""
    cutoff = workload.end - timedelta(days=workload.resend_days)
    cutoff_text = f"{cutoff.isoformat()}T00:00:00Z"
    rows = ["sensor_id,timestamp,value"]
    for path in measurement_files(inputs):
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            rows.extend(",".join(r) for r in reader if r[1] >= cutoff_text)
    (inputs / "measurements" / "zz_resend.csv").write_text("\n".join(rows) + "\n")


def input_digest(inputs: Path) -> dict:
    """sha256 and row count of every file synth (and the resend step) created."""
    files = [inputs / name for name in INPUT_FILES] + measurement_files(inputs)
    return {
        str(p.relative_to(inputs)): {"sha256": sha256(p), "rows": count_rows(p)}
        for p in files
    }


def measurement_rows(inputs: Path) -> int:
    return sum(count_rows(p) for p in measurement_files(inputs))


# ---------------------------------------------------------------- pipeline

def write_config(inputs: Path, pass_dir: Path) -> Path:
    config = {
        "catalog": str(inputs / "catalog.json"),
        "weather": str(inputs / "weather.csv"),
        "store": str(pass_dir / "store"),
        "out": str(pass_dir / "out"),
        "measurements": [str(p) for p in measurement_files(inputs)],
    }
    path = pass_dir / "config.json"
    path.write_text(json.dumps(config, indent=2) + "\n")
    return path


def command_args(workload: Workload, command: str, config: Path) -> list[str]:
    """CLI arguments of one analysis command (without the interpreter)."""
    args = [command, "--config", str(config)]
    if command == "comfort":
        args += ["--from", workload.comfort_start.isoformat(), "--to", workload.end.isoformat()]
    return args


def check_outputs(command: str, out: Path, catalog: dict, workload: Workload) -> list[str]:
    """Problems with one command's reports; an empty list means they pass."""
    problems = []
    for name, header in REPORTS[command].items():
        path = out / name
        if not path.is_file():
            problems.append(f"{name} missing")
            continue
        if header is not None:
            with open(path) as fh:
                first = fh.readline().rstrip("\n")
            if first != header:
                problems.append(f"{name} header {first!r}")
    if problems:
        return problems
    if command == "quality":
        problems += _check_quality_rows(out / "quality_report.csv", catalog, workload)
    if command == "comfort":
        problems += _check_comfort_scores(out)
    return problems


def _check_quality_rows(path: Path, catalog: dict, workload: Workload) -> list[str]:
    with open(path, newline="") as fh:
        keys = [(r["sensor_id"], r["date"]) for r in csv.DictReader(fh)]
    days = [(workload.start + timedelta(days=d)).isoformat() for d in range(workload.days)]
    expected = {(s["sensor_id"], d) for s in catalog["sensors"] for d in days}
    if len(keys) != len(set(keys)):
        return ["quality_report.csv repeats a sensor-day"]
    if set(keys) != expected:
        return [f"quality_report.csv has {len(keys)} sensor-days, expected {len(expected)}"]
    return []


def _check_comfort_scores(out: Path) -> list[str]:
    columns = {
        "comfort_daily.csv": ("score",),
        "comfort_plot.csv": ("score",),
        "comfort_sites.csv": ("mean", "min", "max", "q1", "q3"),
    }
    problems = []
    for name, cols in columns.items():
        with open(out / name, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if not rows:
            problems.append(f"{name} has no rows")
        for row in rows:
            for col in cols:
                if not 0.0 <= float(row[col]) <= 1.0:
                    problems.append(f"{name} {col}={row[col]} outside [0, 1]")
    return problems


def report_digests(out: Path) -> dict:
    return {p.name: sha256(p) for p in sorted(out.iterdir()) if p.is_file()}
