"""Self-test: the whole benchmark path on a tiny scenario, in seconds.

Run with `python3 -m pytest bench`.
"""

import json
import shutil

import pytest

import pipeline as P
import run
from workloads import TINY

BENCHMARK = json.loads((P.ROOT / "BENCHMARK.json").read_text())


def declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.setattr(P, "WORK", tmp_path / "work")
    return tmp_path


def reported(result, trace):
    return {k: v["unit"] for k, v in run.json_metrics(result, trace).items()}


def test_end_to_end_run_reports_every_metric(work):
    result = run.run_workload(TINY, seconds=0, trace=False, lock=None, setup_repeats=1)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0
    assert reported(result, False) == declared("end_to_end")
    assert result["end_to_end"]["error_rate"] == 0.0
    assert set(result["report_digests"]) >= {"quality_report.csv", "perf_anomalies.csv"}


def test_traced_run_reports_every_metric(work):
    result = run.run_workload(TINY, seconds=0, trace=True, lock=None)
    assert result["correct"], result["problems"]
    assert result["missing_targets"] == []
    assert reported(result, True) == declared("per_layer")


def test_missing_target_leaves_only_its_metrics_absent(work, monkeypatch):
    src = work / "src"
    shutil.copytree(P.SRC, src)
    quality = src / "schoolsense" / "quality.py"
    quality.write_text(quality.read_text().replace("moving_average", "trailing_mean"))
    monkeypatch.setattr(P, "SRC", src)

    result = run.run_workload(TINY, seconds=0, trace=True, lock=None)
    assert result["correct"], result["problems"]
    assert result["missing_targets"] == ["quality.moving_average"]
    assert set(declared("per_layer")) - set(result["per_layer"]) == {
        "quality.moving_average.busy_s"}


def test_changed_inputs_are_refused(work):
    run_dir = P.fresh_dir(P.WORK / TINY.name)
    _, inputs, digest = run.setup(TINY, run_dir, None, 1)
    lock = {TINY.name: dict(digest, **{"weather.csv": {"sha256": "0", "rows": 0}})}
    with pytest.raises(run.InputsChanged, match="weather.csv"):
        run.check_inputs(TINY, inputs, lock)
