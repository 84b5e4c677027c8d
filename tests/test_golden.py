"""Golden digests and accuracy floors: the whole pipeline on a small scenario.

Runs `synth → ingest → quality → comfort → perf` through `cli.main` in a
temporary directory and pins the sha256 of every synth input and every
report. A refactor that keeps behaviour keeps these digests; a change that
means to alter an output updates the affected digest in the same commit.

The reports are also scored against the scenario's ground truth with
`bench/score.py`, and each precision and recall must stay at or above its
floor. A change that improves a detector raises its floor with it.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from schoolsense import cli

SCORE = Path(__file__).resolve().parents[1] / "bench" / "score.py"

ROOMS = (
    {"room_id": "a", "orientation": "S", "insulation": "poor", "blinds": True},
    {"room_id": "b", "orientation": "W", "insulation": "good", "blinds": False},
    {"room_id": "c", "orientation": "N", "insulation": "good", "blinds": True},
)


def _spec() -> dict:
    return {
        "seed": 7,
        "start": "2017-10-02",
        "days": 16,
        "sensing_rate": 600,
        "sites": [
            {
                "site_id": site_id,
                "tz_offset_minutes": tz,
                "outage_fraction": 0.2,
                "zero_error_rate": 0.01,
                "spike_rate": 0.01,
                "rooms": [dict(r, occupant_events=2) for r in ROOMS],
            }
            for site_id, tz in (("s1", 0), ("s2", 120))
        ],
    }


INPUT_DIGESTS = {
    "catalog.json":
        "505789c2bcd45660bc63e4da02a0d1bf428c616d025a75b9a0e72f88162e5d04",
    "weather.csv":
        "08466daa67232373c6b30a484f42fee85c7ebc6f4486b6505b6017642aeb68a3",
    "ground_truth.json":
        "b155c2c8b3e3c76098feb101ea3b88acde252ae9ee014980186697950e1d3558",
    "measurements/s1.csv":
        "47ed2b6c171db4a5dadd3bd2c3dfce5d514e617f2d845cc25409a1f7daf3a8d6",
    "measurements/s2.csv":
        "02cace9fd9d196d46b278246b3f3ed3bf4a4c56ca78684c54cdd044c66a97301",
    "measurements/zz_resend.csv":
        "25124ebe049838e403f0b393ff4427e4b11b859b371682876e07c5c006cfa9d7",
}

REPORT_DIGESTS = {
    "rejects.csv":
        "5a00af4eefacbcdee243d3af40d1e785ac94b0c040eeb7fe22b1057a10bd2b1a",
    "quality_report.csv":
        "959321bf7893a3b4bc2f2beca89bb31d0027dd0dbf01e969067b1aefb0fab756",
    "site_quality.csv":
        "13cb77b5691dce03adcd44f40e42dde0355d9a3fadefff860dadaae392d23e3f",
    "kind_quality.csv":
        "49900eda5e076db0d2cefbfc2355bfb2e5fb42550cabe04514267cc35dd0f5cd",
    "comfort_daily.csv":
        "6054722dc27c63f8214bb6264068b6c53fb0c611a2bb7769fed4ccfd33de39d8",
    "comfort_sites.csv":
        "d251015545a865fa639140387ada7d27bdf683b010e15bf85335755606ac1ae8",
    "comfort_plot.csv":
        "a5077218f2f7cfd9f63479de38c6395fcf5c3b0206ec73aa8028857069eed2e4",
    "perf_swings.csv":
        "92efd771b580427db94b7b20c1201ccbbf16ad1a400176c8738474abe446526a",
    "perf_correlation.csv":
        "4132c14c101ac07f8fe492ea0b4225540b096d3fca4e0992b97e4164be4ca1ca",
    "perf_anomalies.csv":
        "591da3bcd041e0f25bd93679111a6d8a305fb47b79c2999ea933be4b5aad9dfb",
    "perf_anomalies.txt":
        "34ccecfe5b46db038c62e1f59193ddcec42029b5f4d7bc3c73ba47cf806536a6",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# Scores of the golden scenario's reports when the floors were set.
ACCURACY_FLOORS = {
    "event_precision": 0.8,
    "event_recall": 1 / 3,
    "room_anomaly_precision": 2 / 3,
    "room_anomaly_recall": 0.5,
    "outlier_precision": 0.6961,
    "outlier_recall": 1.0,
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """The scenario's inputs and reports, made once for the module."""
    root = tmp_path_factory.mktemp("golden")
    spec = root / "spec.json"
    spec.write_text(json.dumps(_spec()))
    inputs = root / "inputs"
    assert cli.main(["synth", str(spec), "--out", str(inputs)]) == 0

    # a third file re-sends the last 3 days of s1, so ingest merges across files
    lines = (inputs / "measurements" / "s1.csv").read_text().splitlines()
    resend = [lines[0]] + [ln for ln in lines[1:] if ln.split(",")[1] >= "2017-10-15"]
    (inputs / "measurements" / "zz_resend.csv").write_text("\n".join(resend) + "\n")

    config = root / "config.json"
    config.write_text(json.dumps({
        "catalog": str(inputs / "catalog.json"),
        "weather": str(inputs / "weather.csv"),
        "store": str(root / "store"),
        "out": str(root / "out"),
        "measurements": [str(inputs / "measurements" / name)
                         for name in ("s1.csv", "s2.csv", "zz_resend.csv")],
    }))
    conf = ["--config", str(config)]
    assert cli.main(["ingest", *conf]) == 0
    assert cli.main(["quality", *conf]) == 0
    assert cli.main(["comfort", *conf, "--from", "2017-10-09", "--to", "2017-10-18"]) == 0
    assert cli.main(["perf", *conf]) == 0
    return inputs, root / "out"


def test_pipeline_outputs_match_golden_digests(pipeline):
    inputs, out = pipeline
    # the scenario must exercise every detector, or the digests pin too little
    kinds = {row.split(",")[2] for row in
             (out / "perf_anomalies.csv").read_text().splitlines()[1:]}
    assert kinds == {"poor_insulation", "unshaded_solar_gain", "occupant_event"}

    got_inputs = {name: _sha256(inputs / name) for name in INPUT_DIGESTS}
    got_reports = {name: _sha256(out / name) for name in REPORT_DIGESTS}
    assert got_inputs == INPUT_DIGESTS
    assert got_reports == REPORT_DIGESTS


def test_pipeline_accuracy_stays_above_floors(pipeline):
    spec = importlib.util.spec_from_file_location("bench_score", SCORE)
    score = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(score)
    scores = score.score(*pipeline)
    below = {name: scores[name] for name, floor in ACCURACY_FLOORS.items()
             if not scores[name] >= floor}
    assert below == {}, scores
