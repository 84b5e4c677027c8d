"""Accuracy on a panel of seeds: the golden scenario's spec run with seeds 0-11.

The floors in `test_golden.py` are one seed's scores, so a detector change
could raise that seed and lower the typical one unseen. Here the whole
pipeline runs in-process through `cli.main` once per seed, without the golden
scenario's re-sent file, and `bench/score.py` scores each run against its
ground truth. The median of each metric over the panel must stay at or above
its floor. A change that improves a detector raises its floor with it.
"""

from __future__ import annotations

import importlib.util
import json
import statistics

import pytest

from schoolsense import cli

from test_golden import SCORE, _spec

SEEDS = range(12)

# Panel medians when the floors were set; over seeds 0-11 the six metrics
# ranged 0.636-1.0, 0.333-0.917, 0.5-1.0, 0.5-1.0, 0.655-0.722 and 0.996-1.0.
PANEL_FLOORS = {
    "event_precision": 0.857,
    "event_recall": 0.583,
    "room_anomaly_precision": 2 / 3,
    "room_anomaly_recall": 0.5,
    "outlier_precision": 0.696,
    "outlier_recall": 1.0,
}


def _load_score():
    spec = importlib.util.spec_from_file_location("bench_score", SCORE)
    score = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(score)
    return score.score


@pytest.fixture(scope="module")
def panel(tmp_path_factory) -> list[dict]:
    """The scores of every seed's reports, in seed order."""
    score = _load_score()
    scores = []
    for seed in SEEDS:
        root = tmp_path_factory.mktemp(f"seed{seed}")
        (root / "spec.json").write_text(json.dumps(dict(_spec(), seed=seed)))
        inputs = root / "inputs"
        assert cli.main(["synth", str(root / "spec.json"), "--out", str(inputs)]) == 0
        (root / "config.json").write_text(json.dumps({
            "catalog": str(inputs / "catalog.json"),
            "weather": str(inputs / "weather.csv"),
            "store": str(root / "store"),
            "out": str(root / "out"),
            "measurements": [str(p) for p in sorted((inputs / "measurements").glob("*.csv"))],
        }))
        conf = ["--config", str(root / "config.json")]
        assert cli.main(["ingest", *conf]) == 0
        assert cli.main(["quality", *conf]) == 0
        assert cli.main(["comfort", *conf, "--from", "2017-10-09", "--to", "2017-10-18"]) == 0
        assert cli.main(["perf", *conf]) == 0
        scores.append(score(inputs, root / "out"))
    return scores


def test_panel_median_accuracy_stays_above_floors(panel):
    medians = {name: statistics.median(s[name] for s in panel) for name in PANEL_FLOORS}
    below = {name: median for name, median in medians.items()
             if not median >= PANEL_FLOORS[name]}
    assert below == {}, medians
