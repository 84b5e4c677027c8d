"""The ground-truth scorer on a hand-made truth and report pair."""

import json
from collections import Counter

import pytest

import score


def write_csv(path, header, rows):
    path.write_text("\n".join([header, *rows]) + "\n")


@pytest.fixture
def toy(tmp_path):
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    truth = {
        "expected": {"s1-power": 100, "s1-a-temp": 100},
        "deleted": {"s1-power": 10},
        "outage_intervals": {},
        "outliers": {
            "s1-power": [["2017-10-02T10:00:00Z", "spike"], ["2017-10-02T11:00:00Z", "spike"],
                         ["2017-10-03T01:00:00Z", "zero_error"]],
            "s1-a-temp": [["2017-10-02T05:00:00Z", "zero_error"]],
        },
        "room_traits": {
            "s1/a": {"insulation": "poor", "blinds": True, "orientation": "S"},
            "s1/b": {"insulation": "good", "blinds": False, "orientation": "W"},
            "s1/c": {"insulation": "good", "blinds": False, "orientation": "N"},
            "s1/d": {"insulation": "poor", "blinds": False, "orientation": "SE"},
        },
        "occupant_events": {
            "s1/a": ["2017-10-02T09:10:00Z", "2017-10-02T13:10:00Z"],
            "s1/b": ["2017-10-03T09:10:00Z"],
        },
    }
    (inputs / "ground_truth.json").write_text(json.dumps(truth))
    (inputs / "catalog.json").write_text(json.dumps({"sensors": [
        {"sensor_id": "s1-power", "site_id": "s1"},
        {"sensor_id": "s1-a-temp", "site_id": "s1"},
    ]}))
    write_csv(out / "perf_anomalies.csv", "site_id,room_id,kind,metric,value,dates", [
        "s1,a,poor_insulation,swing_c,13.0,2017-10-07;2017-10-08",
        "s1,c,unshaded_solar_gain,pearson_r,0.6,2017-10-08",
        "s1,d,unshaded_solar_gain,pearson_r,0.7,2017-10-08",
        "s1,a,occupant_event,drop_c,2.1,2017-10-02;2017-10-04",
    ])
    write_csv(out / "quality_report.csv",
              "site_id,sensor_id,date,expected,observed,outage_pct,"
              "zero_flags,spike_flags,bound_flags,fills", [
                  "s1,s1-power,2017-10-02,50,45,10.0,0,1,5,0",
                  "s1,s1-power,2017-10-03,50,45,10.0,1,1,0,0",
                  "s1,s1-a-temp,2017-10-02,100,100,0.0,2,0,0,0",
              ])
    write_csv(out / "site_quality.csv", "site_id,pos,sensors,start_time,outage_pct,outlier_pct",
              ["s1,2,2,2017-10-02T00:00:00Z,5.5,1.0"])
    return inputs, out


def test_toy_scores(toy):
    got = score.score(*toy)
    # events: 2 reported, 1 hit (s1/a on 10-02); 3 true
    assert got["event_precision"] == pytest.approx(1 / 2)
    assert got["event_recall"] == pytest.approx(1 / 3)
    # rooms: true a-poor, b-unshaded, d-poor, d-unshaded; c faces N so is not
    # unshaded; reported a-poor, c-unshaded, d-unshaded
    assert got["room_anomaly_precision"] == pytest.approx(2 / 3)
    assert got["room_anomaly_recall"] == pytest.approx(2 / 4)
    # outliers: 5 reported flags (bound flags excluded), 3 matched of 4 true
    assert got["outlier_precision"] == pytest.approx(3 / 5)
    assert got["outlier_recall"] == pytest.approx(3 / 4)
    # site outage: 10 of 200 expected samples deleted is 5 %
    assert got["outage_abs_err_pct"] == pytest.approx(0.5)


def test_count_match_with_nothing_reported_or_true():
    assert score.count_match(Counter({"k": 2}), Counter()) == (1.0, 0.0)
    assert score.count_match(Counter(), Counter({"k": 1})) == (0.0, 1.0)
    assert score.count_match(Counter(), Counter()) == (1.0, 1.0)
