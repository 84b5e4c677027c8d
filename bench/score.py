"""Scores report CSVs against the ground truth that `schoolsense synth` writes.

Matching rules:

* Occupant events count-match on (site, room, date).  A truth event is dated
  by the UTC date of its trough; a reported event by each date in the
  `dates` column of its `occupant_event` row in `perf_anomalies.csv`, which
  the perf command writes as UTC days.  For the benchmark's time-zone offsets
  (-300 to +120 min) and school hours (08:30-16:30 local) the UTC date equals
  the local date.  Per key, min(true count, reported count) are hits.
* Room anomalies match on (site, room, kind).  A room truly has
  `poor_insulation` when its `room_traits` insulation is "poor", and
  `unshaded_solar_gain` when it has no blinds and an E, SE, S, SW or W
  facade.  Both kinds pool into one precision and one recall.
* Outliers count-match per sensor-day and kind: the `zero_flags` and
  `spike_flags` columns of `quality_report.csv` against the injected
  `zero_error` and `spike` outliers, dated by UTC day.  Bound-violation
  flags are not injected and are not scored.
* Outage error is, per site, |outage_pct - 100 * deleted / expected| over
  the site's sensors, and the score is the largest site error.

Precision with nothing reported, and recall with nothing true, are 1.0.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from pathlib import Path

SUNNY_FACADES = {"E", "SE", "S", "SW", "W"}
ROOM_KINDS = ("poor_insulation", "unshaded_solar_gain")


def utc_date(stamp: str) -> str:
    """Date part of an ISO-8601 UTC stamp such as 2017-10-02T09:10:00Z."""
    return stamp[:10]


def count_match(truth: Counter, reported: Counter) -> tuple[float, float]:
    """(precision, recall) when min(true, reported) per key are hits."""
    hits = sum(min(n, reported[key]) for key, n in truth.items())
    n_reported = sum(reported.values())
    n_true = sum(truth.values())
    precision = hits / n_reported if n_reported else 1.0
    recall = hits / n_true if n_true else 1.0
    return precision, recall


def true_room_anomalies(traits: dict) -> Counter:
    out = Counter()
    for room, t in traits.items():
        site, room_id = room.split("/", 1)
        if t["insulation"] == "poor":
            out[(site, room_id, "poor_insulation")] += 1
        if not t["blinds"] and t["orientation"] in SUNNY_FACADES:
            out[(site, room_id, "unshaded_solar_gain")] += 1
    return out


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def score(inputs: Path, out: Path) -> dict:
    """Accuracy of the reports in `out` against `inputs/ground_truth.json`."""
    truth = json.loads((inputs / "ground_truth.json").read_text())
    catalog = json.loads((inputs / "catalog.json").read_text())
    anomalies = _rows(out / "perf_anomalies.csv")

    true_events = Counter()
    for room, stamps in truth["occupant_events"].items():
        site, room_id = room.split("/", 1)
        true_events.update((site, room_id, utc_date(s)) for s in stamps)
    found_events = Counter()
    for row in anomalies:
        if row["kind"] == "occupant_event":
            found_events.update(
                (row["site_id"], row["room_id"], d) for d in row["dates"].split(";"))
    event_p, event_r = count_match(true_events, found_events)

    found_rooms = Counter(
        (row["site_id"], row["room_id"], row["kind"])
        for row in anomalies if row["kind"] in ROOM_KINDS)
    room_p, room_r = count_match(true_room_anomalies(truth["room_traits"]), found_rooms)

    kinds = {"zero_error": "zero_flags", "spike": "spike_flags"}
    true_outliers = Counter()
    for sensor_id, items in truth["outliers"].items():
        true_outliers.update((sensor_id, utc_date(s), kinds[k]) for s, k in items)
    found_outliers = Counter()
    for row in _rows(out / "quality_report.csv"):
        for column in kinds.values():
            n = int(row[column])
            if n:
                found_outliers[(row["sensor_id"], row["date"], column)] += n
    outlier_p, outlier_r = count_match(true_outliers, found_outliers)

    site_of = {s["sensor_id"]: s["site_id"] for s in catalog["sensors"]}
    expected, deleted = Counter(), Counter()
    for sensor_id, n in truth["expected"].items():
        expected[site_of[sensor_id]] += n
        deleted[site_of[sensor_id]] += truth["deleted"].get(sensor_id, 0)
    outage_err = max(
        abs(float(row["outage_pct"]) - 100.0 * deleted[row["site_id"]] / expected[row["site_id"]])
        for row in _rows(out / "site_quality.csv"))

    return {
        "event_precision": event_p,
        "event_recall": event_r,
        "room_anomaly_precision": room_p,
        "room_anomaly_recall": room_r,
        "outlier_precision": outlier_p,
        "outlier_recall": outlier_r,
        "outage_abs_err_pct": outage_err,
    }
