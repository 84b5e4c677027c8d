from __future__ import annotations

import json
import math
from datetime import date

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from schoolsense import quality
from schoolsense.cli import main
from schoolsense.ingest import SeriesStore, catalog_to_json
from schoolsense.model import (
    DeploymentCatalog,
    SensorKind,
    SensorMeta,
    Site,
    TimeSeries,
)
from schoolsense.quality import (
    ENV_WINDOW,
    REPAIR_WINDOW,
    FlagKind,
    availability_matrix,
    day_counts,
    fill_missing,
    flag_outliers,
    moving_average,
    repair_series,
    replace_outliers,
    zero_implausible_for,
)

from conftest import constants, series_at, utc
from quality_oracles import _interp_rank, oracle_availability_matrix


def rank_percentile(sorted_vals: list[float], q: float) -> float:
    """Brute-force linear interpolation between closest ranks."""
    pos = (len(sorted_vals) - 1) * q
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return sorted_vals[lo]
    return sorted_vals[lo] * (hi - pos) + sorted_vals[hi] * (pos - lo)


def test_quartiles_eight_values():
    # oracle: sorted [1..8], q1 at rank 1.75 -> 2.75, q3 at rank 5.25 -> 6.25
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    assert _interp_rank(values, 0.25) == pytest.approx(2.75)
    assert _interp_rank(values, 0.5) == pytest.approx(4.5)
    assert _interp_rank(values, 0.75) == pytest.approx(6.25)


def test_quartiles_constant_list():
    for q in (0.25, 0.5, 0.75):
        assert _interp_rank([5.0, 5.0, 5.0, 5.0], q) == 5.0


def test_quartiles_too_few():
    # [20, 20, 20, 20, 900] has q1 == q3 == 20, so 900 breaks the 3*IQR
    # bounds; with fewer samples in the window than required, no bound test runs
    series = series_at("s", utc(2017, 9, 4), 30, [20.0] * 4 + [900.0])
    with constants(quality, MIN_WINDOW_SAMPLES=6):
        assert flag_outliers(series, 3600).tolist() == []
    with constants(quality, MIN_WINDOW_SAMPLES=5):
        flags = flag_outliers(series, 3600)
    assert flags.tolist() == [(4, FlagKind.BOUND_VIOLATION)]


@given(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=60))
def test_quartiles_permutation_invariant(values):
    rng = np.random.default_rng(0)
    shuffled = list(values)
    rng.shuffle(shuffled)
    a, b = sorted(values), sorted(shuffled)
    for q in (0.25, 0.5, 0.75):
        assert _interp_rank(a, q) == _interp_rank(b, q)


@given(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=80))
def test_quartiles_match_rank_oracle(values):
    s = sorted(values)
    for q in (0.25, 0.5, 0.75):
        assert _interp_rank(s, q) == pytest.approx(rank_percentile(s, q), rel=1e-9, abs=1e-9)


def test_availability_full_day():
    series = series_at("s1", utc(2017, 9, 4), 30, np.full(2880, 20.0))
    days, expected, observed = availability_matrix(series, 30, utc(2017, 9, 4), utc(2017, 9, 5))
    assert days.tolist() == [utc(2017, 9, 4) // 86400]
    assert expected.tolist() == [2880]
    assert observed.tolist() == [2880]


def test_availability_partial_day():
    series = series_at("s1", utc(2017, 9, 4), 30, np.full(2160, 20.0))
    _, expected, observed = availability_matrix(series, 30, utc(2017, 9, 4), utc(2017, 9, 5))
    assert expected.tolist() == [2880]
    assert observed.tolist() == [2160]


def test_availability_no_cell_before_site_start():
    # samples the day before the site start are clipped out
    series = series_at("s1", utc(2017, 9, 3), 30, np.full(2880 * 2, 20.0))
    days, _, observed = availability_matrix(series, 30, utc(2017, 9, 4), utc(2017, 9, 5))
    assert days.tolist() == [utc(2017, 9, 4) // 86400]
    assert observed.tolist() == [2880]


def test_day_counts_ignore_times_outside_the_days():
    days = np.array([10, 11, 12])
    times = [9 * 86400 + 5, 10 * 86400, 11 * 86400 - 1, 12 * 86400 + 7, 12 * 86400 + 9, 13 * 86400]
    counts = day_counts(times, days)
    assert counts.tolist() == [2, 0, 2]
    assert counts.dtype == np.int64
    assert day_counts((), days).tolist() == [0, 0, 0]


def test_outage_matches_injected_fraction():
    from schoolsense.synthgen import RoomSpec, ScenarioSpec, SiteSpec, generate
    spec = ScenarioSpec(
        seed=5, start=date(2017, 9, 4), days=30,
        sites=(SiteSpec(site_id="a", outage_fraction=0.1778,
                        rooms=(RoomSpec("r1"),)),))
    out = generate(spec)
    metas = {meta.sensor_id: meta for meta in out.catalog.sensors}
    assert {metas[sensor_id].site_id for sensor_id in out.series} == {"a"}
    start = out.catalog.site("a").start_time
    matrix = [availability_matrix(series, metas[sensor_id].sensing_rate, start, utc(2017, 10, 4))
              for sensor_id, series in out.series.items()]
    _, expected, observed = (np.concatenate(c) for c in zip(*matrix))
    outage = 100.0 * (1.0 - np.minimum(observed, expected).sum() / expected.sum())
    assert outage == pytest.approx(17.78, abs=0.01)


@settings(max_examples=200, deadline=None)
@example(rate=86401, start=0, length=86400, stamps=[])
@example(rate=600, start=43210, length=2 * 86400 + 17, stamps=[-5, 0, 43209, 43210, 3 * 86400])
@example(rate=30, start=86400, length=0, stamps=[0, 86400])
@given(
    rate=st.sampled_from((1, 7, 30, 600, 3600, 3601, 86400, 86401)),
    start=st.integers(0, 3 * 86400),
    length=st.integers(-86400, 4 * 86400),
    stamps=st.lists(st.integers(-86400, 8 * 86400), max_size=60, unique=True),
)
def test_availability_arrays_equal_the_per_day_cells(rate, start, length, stamps):
    # the site starts and the period ends anywhere, on or off a day or grid
    # boundary, or the period ends before the site starts; stamps fall before
    # the start, inside and after the end
    base = utc(2017, 9, 4)
    site = Site("a", 0.0, 0.0, base + start)
    meta = SensorMeta("s1", "a", SensorKind.INDOOR_TEMPERATURE, rate, None)
    catalog = DeploymentCatalog((site,), (meta,))
    series = TimeSeries("s1", base + np.array(sorted(stamps), dtype=np.int64),
                        np.full(len(stamps), 20.0))
    end = base + start + length
    arrays = availability_matrix(series, rate, base + start, end)
    cells = oracle_availability_matrix({"s1": series}, catalog, end)
    assert [len(a) for a in arrays] == [len(cells)] * 3
    assert list(zip(*(a.tolist() for a in arrays))) == [
        (c.day, c.expected, c.observed) for c in cells]
    assert all(a.dtype == np.int64 for a in arrays)


def test_flag_zero_error_example():
    # oracle: window [0, 20.1, 20.2, 20.3, 20.4]: q1=20.1, q3=20.3,
    # iqr=0.2 -> lower=19.5; 0.0 sits below it and is zero-implausible
    series = series_at("h", utc(2017, 9, 4), 30, [20.1, 20.3, 20.2, 20.4, 0.0])
    flags = flag_outliers(series, 3600, zero_implausible=True)
    assert flags.tolist() == [(4, FlagKind.ZERO_ERROR)]
    # even without the zero rule the quartile bounds flag it
    flags = flag_outliers(series, 3600, zero_implausible=False)
    assert flags.tolist() == [(4, FlagKind.BOUND_VIOLATION)]


def test_flag_constant_series_clean():
    series = series_at("s", utc(2017, 9, 4), 30, np.full(100, 21.0))
    assert len(flag_outliers(series, 3600)) == 0


def test_flag_small_windows_pass_unflagged():
    series = series_at("s", utc(2017, 9, 4), 30, [20.0, 900.0, 20.1])
    assert len(flag_outliers(series, 3600)) == 0


def test_flag_power_spike_recovered():
    from schoolsense.synthgen import RoomSpec, ScenarioSpec, SiteSpec, generate
    spec = ScenarioSpec(
        seed=9, start=date(2017, 9, 4), days=7,
        sites=(SiteSpec(site_id="a", spike_rate=0.01, rooms=(RoomSpec("r1"),)),))
    out = generate(spec)
    series = out.series["a-power"]
    truth_times = {t for t, kind in out.ground_truth.outliers["a-power"]}
    flags = flag_outliers(series, 3600, kind=SensorKind.POWER_PHASE)
    flagged_times = set(series.times[flags["index"]].tolist())
    assert truth_times, "scenario must inject spikes"
    recall = len(truth_times & flagged_times) / len(truth_times)
    assert recall >= 0.95


def test_zero_implausibility_rules(tiny_site):
    humid = SensorMeta("h", "alpha", SensorKind.RELATIVE_HUMIDITY, 30, "r1")
    temp = SensorMeta("t", "alpha", SensorKind.INDOOR_TEMPERATURE, 30, "r1")
    power = SensorMeta("p", "alpha", SensorKind.POWER_PHASE, 30)
    assert zero_implausible_for(humid, tiny_site)
    assert zero_implausible_for(temp, tiny_site)
    cold = Site("cold", 60.0, 25.0, 0, cold_climate=True)
    assert not zero_implausible_for(temp, cold)
    assert zero_implausible_for(humid, cold)
    assert not zero_implausible_for(power, tiny_site)


def test_replace_zero_with_window_min():
    series = series_at("h", utc(2017, 9, 4), 30, [20.1, 20.3, 20.2, 20.4, 0.0])
    flags = flag_outliers(series, 3600, zero_implausible=True)
    result = replace_outliers(series, flags["index"], 3600)
    assert result.series.values.tolist() == [20.1, 20.3, 20.2, 20.4, 20.1]
    assert result.replaced.tolist() == [int(series.times[4])]
    assert result.dropped.tolist() == []


def test_replace_high_spike_with_window_max():
    series = series_at("p", utc(2017, 9, 4), 30, [500.0, 501.0, 499.0, 502.0, 5000.0])
    flags = flag_outliers(series, 3600, kind=SensorKind.POWER_PHASE)
    assert flags["kind"].tolist() == [FlagKind.SPIKE]
    result = replace_outliers(series, flags["index"], 3600)
    assert result.series.values[-1] == 502.0


def test_replace_no_flags_identity():
    series = series_at("s", utc(2017, 9, 4), 30, [1.0, 2.0, 3.0])
    result = replace_outliers(series, [], 3600)
    assert result.series is series


def test_replace_drops_when_window_all_flagged():
    series = series_at("h", utc(2017, 9, 4), 30, [0.0, 50.0])
    flags = flag_outliers(series, 3600, zero_implausible=True)
    assert flags["index"].tolist() == [0]
    result = replace_outliers(series, flags["index"], 3600)
    assert len(result.series) == 1
    assert result.dropped.tolist() == [int(series.times[0])]


@given(st.lists(st.floats(-100, 100), min_size=8, max_size=60),
       st.sets(st.integers(0, 59), max_size=10))
def test_replacement_within_surviving_window_bounds(values, flag_idx):
    series = series_at("s", utc(2017, 9, 4), 30, values)
    flagged = [i for i in sorted(flag_idx) if i < len(values)]
    window = 5 * 60
    result = replace_outliers(series, flagged, window)
    for t in result.replaced.tolist():
        new = result.series.values[np.searchsorted(result.series.times, t)]
        lo = series.times > t - window
        hi = series.times <= t
        clean = [float(series.values[j]) for j in np.flatnonzero(lo & hi)
                 if j not in flagged]
        assert min(clean) <= new <= max(clean)


def test_moving_average_constant_identity():
    series = series_at("s", utc(2017, 9, 4), 30, np.full(50, 7.5))
    out = moving_average(series, 3600)
    assert np.allclose(out.values, 7.5)
    assert np.array_equal(out.times, series.times)


def test_moving_average_two_point_mean():
    series = series_at("s", utc(2017, 9, 4), 60, [10.0, 20.0])
    out = moving_average(series, 2 * 60)
    assert out.values.tolist() == [10.0, 15.0]


def test_moving_average_window_shorter_than_spacing():
    series = series_at("s", utc(2017, 9, 4), 600, [5.0, 9.0, 1.0])
    out = moving_average(series, 5 * 60)
    assert out.values.tolist() == [5.0, 9.0, 1.0]


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=80),
       st.integers(60, 7200))
def test_moving_average_bounded_by_extremes(values, window_s):
    series = series_at("s", utc(2017, 9, 4), 30, values)
    out = moving_average(series, window_s)
    assert np.all(out.values >= min(values) - 1e-9)
    assert np.all(out.values <= max(values) + 1e-9)


def _meta(rate=30):
    return SensorMeta("s", "a", SensorKind.INDOOR_TEMPERATURE, rate, None)


def test_fill_no_gaps_identity_on_grid():
    series = series_at("s", utc(2017, 9, 4), 30, [20.0, 20.5, 21.0, 21.5])
    result = fill_missing(series, _meta(), 10 * 60)
    assert np.array_equal(result.series.times, series.times)
    assert np.array_equal(result.series.values, series.values)
    assert len(result.filled) == len(result.unfilled) == 0


def test_fill_single_missing_slot_with_trailing_mean():
    t0 = utc(2017, 9, 4)
    series = TimeSeries("s", np.array([t0, t0 + 60]), np.array([20.0, 21.0]))
    result = fill_missing(series, _meta(30), 10 * 60)
    assert result.series.times.tolist() == [t0, t0 + 30, t0 + 60]
    assert result.series.values.tolist() == [20.0, 20.0, 21.0]
    assert result.filled.tolist() == [t0 + 30]


def test_fill_gap_longer_than_window_reported():
    t0 = utc(2017, 9, 4)
    times = np.concatenate(([t0], [t0 + 7200]))
    series = TimeSeries("s", times, np.array([20.0, 21.0]))
    result = fill_missing(series, _meta(30), 10 * 60)
    assert len(result.unfilled) > 0
    assert len(result.filled) + len(result.unfilled) == 7200 // 30 - 1


@pytest.mark.parametrize("offsets, values, grid, filled", [
    # each sample lands on the grid point at or before it, the first one too
    ([1000, 1300, 2500], [20.0, 21.0, 22.0], [600, 1200, 1800, 2400], [1800]),
    # a lone sample off the grid moves onto it
    ([1000], [20.0], [600], []),
])
def test_fill_puts_samples_off_the_grid_on_the_grid_point_before_them(offsets, values, grid,
                                                                     filled):
    t0 = utc(2017, 9, 4)
    series = TimeSeries("s", t0 + np.array(offsets), np.array(values))
    result = fill_missing(series, _meta(600), 10 * 60)
    assert (result.series.times - t0).tolist() == grid
    assert result.series.values.tolist() == sorted(values + [21.0] * len(filled))
    assert (result.filled - t0).tolist() == filled


def test_repair_pipeline_stable_on_second_pass(tiny_site):
    from schoolsense.synthgen import RoomSpec, ScenarioSpec, SiteSpec, generate
    spec = ScenarioSpec(
        seed=3, start=date(2017, 9, 4), days=7,
        sites=(SiteSpec(site_id="a", zero_error_rate=0.02,
                        rooms=(RoomSpec("r1"),)),))
    out = generate(spec)
    meta = next(m for m in out.catalog.sensors if m.sensor_id == "a-r1-temp")
    site = out.catalog.site("a")
    series = out.series["a-r1-temp"]
    flags = flag_outliers(series, ENV_WINDOW, kind=meta.kind,
                          zero_implausible=zero_implausible_for(meta, site))
    repaired = replace_outliers(series, flags["index"], REPAIR_WINDOW).series
    second = flag_outliers(repaired, ENV_WINDOW, kind=meta.kind,
                           zero_implausible=zero_implausible_for(meta, site))
    assert np.count_nonzero(second["kind"] == FlagKind.BOUND_VIOLATION) == 0


def test_repair_series_reports_all_stages(tiny_catalog, tiny_site):
    rng = np.random.default_rng(1)
    n = 2880
    values = 45.0 + rng.normal(0, 1.0, n)
    values[500] = 0.0
    keep = np.ones(n, dtype=bool)
    keep[1000:1040] = False
    times = utc(2017, 9, 4) + 30 * np.arange(n, dtype=np.int64)
    series = TimeSeries("h1", times[keep], values[keep])
    meta = next(m for m in tiny_catalog.sensors if m.sensor_id == "h1")
    outcome = repair_series(series, meta, tiny_site)
    assert np.count_nonzero(outcome.flags["kind"] == FlagKind.ZERO_ERROR) == 1
    assert len(outcome.filled) == 40
    assert len(outcome.series) == n


def test_category_outage_grouping(tiny_catalog, tmp_path, capsys):
    # on 2017-09-04 t1 sees half of its 2,880 samples, h1 all and p1 three
    # quarters: the environmental category pools t1 with h1, power holds p1
    start = utc(2017, 9, 4)
    store = SeriesStore(tmp_path / "store")
    for sensor_id, kept in (("t1", slice(None, None, 2)), ("h1", slice(None)),
                            ("p1", slice(None, 2160))):
        times = start + 30 * np.arange(2880, dtype=np.int64)[kept]
        store.save("alpha", TimeSeries(sensor_id, times, np.full(len(times), 20.0)))
    (tmp_path / "catalog.json").write_text(catalog_to_json(tiny_catalog))
    (tmp_path / "config.json").write_text(json.dumps(
        {"catalog": "catalog.json", "store": "store", "out": "out"}))
    assert main(["quality", "--config", str(tmp_path / "config.json"),
                 "--to", "2017-09-05"]) == 0, capsys.readouterr().err
    rows = [line.split(",") for line in
            (tmp_path / "out" / "kind_quality.csv").read_text().splitlines()[1:]]
    assert [(category, int(pos), int(n), float(outage), float(outlier))
            for category, pos, n, outage, outlier in rows] == [
        ("environmental", 1, 2, 25.0, 0.0),
        ("power", 1, 1, 25.0, 0.0),
    ]
