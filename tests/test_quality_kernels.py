"""The array kernels of `quality` against the per-sample loops they replaced.

Every comparison is exact: byte-equal flag records, series and time arrays
(so the sign of a zero counts).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from schoolsense.model import SensorKind, SensorMeta, TimeSeries
from schoolsense.quality import (
    FLAG_RECORD,
    FlagKind,
    WaveletMatrix,
    _screen,
    _window_starts,
    fill_missing,
    flag_outliers,
    replace_outliers,
)

from conftest import utc
from quality_oracles import oracle_fill_missing, oracle_flag_outliers, oracle_replace_outliers

T0 = utc(2017, 9, 4)
# a few values, so windows hold ties, and both zeros
TIED_VALUES = (0.0, -0.0, 1.0, 2.0, 2.5, -3.0, 20.0, 20.0, 1000.0)
# zeros of both signs as the window minimum, so a repair must pick the right one
SIGNED_ZEROS = (0.0, -0.0, 0.0, 5.0, 6.0, 40.0)

short_steps = st.one_of(
    st.sampled_from((1, 30, 60, 60, 60, 300)),
    st.integers(1, 4000),
    st.sampled_from((3600, 7200)),  # outage gaps
)
steps = st.one_of(short_steps, st.just(90000))
values = st.one_of(st.sampled_from(TIED_VALUES), st.floats(-1e3, 1e3))
palettes = st.sampled_from((values, st.sampled_from(SIGNED_ZEROS)))


@st.composite
def series(draw, min_size=0, max_size=150, value=None, step=steps):
    gaps = draw(st.lists(step, min_size=min_size, max_size=max_size))
    times = T0 + np.cumsum(np.array([0, *gaps], dtype=np.int64))[:len(gaps)]
    value = draw(palettes) if value is None else value
    vals = draw(st.lists(value, min_size=len(gaps), max_size=len(gaps)))
    return TimeSeries("s", times, np.array(vals, dtype=np.float64))


@st.composite
def power_series(draw):
    """Power readings near a base load with injected jumps and zeros."""
    base = draw(series(min_size=1, value=st.sampled_from((500.0, 501.0, 499.0, 500.5)),
                       step=st.sampled_from((30, 60, 60, 60, 120, 4000))))
    vals = base.values.copy()
    jumps = draw(st.lists(st.integers(0, len(vals) - 1), max_size=8))
    for i in jumps:
        vals[i] = draw(st.sampled_from((5000.0, 0.0, -0.0, 50.0, 20000.0)))
    return base.replace_values(vals)


windows = st.one_of(st.integers(1, 20000), st.sampled_from((3600, 86400)))
FLAG_OPTIONS = dict(
    kind=st.sampled_from((None, *SensorKind)),
    zero_implausible=st.booleans(),
    spike_sigma=st.sampled_from((0.5, 2.0, 5.0)),
    min_window_samples=st.integers(1, 8),
)


def _assert_same(got: np.ndarray, want: np.ndarray):
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _assert_same_flags(series, window, **options):
    _assert_same(flag_outliers(series, window, **options),
                 oracle_flag_outliers(series, window, **options))


def _assert_same_repair(got, want):
    _assert_same(got.series.times, want.series.times)
    _assert_same(got.series.values, want.series.values)
    _assert_same(got.replaced, want.replaced)
    _assert_same(got.dropped, want.dropped)


def _minute_series(values):
    return TimeSeries("s", T0 + 60 * np.arange(len(values)), np.array(values))


@settings(deadline=None, max_examples=150)
@given(series(), windows, st.fixed_dictionaries(FLAG_OPTIONS))
# 12-sample windows that differ enough within a screen block that bounds
# taken from the wrong one of its two ranges would clear the flagged sample 12
@example(_minute_series([-50.0, -10.0, -10.0, 50.0, -10.0, 1.0, 1.0, 50.0, -10.0, -50.0, -10.0,
                         1.0, -50.0, 50.0]), 720,
         dict(kind=None, zero_implausible=False, spike_sigma=5.0, min_window_samples=4))
def test_flag_outliers_matches_loop(s, window, options):
    _assert_same_flags(s, window, **options)


@settings(deadline=None, max_examples=100)
@given(power_series(), windows, st.booleans(), st.sampled_from((0.5, 2.0, 5.0)),
       st.integers(1, 6))
def test_flag_outliers_power_spikes_match_loop(s, window, zero_implausible, sigma, min_samples):
    _assert_same_flags(s, window, kind=SensorKind.POWER_PHASE, zero_implausible=zero_implausible,
                       spike_sigma=sigma, min_window_samples=min_samples)


def test_flag_outliers_matches_loop_on_day_windows():
    # 24 h windows of 1,440 samples at 60 s, with outages, ties and zeros
    rng = np.random.default_rng(7)
    times = T0 + 60 * np.flatnonzero(rng.random(4 * 1440) > 0.2)
    vals = np.round(20.0 + 3.0 * np.sin(times / 9000.0) + rng.normal(0, 0.3, len(times)), 1)
    vals[rng.integers(0, len(vals), 40)] = 0.0
    vals[rng.integers(0, len(vals), 10)] = 90.0
    s = TimeSeries("s", times, vals)
    seen = set()
    for kind in (SensorKind.INDOOR_TEMPERATURE, SensorKind.POWER_PHASE):
        got = flag_outliers(s, 24 * 3600, kind=kind, zero_implausible=True)
        _assert_same(got, oracle_flag_outliers(s, 24 * 3600, kind=kind, zero_implausible=True))
        seen |= set(got["kind"].tolist())
    assert seen == set(FlagKind)


@st.composite
def flagged_series(draw):
    s = draw(series(min_size=1))
    index = st.integers(0, len(s) - 1)
    return s, draw(st.lists(index, max_size=len(s) + 3))


@settings(deadline=None, max_examples=100)
@given(flagged_series(), windows)
# the window minimum, then the maximum, is a zero of either sign
@example((_minute_series([-0.0, 0.0, 5.0, 6.0, 7.0, 0.0]), [5]), 3600)
@example((_minute_series([-0.0, 0.0, -3.0, -4.0, -5.0, 9.0]), [5]), 3600)
def test_replace_outliers_matches_loop(case, window):
    s, flags = case
    _assert_same_repair(replace_outliers(s, flags, window),
                        oracle_replace_outliers(s, flags, window))


@settings(deadline=None, max_examples=75)
@given(series(), windows, st.fixed_dictionaries(FLAG_OPTIONS))
def test_replace_outliers_of_flagged_series_matches_loop(s, window, options):
    flagged = flag_outliers(s, window, **options)["index"]
    _assert_same_repair(replace_outliers(s, flagged, 3600),
                        oracle_replace_outliers(s, flagged, 3600))


@settings(deadline=None, max_examples=100)
@given(series(max_size=80, step=short_steps),
       windows, st.sampled_from((7, 30, 60, 300, 600)))
def test_fill_missing_matches_loop(s, window, rate):
    meta = SensorMeta("s", "a", SensorKind.INDOOR_TEMPERATURE, rate)
    got = fill_missing(s, meta, window)
    want = oracle_fill_missing(s, meta, window)
    _assert_same(got.series.times, want.series.times)
    _assert_same(got.series.values, want.series.values)
    _assert_same(got.filled, want.filled)
    _assert_same(got.unfilled, want.unfilled)


def test_kth_smallest_returns_earliest_position_of_tied_minima():
    # 1.0 three times, and zeros of both signs, which compare equal
    values = np.array([3.0, 1.0, 2.0, 1.0, 1.0, 0.0, -0.0, 0.0, 5.0])
    lo = np.array([0, 2, 4, 5, 6, 0, 8])
    hi = np.array([5, 5, 5, 8, 8, 9, 9])
    got = WaveletMatrix(values).kth_smallest(lo, hi, np.zeros(len(lo), dtype=np.int64))
    assert got.tolist() == [1, 3, 4, 5, 6, 5, 8]
    assert got.tolist() == [a + int(np.argmin(values[a:b])) for a, b in zip(lo, hi)]


@st.composite
def ranges(draw, n):
    lo = draw(st.integers(0, n - 1))
    return lo, draw(st.integers(lo + 1, n))


@settings(deadline=None, max_examples=150)
@given(st.data(), st.lists(st.one_of(st.sampled_from(TIED_VALUES), st.floats(allow_nan=False)),
                           min_size=1, max_size=70))
def test_kth_smallest_matches_stable_argsort_for_every_rank(data, vals):
    values = np.array(vals, dtype=np.float64)
    pairs = data.draw(st.lists(ranges(len(values)), min_size=1, max_size=8))
    lo = np.array([a for a, b in pairs for _ in range(b - a)])
    hi = np.array([b for a, b in pairs for _ in range(b - a)])
    k = np.concatenate([np.arange(b - a) for a, b in pairs])
    want = [a + int(np.argsort(values[a:b], kind="stable")[r]) for a, b, r in zip(lo, hi, k)]
    assert WaveletMatrix(values).kth_smallest(lo, hi, k).tolist() == want


def _cleared_share(s, window, min_window_samples=4):
    """Share of the tested samples that the bound test's screen clears."""
    starts = _window_starts(s.times, s.times, window)
    ends = np.arange(1, len(s) + 1)
    tested = np.flatnonzero(ends - starts >= min_window_samples)
    cleared = _screen(s.values, WaveletMatrix(s.values), starts[tested], ends[tested])
    return cleared.mean()


@settings(deadline=None, max_examples=12)
@given(st.integers(0, 2**32 - 1), st.sampled_from((0.0, 0.2, 0.5)), st.sampled_from((1, 2)),
       st.integers(0, 30))
def test_flag_outliers_matches_loop_where_the_screen_clears(seed, outage, digits, outliers):
    # 60 s readings under 24 h windows: most windows hold over a thousand samples
    rng = np.random.default_rng(seed)
    times = T0 + 60 * np.flatnonzero(rng.random(2 * 1440) >= outage)
    vals = np.round(20.0 + 3.0 * np.sin(times / 9000.0) + rng.normal(0, 0.3, len(times)), digits)
    vals[rng.integers(0, len(vals), outliers)] = rng.choice((0.0, -40.0, 90.0, 1e6), outliers)
    s = TimeSeries("s", times, vals)
    window = 24 * 3600
    assert _cleared_share(s, window) > 0.5
    for kind in (SensorKind.INDOOR_TEMPERATURE, SensorKind.POWER_PHASE):
        _assert_same_flags(s, window, kind=kind)


MAX = 1.7976931348623157e308
# magnitudes at the ends of float64 range, among ordinary readings
EDGE_VALUES = (1e200, MAX, -MAX, 5e-324, 0.0, -0.0)


def _edge_example(head, tail):
    # every window starts at the first sample, so the windows' ranks grow together
    return _minute_series([*head, *tail]), 24 * 3600


@settings(deadline=None, max_examples=150)
@given(st.tuples(series(max_size=120, value=st.one_of(st.sampled_from(EDGE_VALUES),
                                                      st.floats(15.0, 25.0))), windows),
       st.integers(1, 8))
# a quartile between -MAX and 1e307 overflows to inf and flags the sample,
# while the screen's bounds for that block stay finite
@example(_edge_example([-MAX] * 26 + [1e307] * 20, [2e307] * 61), 4)
# 4 * H1 overflows
@example(_edge_example([1e308] * 30, [1.2e308] * 40 + [-1e308]), 4)
# subnormal readings only: the margin underflows to 0
@example(_edge_example([5e-324, 0.0, -0.0] * 10, [1e-323] * 20 + [-5e-324] * 5), 4)
def test_flag_outliers_matches_loop_at_edge_magnitudes(case, min_window_samples):
    s, window = case
    _assert_same_flags(s, window, min_window_samples=min_window_samples)


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 8), st.sampled_from((1, 60, 600)), st.integers(0, 80), palettes, st.data())
def test_flag_outliers_matches_loop_on_windows_of_min_samples(m, step, n, value, data):
    # a regular series whose every window (t - m*step, t] holds exactly m samples
    vals = data.draw(st.lists(value, min_size=n, max_size=n))
    s = TimeSeries("s", T0 + step * np.arange(n, dtype=np.int64), np.array(vals, dtype=np.float64))
    _assert_same_flags(s, m * step, min_window_samples=m)


@pytest.mark.parametrize("probe", [-53.6, 75.2])
def test_bound_flags_a_sample_one_rounding_past_the_screen(probe):
    # quartiles 1.6 and 20.0: the screen's 4*1.6 - 3*20.0 rounds to -53.6 and
    # 4*20.0 - 3*1.6 to 75.2, but q1 - 3*IQR and q3 + 3*IQR round to values
    # just inside those, so the probe is flagged; only the screen's margin
    # keeps it from being cleared
    s = _minute_series([1.6, 20.0] * 20 + [probe])
    want = np.array([(40, FlagKind.BOUND_VIOLATION)], dtype=FLAG_RECORD)
    _assert_same(flag_outliers(s, 24 * 3600), want)
    _assert_same(oracle_flag_outliers(s, 24 * 3600), want)
