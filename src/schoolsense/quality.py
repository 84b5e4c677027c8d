"""Data-quality pipeline: availability accounting, windowed IQR outlier
detection and repair, moving-window smoothing and gap filling.

Availability is counted per sensor and UTC day, from its site's start to
the end of the period. A day expects the grid points k*rate of the sensor's
sensing rate that lie in it, so the first and last day are pro-rated to the
part inside the period; it observes the samples stamped in that part. A
group's outage sums both over its sensors' days, with each day's observed
count capped at its expected count. A group that expects no sample in the
period gets no row in the group reports.

Outlier bounds follow the interquartile-range rule: values outside
[Q1 - 3*IQR, Q3 + 3*IQR] of their trailing time window are flagged. The
quartiles come from all samples in the window, flagged or not, so flags
never change them and the bound test runs over a whole series at once,
with `orderstat.WaveletMatrix`. Most samples never need their exact
quartiles: a screen over blocks of consecutive samples bounds every window
of a block between two ranges, the windows' common part and their union,
takes certain bounds on their quartiles from the edges of the quartiles'
buckets of `orderstat.BUCKET` ranks, and clears the samples that lie
inside the resulting bounds by more than a rounding margin. Only the
samples it cannot clear get their four exact order statistics, so the
screen changes how much is computed, never a flag (`_bound_violations`
gives the argument). A series whose windows all hold at most a bucket,
such as 1 h of 600 s power readings, skips the screen: each exact query
sorts its window's ranks directly, and the matrix builds no level.
Zero readings are flagged for sensor kinds where zero is physically
implausible, and power sensors are additionally checked for transient
spikes, sample by sample: each jump is measured against the samples that
survived before it. Each test yields a mask, and the flags of every sensor
kind are composed once from them, into one array of (index, kind) records.
Flagged samples are replaced by the window minimum or maximum of the
surviving (non-flagged) samples, with every window sorted in one pass.
Repair order is fixed: flag, replace, fill, smooth. Every window is a
duration in seconds, and each stage hands the next arrays: the flag
records, and the times replaced, dropped, filled or left unfilled.
"""

from __future__ import annotations

import math
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from .model import (
    DAY_SECONDS,
    QualityError,
    SensorKind,
    SensorMeta,
    Site,
    TimeSeries,
)
from .orderstat import BUCKET, CHUNK, WaveletMatrix


# Outlier detection needs a day of distributional context, but repair and
# imputation must source values locally: a midday sample replaced or filled
# from a 24 h window lands near the overnight minimum and carves an
# artificial dip into the series. Windows are in seconds.
ENV_WINDOW = 24 * 3600
POWER_WINDOW = 3600
REPAIR_WINDOW = 3600
FILL_WINDOW = 2 * 3600
SMOOTH_WINDOW = 5 * 60
# A sample is tested against its window's quartile bounds only when the window
# holds at least this many samples; a power reading is a spike when it jumps
# more than SPIKE_SIGMA standard deviations of its window's survivors.
MIN_WINDOW_SAMPLES = 4
SPIKE_SIGMA = 5.0


def day_counts(times, days: np.ndarray) -> np.ndarray:
    """How many of `times` fall on each of the consecutive UTC `days`; times
    on other days are not counted."""
    offsets = np.asarray(times, dtype=np.int64) // DAY_SECONDS - (days[0] if len(days) else 0)
    return np.bincount(offsets[(offsets >= 0) & (offsets < len(days))], minlength=len(days))


def availability_matrix(
    series: TimeSeries, rate: int, start: int, end: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The UTC days of [start, end) for one sensor sampled every `rate`
    seconds, with the samples expected and observed in each day's part of the
    period; samples outside it are not counted. All three int64 arrays are
    empty when `end <= start`."""
    first = start // DAY_SECONDS
    days = np.arange(first, (end - 1) // DAY_SECONDS + 1 if end > start else first)
    lo = np.maximum(days * DAY_SECONDS, start)
    hi = np.minimum((days + 1) * DAY_SECONDS, end)
    expected = (lo // -rate) - (hi // -rate)  # ceil(hi/rate) - ceil(lo/rate)
    observed = np.searchsorted(series.times, hi) - np.searchsorted(series.times, lo)
    return days, expected, observed


class FlagKind(IntEnum):
    """A flag's kind code, in priority order: the first that holds is given."""

    ZERO_ERROR = 0
    SPIKE = 1
    BOUND_VIOLATION = 2


# One flag: the flagged sample's index and its FlagKind code.
FLAG_RECORD = np.dtype([("index", np.int64), ("kind", np.int8)])


def zero_implausible_for(meta: SensorMeta, site: Site) -> bool:
    """Whether a 0 reading from this sensor can only be a sensor error."""
    if meta.kind is SensorKind.RELATIVE_HUMIDITY:
        return True
    if meta.kind is SensorKind.INDOOR_TEMPERATURE:
        return not site.cold_climate
    return False


def _window_starts(times: np.ndarray, at: np.ndarray, w: int) -> np.ndarray:
    """For each t in `at`, the index of the first sample of `times` after t - w."""
    return np.searchsorted(times, at - w, side="right")


def _interp(a: np.ndarray, b: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """The quantile at rank r + frac of m sorted values, from their r-th and
    (r + 1)-th smallest a <= b: quantile q has rank (m - 1) * q, and between
    ranks it interpolates linearly."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(frac == 0.0, a, a + frac * (b - a))


# Tested samples screened together: of 2, 4, 8 and 16, 8 was fastest over
# the three bench workloads' stores.
SCREEN_BLOCK = 8
# The screen's margin per unit of max|values|. Rounding moves the exact
# path's bounds and the screen's together by less than 40 eps * max|values|.
SCREEN_MARGIN = 64 * np.finfo(np.float64).eps


def _screen(values: np.ndarray, matrix: WaveletMatrix, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Mask of the tested samples values[hi - 1] that the block bounds of
    `_bound_violations` certainly keep inside their windows' bounds."""
    n = len(lo)
    scale = float(np.max(np.abs(values), initial=0.0))
    # the exact path may overflow, or sorts every window's own ranks: screen nothing
    if not math.isfinite(8.0 * scale) or not (hi - lo > BUCKET).any():
        return np.zeros(n, dtype=bool)
    first = np.arange(0, n, SCREEN_BLOCK)
    final = np.minimum(first + SCREEN_BLOCK, n) - 1
    last = hi - lo - 1
    rank1 = np.maximum.reduceat(np.minimum((last * 0.25).astype(np.int64) + 1, last), first)
    rank3 = np.minimum.reduceat((last * 0.75).astype(np.int64), first)
    bounded = np.flatnonzero(rank1 < hi[first] - lo[final])
    least, greatest = matrix.bucket_edges(np.concatenate((lo[first[bounded]], lo[final[bounded]])),
                                          np.concatenate((hi[final[bounded]], hi[first[bounded]])),
                                          np.concatenate((rank3[bounded], rank1[bounded])))
    l3, h1 = values[least[:len(bounded)]], values[greatest[len(bounded):]]
    margin = SCREEN_MARGIN * scale
    below = np.full(len(first), np.inf)  # a block without H1 clears nothing
    above = np.full(len(first), -np.inf)
    below[bounded] = 4.0 * h1 - 3.0 * l3 + margin
    above[bounded] = 4.0 * l3 - 3.0 * h1 - margin
    v = values[hi - 1]
    return ((v >= np.repeat(below, SCREEN_BLOCK)[:n])
            & (v <= np.repeat(above, SCREEN_BLOCK)[:n]))


def _bound_violations(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Mask of samples outside [Q1 - 3*IQR, Q3 + 3*IQR] of values[starts[i]:i + 1].

    The quartiles are those `_interp` gives for every sample of the
    window; windows of fewer than `MIN_WINDOW_SAMPLES` samples are not tested.

    A screen clears most tested samples first; only the rest get the four
    exact order statistics a1 <= q1 <= b1 and a3 <= q3 <= b3 of their
    window W. The screen takes the tested samples in blocks of
    `SCREEN_BLOCK`. Window starts and ends never decrease, so every W of a
    block contains I, from the last sample's start to the first sample's
    end, and lies within U, from the first sample's start to the last
    sample's end. A k-th smallest can only fall as its range grows or its
    k shrinks. So L3, the block's least r3-th smallest of U, is at most
    every a3, and H1, its greatest (r1 + 1)-th smallest of I, is at least
    every b1; a block whose I is too short for that rank clears nothing.
    The screen does not find L3 and H1 themselves but the edges of their
    `BUCKET`-rank buckets (`WaveletMatrix.bucket_edges`): L3' <= L3, the
    value of the smallest rank in L3's bucket, and H1' >= H1, that of the
    largest rank in H1's. In exact arithmetic, a sample between
    4*H1' - 3*L3' and 4*L3' - 3*H1' is then inside its bounds
    q1 - 3*(q3 - q1) and q3 + 3*(q3 - q1). The screen narrows that interval
    by `SCREEN_MARGIN` * max|values|, more than the rounding of both
    computations can move them, so the exact path would not flag a cleared
    sample either. A series reaching an eighth of the float64 range is not
    screened: there the exact path may overflow, and an infinite quartile
    can flag a sample. Nor is a series whose windows all hold at most
    `BUCKET` samples: each of its exact queries sorts its window's own
    ranks, which costs less than the screen's walk and builds no table.
    The exact queries run `CHUNK` samples at a time, so their arrays do
    not grow with the series.
    """
    ends = np.arange(1, len(values) + 1)
    tested = np.flatnonzero(ends - starts >= MIN_WINDOW_SAMPLES)
    matrix = WaveletMatrix(values)
    candidates = tested[~_screen(values, matrix, starts[tested], ends[tested])]
    mask = np.zeros(len(values), dtype=bool)
    for first in range(0, len(candidates), CHUNK):
        at = candidates[first:first + CHUNK]
        lo, hi = starts[at], ends[at]
        last = hi - lo - 1
        pos1, pos3 = last * 0.25, last * 0.75
        r1, r3 = pos1.astype(np.int64), pos3.astype(np.int64)
        ranks = np.stack((r1, np.minimum(r1 + 1, last), r3, np.minimum(r3 + 1, last)), axis=1)
        a1, b1, a3, b3 = values[matrix.kth_smallest(lo, hi, ranks)].T
        q1 = _interp(a1, b1, pos1 - r1)
        q3 = _interp(a3, b3, pos3 - r3)
        v = values[at]
        with np.errstate(over="ignore", invalid="ignore"):
            iqr = q3 - q1
            outside = (v < q1 - 3.0 * iqr) | (v > q3 + 3.0 * iqr)
        mask[at[outside]] = True
    return mask


def flag_outliers(
    series: TimeSeries,
    window: int,
    *,
    kind: SensorKind | None = None,
    zero_implausible: bool = False,
) -> np.ndarray:
    """Flag outliers per sample against its trailing window of `window` seconds.

    Three masks cover the whole series: zero readings where zero is
    implausible for the sensor kind; bound violations, samples outside the
    quartile bounds of their window (t - W, t], whose quartiles come from all
    its samples, flagged or not (a sample whose window holds fewer than
    `MIN_WINDOW_SAMPLES` is not tested); and, for power sensors, the spikes of
    `_spikes`. The flags are composed once, at most one per sample (zero >
    spike > bound violation), and returned as `FLAG_RECORD` records in sample
    order: one (index, kind) record per flagged sample.
    """
    values = series.values
    n = len(series)
    starts = _window_starts(series.times, series.times, window)
    zero = values == 0.0 if zero_implausible else np.zeros(n, dtype=bool)
    bound = _bound_violations(values, starts)
    spike = (_spikes(values.tolist(), starts.tolist(), (zero | bound).tolist())
             if kind is SensorKind.POWER_PHASE else np.zeros(n, dtype=bool))
    first = np.select([zero, spike, bound], list(FlagKind), -1)  # the first mask, in that order
    flagged = np.flatnonzero(first >= 0)
    flags = np.empty(len(flagged), dtype=FLAG_RECORD)
    flags["index"], flags["kind"] = flagged, first[flagged]
    return flags


def _spikes(values: list[float], starts: list[int], flagged: list[bool]) -> np.ndarray:
    """Mask of jumps away from the last surviving value larger than
    `SPIKE_SIGMA` standard deviations of the window's surviving samples:
    those neither `flagged` (zero or bound) nor spikes. The loop keeps the
    window's running sums and yields only spikes, neither flags nor their
    priority. A window of fewer than `MIN_WINDOW_SAMPLES` survivors holds no
    spike."""
    spike = [False] * len(values)
    left = 0
    clean_sum = 0.0
    clean_sumsq = 0.0
    clean_count = 0
    last_clean: float | None = None
    for i, v in enumerate(values):
        while left < starts[i]:
            if not flagged[left]:
                old = values[left]
                clean_sum -= old
                clean_sumsq -= old * old
                clean_count -= 1
            left += 1
        if clean_sum != clean_sum or clean_sumsq != clean_sumsq:  # inf - inf: rebuild
            kept = [values[j] for j in range(left, i) if not flagged[j]]
            clean_sum, clean_sumsq = sum(kept, 0.0), sum(x * x for x in kept)
        if clean_count >= MIN_WINDOW_SAMPLES and last_clean is not None:
            try:
                variance = max(0.0, clean_sumsq / clean_count - (clean_sum / clean_count) ** 2)
            except OverflowError:  # a mean beyond 1e154: no finite scale, so no spike
                variance = math.inf
            if abs(v - last_clean) > SPIKE_SIGMA * math.sqrt(variance):
                spike[i] = flagged[i] = True
        if not flagged[i]:
            clean_sum += v
            clean_sumsq += v * v
            clean_count += 1
            last_clean = v
    return np.array(spike, dtype=bool)


class RepairResult(NamedTuple):
    series: TimeSeries
    replaced: np.ndarray  # times whose value was replaced
    dropped: np.ndarray  # times whose window held no surviving sample


def replace_outliers(series: TimeSeries, flagged, window: int) -> RepairResult:
    """Replace each flagged sample with the min or max of its trailing window.

    `flagged` holds sample indices, in any order and possibly repeated.
    Replacement values come from the non-flagged samples of the window
    (t - W, t) of `window` seconds, so an outlier cannot pollute its own
    repair: below-median values become the window minimum, above-median the
    window maximum. A flagged sample whose window holds no surviving sample
    is dropped. All windows are sorted at once, one row each, padded with
    +inf.
    """
    n = len(series)
    flagged = np.asarray(flagged, dtype=np.int64)
    outside = flagged[(flagged < 0) | (flagged >= n)]
    if len(outside):
        raise QualityError(f"flag index {outside.min()} outside series of length {n}")
    if not len(flagged):
        return RepairResult(series, flagged, flagged)

    mask = np.zeros(n, dtype=bool)
    mask[flagged] = True
    index = np.flatnonzero(mask)
    times = series.times
    starts = _window_starts(times, times[index], window)
    before = np.concatenate(([0], np.cumsum(~mask)))  # survivors before each sample
    lo = before[starts]
    count = before[index] - lo
    # each window's surviving samples in a row, padded with +inf and sorted;
    # stably, so of equal values (0.0 and -0.0) the earliest comes first. The
    # rows have a column even where every window is empty.
    offsets = np.arange(max(count.max(), 1))
    inside = offsets < count[:, None]
    rows = np.full(inside.shape, np.inf)
    rows[inside] = series.values[~mask][(lo[:, None] + offsets)[inside]]
    rows = np.sort(rows, axis=1, kind="stable")
    kept = count > 0
    rows, last = rows[kept], count[kept] - 1
    pos = last * 0.5
    mid = pos.astype(np.int64)
    row = np.arange(len(rows))
    median = _interp(rows[row, mid], rows[row, np.minimum(mid + 1, last)], pos - mid)
    at = index[kept]
    values = series.values.copy()
    values[at] = np.where(values[at] < median, rows[:, 0], rows[row, last])
    keep = np.ones(n, dtype=bool)
    keep[index[~kept]] = False
    repaired = TimeSeries(series.sensor_id, times[keep], values[keep])
    return RepairResult(repaired, times[at], times[index[~kept]])


def moving_average(series: TimeSeries, window: int) -> TimeSeries:
    """Each value becomes the mean of the trailing window (t - W, t] of
    `window` seconds."""
    if len(series) == 0:
        return series
    times = series.times
    starts = _window_starts(times, times, window)
    prefix = np.concatenate(([0.0], np.cumsum(series.values)))
    idx = np.arange(1, len(series) + 1)
    means = (prefix[idx] - prefix[starts]) / (idx - starts)
    return series.replace_values(means)


class FillResult(NamedTuple):
    series: TimeSeries
    filled: np.ndarray    # grid times that were imputed
    unfilled: np.ndarray  # grid times left absent (empty window)


def fill_missing(series: TimeSeries, meta: SensorMeta, window: int) -> FillResult:
    """Align a series to its expected sampling grid and impute gaps.

    The grid runs at the sensor's sensing rate, anchored at epoch multiples
    of the rate, from the grid point at or before the first sample to the
    one at or before the last. Each sample lands on the grid point at or
    before it, and of several the last wins. Each missing grid point is
    filled with the mean of the observed samples in its trailing window
    (g - W, g) of `window` seconds; grid points with an empty window stay
    absent and are reported.
    """
    rate = meta.sensing_rate
    none = np.empty(0, dtype=np.int64)
    if len(series) == 0:
        return FillResult(series, none, none)
    times = series.times
    values = series.values
    grid_first = int(times[0]) // rate
    grid = np.arange(grid_first, int(times[-1]) // rate + 1, dtype=np.int64) * rate

    grid_values = np.full(len(grid), np.nan)
    grid_values[times // rate - grid_first] = values  # later samples overwrite earlier

    missing = np.flatnonzero(np.isnan(grid_values))
    gaps = grid[missing]
    prefix = np.concatenate(([0.0], np.cumsum(values)))
    lo = _window_starts(times, gaps, window)
    hi = np.searchsorted(times, gaps, side="left")
    found = hi > lo
    lo, hi = lo[found], hi[found]
    grid_values[missing[found]] = (prefix[hi] - prefix[lo]) / (hi - lo)
    present = ~np.isnan(grid_values)
    out = TimeSeries(series.sensor_id, grid[present], grid_values[present])
    return FillResult(out, gaps[found], gaps[~found])


class RepairedSeries(NamedTuple):
    """Outcome of the flag -> replace -> fill -> smooth pipeline: the final
    (smoothed) series, the `FLAG_RECORD` records of `flag_outliers` on the
    input series, and the grid times that were imputed."""

    series: TimeSeries
    flags: np.ndarray
    filled: np.ndarray


def repair_series(series: TimeSeries, meta: SensorMeta, site: Site) -> RepairedSeries:
    """Run the full repair pipeline for one sensor series."""
    window = POWER_WINDOW if meta.kind is SensorKind.POWER_PHASE else ENV_WINDOW
    flags = flag_outliers(
        series,
        window,
        kind=meta.kind,
        zero_implausible=zero_implausible_for(meta, site),
    )
    repair = replace_outliers(series, flags["index"], REPAIR_WINDOW)
    fill = fill_missing(repair.series, meta, FILL_WINDOW)
    smoothed = moving_average(fill.series, SMOOTH_WINDOW)
    return RepairedSeries(smoothed, flags, fill.filled)
