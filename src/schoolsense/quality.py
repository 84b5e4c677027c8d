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
never change them and the bound test runs over a whole series at once.
Zero readings are flagged for sensor kinds where zero is physically
implausible, and power sensors are additionally screened for transient
spikes; that screen measures each jump against the samples that survived
before it, so it alone runs sample by sample. Flagged samples are replaced
by the window minimum or maximum of the surviving (non-flagged) samples.
Repair order is fixed: flag, replace, fill, smooth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

import numpy as np

from .model import (
    DAY_SECONDS,
    DeploymentCatalog,
    SensorKind,
    SensorMeta,
    Site,
    TimeSeries,
    TimeWindow,
    slice_series,
)


class QualityError(ValueError):
    """Invalid input to a quality operation."""


# Outlier detection needs a day of distributional context, but repair and
# imputation must source values locally: a midday sample replaced or filled
# from a 24 h window lands near the overnight minimum and carves an
# artificial dip into the series.
ENV_WINDOW = TimeWindow.hours(24)
POWER_WINDOW = TimeWindow.hours(1)
REPAIR_WINDOW = TimeWindow.hours(1)
FILL_WINDOW = TimeWindow.hours(2)
SMOOTH_WINDOW = TimeWindow.minutes(5)


def day_counts(times, days: np.ndarray) -> np.ndarray:
    """How many of `times` fall on each of the consecutive UTC `days`; times
    on other days are not counted."""
    offsets = np.asarray(times, dtype=np.int64) // DAY_SECONDS - days[0]
    return np.bincount(offsets[(offsets >= 0) & (offsets < len(days))], minlength=len(days))


def availability_matrix(
    series: Mapping[str, TimeSeries],
    catalog: DeploymentCatalog,
    end: int,
) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per sensor, in id order, the UTC days from its site's start to `end`
    with the samples expected and observed on each; a sensor whose site
    starts at or after `end` has no entry."""
    matrix = {}
    for sensor_id in sorted(series):
        meta = catalog.sensor(sensor_id)
        start = catalog.site(meta.site_id).start_time
        if end <= start:
            continue
        days = np.arange(start // DAY_SECONDS, (end - 1) // DAY_SECONDS + 1)
        lo = np.maximum(days * DAY_SECONDS, start)
        hi = np.minimum((days + 1) * DAY_SECONDS, end)
        rate = meta.sensing_rate
        expected = (lo // -rate) - (hi // -rate)  # ceil(hi/rate) - ceil(lo/rate)
        observed = day_counts(slice_series(series[sensor_id], start, end).times, days)
        matrix[sensor_id] = (days, expected, observed)
    return matrix


def outage_percentage(expected: np.ndarray, observed: np.ndarray) -> float:
    """100 * (1 - observed/expected) over all the given days, with each
    day's observed count capped at its expected count."""
    total = int(expected.sum())
    if total == 0:
        raise QualityError("no expected samples in group")
    return 100.0 * (1.0 - int(np.minimum(observed, expected).sum()) / total)


class FlagKind(Enum):
    ZERO_ERROR = "zero_error"
    SPIKE = "spike"
    BOUND_VIOLATION = "bound_violation"


@dataclass(frozen=True)
class OutlierFlag:
    index: int
    kind: FlagKind


def zero_implausible_for(meta: SensorMeta, site: Site) -> bool:
    """Whether a 0 reading from this sensor can only be a sensor error."""
    if meta.kind is SensorKind.RELATIVE_HUMIDITY:
        return True
    if meta.kind is SensorKind.INDOOR_TEMPERATURE:
        return not site.cold_climate
    return False


def _interp_rank(sorted_vals: list[float], q: float) -> float:
    """Quantile q of a sorted list, linear interpolation between ranks."""
    pos = (len(sorted_vals) - 1) * q
    lo = int(pos)
    frac = pos - lo
    if frac == 0.0:
        return sorted_vals[lo]
    return sorted_vals[lo] + frac * (sorted_vals[lo + 1] - sorted_vals[lo])


def _window_starts(times: np.ndarray, at: np.ndarray, w: int) -> np.ndarray:
    """For each t in `at`, the index of the first sample of `times` after t - w."""
    return np.searchsorted(times, at - w, side="right")


def _kth_smallest(values: np.ndarray, lo: np.ndarray, hi: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Position of the k-th smallest (0-based) of values[lo:hi] for every
    query (lo, hi, k).

    A wavelet matrix over the values' ranks answers all queries together,
    one vector step per bit of the rank, most significant first. At each
    level the samples are stably split by that bit, zeros first; a query
    whose k lies past the zeros of its range takes the ones. Ranks follow a
    stable sort, so of equal values the earlier position ranks first: with
    k = 0 a tie resolves to the earliest position, as `np.argmin` does.
    """
    n = len(values)
    order = np.argsort(values, kind="stable")
    level = np.empty(n, dtype=np.int64)
    level[order] = np.arange(n)
    k = k.copy()
    rank = np.zeros(len(k), dtype=np.int64)
    # moves[i] is where boundary i of a level lands on the next level:
    # moves[i, 0] for a query that follows the zeros, moves[i, 1] the ones
    moves = np.zeros((n + 1, 2), dtype=np.int64)
    land = moves.ravel()  # land[2*i + bit] == moves[i, bit]
    boundary = np.arange(n + 1)
    lo, hi = 2 * lo, 2 * hi
    for bit in reversed(range((n - 1).bit_length())):
        ones = ((level >> bit) & 1).astype(bool)
        np.cumsum(~ones, out=moves[1:, 0])
        np.subtract(boundary + moves[-1, 0], moves[:, 0], out=moves[:, 1])
        zeros_lo = land.take(lo)
        zeros = land.take(hi) - zeros_lo
        up = k >= zeros
        k -= zeros * up
        rank |= up.astype(np.int64) << bit
        lo = 2 * land.take(lo + up)
        hi = 2 * land.take(hi + up)
        level = level.take(np.argsort(ones, kind="stable"))
    return order[rank]


def _interp(a: np.ndarray, b: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """`_interp_rank`'s arithmetic between order statistics a <= b."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(frac == 0.0, a, a + frac * (b - a))


def _bound_violations(values: np.ndarray, starts: np.ndarray, min_window_samples: int) -> np.ndarray:
    """Mask of samples outside [Q1 - 3*IQR, Q3 + 3*IQR] of values[starts[i]:i + 1].

    The quartiles are those `_interp_rank` gives for every sample of the
    window; windows of fewer than `min_window_samples` samples are not tested.
    """
    ends = np.arange(1, len(values) + 1)
    tested = np.flatnonzero(ends - starts >= min_window_samples)
    lo, hi = starts[tested], ends[tested]
    last = hi - lo - 1
    pos1, pos3 = last * 0.25, last * 0.75
    r1, r3 = pos1.astype(np.int64), pos3.astype(np.int64)
    ranks = np.concatenate((r1, np.minimum(r1 + 1, last), r3, np.minimum(r3 + 1, last)))
    at = _kth_smallest(values, np.tile(lo, 4), np.tile(hi, 4), ranks)
    a1, b1, a3, b3 = np.split(values[at], 4)
    q1 = _interp(a1, b1, pos1 - r1)
    q3 = _interp(a3, b3, pos3 - r3)
    v = values[tested]
    with np.errstate(over="ignore", invalid="ignore"):
        iqr = q3 - q1
        outside = (v < q1 - 3.0 * iqr) | (v > q3 + 3.0 * iqr)
    mask = np.zeros(len(values), dtype=bool)
    mask[tested[outside]] = True
    return mask


def flag_outliers(
    series: TimeSeries,
    window: TimeWindow,
    *,
    kind: SensorKind | None = None,
    zero_implausible: bool = False,
    spike_sigma: float = 5.0,
    min_window_samples: int = 4,
) -> list[OutlierFlag]:
    """Flag outliers per sample against its trailing time window.

    A sample is evaluated against the quartile bounds of the window
    (t - W, t] containing it. The quartiles come from all samples in the
    window, flagged or not, so flags never change them and the bound test
    runs over the whole series at once; windows holding fewer than
    `min_window_samples` samples leave the sample unflagged. Zero readings
    are always flagged where zero is implausible for the sensor kind; they
    need no window. Power sensors get a spike check: a jump away from the
    last surviving value larger than `spike_sigma` standard deviations of
    the window's surviving (non-flagged) samples. That check depends on
    earlier flags and is the only sequential one. At most one flag is
    emitted per sample (zero > spike > bound violation).
    """
    values = series.values
    n = len(series)
    if n == 0:
        return []
    starts = _window_starts(series.times, series.times, window.duration)
    zero = values == 0.0 if zero_implausible else np.zeros(n, dtype=bool)
    bound = _bound_violations(values, starts, min_window_samples)
    if kind is not SensorKind.POWER_PHASE:
        flagged = np.flatnonzero(zero | bound).tolist()
        return [OutlierFlag(i, FlagKind.ZERO_ERROR if zero[i] else FlagKind.BOUND_VIOLATION)
                for i in flagged]
    return _flag_with_spikes(values.tolist(), starts.tolist(), zero.tolist(), bound.tolist(),
                             spike_sigma, min_window_samples)


def _flag_with_spikes(
    values: list[float],
    starts: list[int],
    zero: list[bool],
    bound: list[bool],
    spike_sigma: float,
    min_window_samples: int,
) -> list[OutlierFlag]:
    """Sample by sample: zero and bound flags as given, spikes against the
    running mean and variance of the window's surviving samples."""
    flags: list[OutlierFlag] = []
    flagged = [False] * len(values)
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
        flag: FlagKind | None = None
        if zero[i]:
            flag = FlagKind.ZERO_ERROR
        elif clean_count >= min_window_samples and last_clean is not None:
            try:
                variance = max(0.0, clean_sumsq / clean_count - (clean_sum / clean_count) ** 2)
            except OverflowError:  # a mean beyond 1e154: no finite scale, so no spike
                variance = math.inf
            if abs(v - last_clean) > spike_sigma * math.sqrt(variance):
                flag = FlagKind.SPIKE
        if flag is None and bound[i]:
            flag = FlagKind.BOUND_VIOLATION
        if flag is not None:
            flagged[i] = True
            flags.append(OutlierFlag(i, flag))
        else:
            clean_sum += v
            clean_sumsq += v * v
            clean_count += 1
            last_clean = v
    return flags


@dataclass(frozen=True)
class RepairResult:
    series: TimeSeries
    replaced: tuple[tuple[int, float, float], ...]  # (time, old value, new value)
    dropped: tuple[int, ...]  # times whose window held no surviving sample


def replace_outliers(
    series: TimeSeries, flags: Iterable[OutlierFlag], window: TimeWindow
) -> RepairResult:
    """Replace each flagged sample with its window min or max.

    Replacement values come from the non-flagged samples of the trailing
    window so an outlier cannot pollute its own repair: below-median values
    become the window minimum, above-median the window maximum. A flagged
    sample whose window holds no surviving sample is dropped and recorded.
    """
    flagged_at = sorted({f.index for f in flags})
    n = len(series)
    for i in flagged_at:
        if not 0 <= i < n:
            raise QualityError(f"flag index {i} outside series of length {n}")
    if not flagged_at:
        return RepairResult(series, (), ())

    index = np.array(flagged_at, dtype=np.int64)
    flagged = np.zeros(n, dtype=bool)
    flagged[index] = True
    times = series.times
    starts = _window_starts(times, times[index], window.duration)
    values = series.values.copy()
    keep = np.ones(n, dtype=bool)
    replaced = []
    dropped = []
    for i, start in zip(index.tolist(), starts.tolist()):
        t = int(times[i])
        v = float(series.values[i])
        # stable: of equal values (0.0 and -0.0) the earliest is the minimum
        # and the latest the maximum
        clean_vals = np.sort(series.values[start:i][~flagged[start:i]], kind="stable").tolist()
        if not clean_vals:
            keep[i] = False
            dropped.append(t)
            continue
        median = _interp_rank(clean_vals, 0.5)
        new = clean_vals[0] if v < median else clean_vals[-1]
        values[i] = new
        replaced.append((t, v, new))

    repaired = TimeSeries(series.sensor_id, times[keep], values[keep])
    return RepairResult(repaired, tuple(replaced), tuple(dropped))


def moving_average(series: TimeSeries, window: TimeWindow) -> TimeSeries:
    """Each value becomes the mean of the trailing window (t - W, t]."""
    if len(series) == 0:
        return series
    w = window.duration
    times = series.times
    starts = _window_starts(times, times, w)
    prefix = np.concatenate(([0.0], np.cumsum(series.values)))
    idx = np.arange(1, len(series) + 1)
    means = (prefix[idx] - prefix[starts]) / (idx - starts)
    return series.replace_values(means)


@dataclass(frozen=True)
class FillResult:
    series: TimeSeries
    filled: tuple[int, ...]    # grid times that were imputed
    unfilled: tuple[int, ...]  # grid times left absent (empty window)


def fill_missing(series: TimeSeries, meta: SensorMeta, window: TimeWindow) -> FillResult:
    """Align a series to its expected sampling grid and impute gaps.

    The grid runs at the sensor's sensing rate, anchored at epoch multiples
    of the rate, spanning the observed extent of the series. Each missing
    grid point is filled with the mean of the observed samples in its
    trailing window (g - W, g); grid points with an empty window stay
    absent and are reported.
    """
    rate = meta.sensing_rate
    if len(series) == 0:
        return FillResult(series, (), ())
    w = window.duration
    times = series.times
    values = series.values
    grid_first = -(-int(times[0]) // rate)
    grid_last = int(times[-1]) // rate
    if grid_last < grid_first:
        return FillResult(series, (), ())
    grid = np.arange(grid_first, grid_last + 1, dtype=np.int64) * rate

    # bucket observed samples onto the grid; the last sample in a bucket wins
    bucket = times // rate
    keep_mask = (bucket >= grid_first) & (bucket <= grid_last)
    bucket_idx = (bucket[keep_mask] - grid_first).astype(np.int64)
    grid_values = np.full(len(grid), np.nan)
    grid_values[bucket_idx] = values[keep_mask]  # later samples overwrite earlier

    missing = np.flatnonzero(np.isnan(grid_values))
    gaps = grid[missing]
    prefix = np.concatenate(([0.0], np.cumsum(values)))
    lo = _window_starts(times, gaps, w)
    hi = np.searchsorted(times, gaps, side="left")
    found = hi > lo
    lo, hi = lo[found], hi[found]
    grid_values[missing[found]] = (prefix[hi] - prefix[lo]) / (hi - lo)
    present = ~np.isnan(grid_values)
    out = TimeSeries(series.sensor_id, grid[present], grid_values[present])
    return FillResult(out, tuple(gaps[found].tolist()), tuple(gaps[~found].tolist()))


@dataclass(frozen=True)
class RepairedSeries:
    """Outcome of the flag -> replace -> fill -> smooth pipeline."""

    series: TimeSeries  # final (smoothed) series
    flags: tuple[OutlierFlag, ...]
    replaced: tuple[tuple[int, float, float], ...]
    dropped: tuple[int, ...]
    filled: tuple[int, ...]
    unfilled: tuple[int, ...]


def repair_series(series: TimeSeries, meta: SensorMeta, site: Site) -> RepairedSeries:
    """Run the full repair pipeline for one sensor series."""
    window = POWER_WINDOW if meta.kind is SensorKind.POWER_PHASE else ENV_WINDOW
    flags = flag_outliers(
        series,
        window,
        kind=meta.kind,
        zero_implausible=zero_implausible_for(meta, site),
    )
    repair = replace_outliers(series, flags, REPAIR_WINDOW)
    fill = fill_missing(repair.series, meta, FILL_WINDOW)
    smoothed = moving_average(fill.series, SMOOTH_WINDOW)
    return RepairedSeries(
        series=smoothed,
        flags=tuple(flags),
        replaced=repair.replaced,
        dropped=repair.dropped,
        filled=fill.filled,
        unfilled=fill.unfilled,
    )
