"""Per-sample loop versions of `quality`'s repair kernels, kept as test oracles.

These are the loops that `flag_outliers`, `replace_outliers` and
`fill_missing` ran before they became array code. The array kernels must
return exactly what these return: the same flags, byte-equal arrays and the
same time tuples. Only the function names differ from the loops' originals.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable

import numpy as np

from schoolsense.model import SensorKind, SensorMeta, TimeSeries, TimeWindow
from schoolsense.quality import (
    FillResult,
    FlagKind,
    OutlierFlag,
    QualityError,
    RepairResult,
    _interp_rank,
)


def oracle_flag_outliers(
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
    (t - W, t] containing it; windows holding fewer than
    `min_window_samples` samples leave the sample unflagged. Zero readings
    are always flagged where zero is implausible for the sensor kind; they
    need no window. Power sensors get a spike check: a jump away from the
    last surviving value larger than `spike_sigma` trailing standard
    deviations. At most one flag is emitted per sample (zero > spike >
    bound violation).
    """
    w = window.duration
    times = series.times
    values = series.values
    n = len(series)
    flags: list[OutlierFlag] = []
    check_spikes = kind is SensorKind.POWER_PHASE

    window_vals: list[float] = []  # sorted values of all samples in window
    in_window: list[int] = []      # indices currently inside the window
    left = 0
    # running stats over the window's surviving (non-flagged) samples
    clean_sum = 0.0
    clean_sumsq = 0.0
    clean_count = 0
    flagged = np.zeros(n, dtype=bool)
    last_clean: float | None = None

    for i in range(n):
        t = times[i]
        v = float(values[i])
        while left < i and times[left] <= t - w:
            old = float(values[left])
            del window_vals[bisect.bisect_left(window_vals, old)]
            if not flagged[left]:
                clean_sum -= old
                clean_sumsq -= old * old
                clean_count -= 1
            left += 1
        bisect.insort(window_vals, v)

        flag: FlagKind | None = None
        if zero_implausible and v == 0.0:
            flag = FlagKind.ZERO_ERROR
        elif check_spikes and clean_count >= min_window_samples and last_clean is not None:
            variance = max(0.0, clean_sumsq / clean_count - (clean_sum / clean_count) ** 2)
            if abs(v - last_clean) > spike_sigma * math.sqrt(variance):
                flag = FlagKind.SPIKE
        if flag is None and len(window_vals) >= min_window_samples:
            q1 = _interp_rank(window_vals, 0.25)
            q3 = _interp_rank(window_vals, 0.75)
            iqr = q3 - q1
            if v < q1 - 3.0 * iqr or v > q3 + 3.0 * iqr:
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


def oracle_replace_outliers(
    series: TimeSeries, flags: Iterable[OutlierFlag], window: TimeWindow
) -> RepairResult:
    """Replace each flagged sample with its window min or max.

    Replacement values come from the non-flagged samples of the trailing
    window so an outlier cannot pollute its own repair: below-median values
    become the window minimum, above-median the window maximum. A flagged
    sample whose window holds no surviving sample is dropped and recorded.
    """
    flag_list = sorted(flags, key=lambda f: f.index)
    n = len(series)
    for f in flag_list:
        if not 0 <= f.index < n:
            raise QualityError(f"flag index {f.index} outside series of length {n}")
    if not flag_list:
        return RepairResult(series, (), ())

    flagged = np.zeros(n, dtype=bool)
    for f in flag_list:
        flagged[f.index] = True

    w = window.duration
    times = series.times
    values = series.values.copy()
    clean_vals: list[float] = []  # sorted non-flagged values in window
    left = 0
    replaced = []
    dropped = []
    keep = np.ones(n, dtype=bool)

    for i in range(n):
        t = times[i]
        while left < i and times[left] <= t - w:
            if not flagged[left]:
                del clean_vals[bisect.bisect_left(clean_vals, float(series.values[left]))]
            left += 1
        if flagged[i]:
            v = float(series.values[i])
            if not clean_vals:
                keep[i] = False
                dropped.append(int(t))
                continue
            median = _interp_rank(clean_vals, 0.5)
            new = clean_vals[0] if v < median else clean_vals[-1]
            values[i] = new
            replaced.append((int(t), v, new))
        else:
            bisect.insort(clean_vals, float(series.values[i]))

    repaired = TimeSeries(series.sensor_id, times[keep], values[keep])
    return RepairResult(repaired, tuple(replaced), tuple(dropped))


def oracle_fill_missing(series: TimeSeries, meta: SensorMeta, window: TimeWindow) -> FillResult:
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
    prefix = np.concatenate(([0.0], np.cumsum(values)))
    filled = []
    unfilled = []
    for gi in missing:
        g = int(grid[gi])
        lo = int(np.searchsorted(times, g - w, side="right"))
        hi = int(np.searchsorted(times, g, side="left"))
        if hi > lo:
            grid_values[gi] = (prefix[hi] - prefix[lo]) / (hi - lo)
            filled.append(g)
        else:
            unfilled.append(g)
    present = ~np.isnan(grid_values)
    out = TimeSeries(series.sensor_id, grid[present], grid_values[present])
    return FillResult(out, tuple(filled), tuple(unfilled))
