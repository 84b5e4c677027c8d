"""Per-sample loop versions of `quality`'s repair kernels, kept as test oracles.

These are the loops that `flag_outliers`, `replace_outliers` and
`fill_missing` ran before they became array code, and `_interp_rank`, the
scalar quantile rule that `quality._interp` computes in arrays. The array
kernels must return exactly what these return: byte-equal flag records,
series and time arrays. The loops are the originals; only the function
names differ, and their inputs and outputs have the kernels' types: windows
in seconds, flags as `FLAG_RECORD` records, flagged samples as indices and
times as int64 arrays.

`oracle_availability_matrix` is the per-sensor-day loop that
`availability_matrix` ran before it returned per-day arrays: one
`AvailabilityCell` per sensor and UTC day, whose counts the arrays must
equal day by day.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from schoolsense.model import (
    DAY_SECONDS,
    DeploymentCatalog,
    SensorKind,
    SensorMeta,
    TimeSeries,
    slice_series,
    to_epoch,
)
from schoolsense.quality import (
    FLAG_RECORD,
    FillResult,
    FlagKind,
    QualityError,
    RepairResult,
)


def _interp_rank(sorted_vals: list[float], q: float) -> float:
    """Quantile q of a sorted list, linear interpolation between ranks."""
    pos = (len(sorted_vals) - 1) * q
    lo = int(pos)
    frac = pos - lo
    if frac == 0.0:
        return sorted_vals[lo]
    return sorted_vals[lo] + frac * (sorted_vals[lo + 1] - sorted_vals[lo])


def oracle_flag_outliers(
    series: TimeSeries,
    window: int,
    *,
    kind: SensorKind | None = None,
    zero_implausible: bool = False,
    spike_sigma: float = 5.0,
    min_window_samples: int = 4,
) -> np.ndarray:
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
    w = window
    times = series.times
    values = series.values
    n = len(series)
    flags: list[tuple[int, FlagKind]] = []
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
            flags.append((i, flag))
        else:
            clean_sum += v
            clean_sumsq += v * v
            clean_count += 1
            last_clean = v
    return np.array(flags, dtype=FLAG_RECORD)


def oracle_replace_outliers(
    series: TimeSeries, flags: Iterable[int], window: int
) -> RepairResult:
    """Replace each flagged sample with its window min or max.

    Replacement values come from the non-flagged samples of the trailing
    window so an outlier cannot pollute its own repair: below-median values
    become the window minimum, above-median the window maximum. A flagged
    sample whose window holds no surviving sample is dropped and recorded.
    """
    flag_list = sorted(int(f) for f in flags)
    n = len(series)
    for f in flag_list:
        if not 0 <= f < n:
            raise QualityError(f"flag index {f} outside series of length {n}")
    if not flag_list:
        return RepairResult(series, np.empty(0, np.int64), np.empty(0, np.int64))

    flagged = np.zeros(n, dtype=bool)
    for f in flag_list:
        flagged[f] = True

    w = window
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
            replaced.append(int(t))
        else:
            bisect.insort(clean_vals, float(series.values[i]))

    repaired = TimeSeries(series.sensor_id, times[keep], values[keep])
    return RepairResult(repaired, np.array(replaced, dtype=np.int64),
                        np.array(dropped, dtype=np.int64))


def oracle_fill_missing(series: TimeSeries, meta: SensorMeta, window: int) -> FillResult:
    """Align a series to its expected sampling grid and impute gaps.

    The grid runs at the sensor's sensing rate, anchored at epoch multiples
    of the rate, from the grid point at or before the first sample to the
    one at or before the last. Each sample lands on the grid point at or
    before it, and of several the last wins. Each missing grid point is
    filled with the mean of the observed samples in its trailing window
    (g - W, g); grid points with an empty window stay
    absent and are reported.
    """
    rate = meta.sensing_rate
    if len(series) == 0:
        return FillResult(series, np.empty(0, np.int64), np.empty(0, np.int64))
    w = window
    times = series.times
    values = series.values
    grid_first = int(times[0]) // rate
    grid = np.arange(grid_first, int(times[-1]) // rate + 1, dtype=np.int64) * rate

    grid_values = np.full(len(grid), np.nan)
    for t, v in zip(times.tolist(), values.tolist()):
        grid_values[t // rate - grid_first] = v  # later samples overwrite earlier

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
    return FillResult(out, np.array(filled, dtype=np.int64), np.array(unfilled, dtype=np.int64))


@dataclass(frozen=True)
class AvailabilityCell:
    """Expected vs observed sample counts for one sensor on one UTC day."""

    sensor_id: str
    day: int  # days since epoch, UTC
    expected: int
    observed: int

    @property
    def fraction(self) -> float:
        if self.expected <= 0:
            return 1.0
        return min(1.0, self.observed / self.expected)


def _grid_count(start: int, end: int, rate: int) -> int:
    """Number of grid points k*rate in [start, end)."""
    if end <= start:
        return 0
    first = -(-start // rate)
    last = -(-end // rate) - 1
    return max(0, last - first + 1)


def oracle_availability_matrix(
    series: Mapping[str, TimeSeries],
    catalog: DeploymentCatalog,
    end,
) -> list[AvailabilityCell]:
    """One cell per sensor per UTC day from its site's start to `end`.

    Expected counts come from the sensor's sensing rate on a grid anchored at
    epoch-multiples of the rate, pro-rated on the first and last day.
    """
    end_epoch = to_epoch(end)
    metas = {meta.sensor_id: meta for meta in catalog.sensors}
    cells: list[AvailabilityCell] = []
    for sensor_id in sorted(series):
        meta = metas[sensor_id]
        site = catalog.site(meta.site_id)
        if end_epoch <= site.start_time:
            continue
        clipped = slice_series(series[sensor_id], site.start_time, end_epoch)
        first_day = site.start_time // DAY_SECONDS
        last_day = (end_epoch - 1) // DAY_SECONDS
        n_days = last_day - first_day + 1
        observed = np.zeros(n_days, dtype=np.int64)
        if len(clipped):
            np.add.at(observed, (clipped.times // DAY_SECONDS) - first_day, 1)
        for i in range(n_days):
            day = first_day + i
            window_start = max(site.start_time, day * DAY_SECONDS)
            window_end = min(end_epoch, (day + 1) * DAY_SECONDS)
            expected = _grid_count(window_start, window_end, meta.sensing_rate)
            cells.append(AvailabilityCell(sensor_id, int(day), expected, int(observed[i])))
    return cells
