"""Weekend thermal-performance analysis.

Rooms are examined on weekends, when no school activity disturbs the
envelope signal. Three detectors, each given one room's series:

  * poor insulation: repeated large daily temperature swings.
    `weekend_daily_swings` gives every weekend day's swing, and
    `poor_insulation_days` the days that reach the threshold, or none when
    too few do;
  * unshaded solar gain: hourly temperature rise correlating with a
    clear-sky solar proxy, (1 - cloud cover) * an orientation-dependent
    daylight template. `solar_gain_correlation` gives the Pearson r, and
    `CorrelationReport.unshaded` whether it reaches `UNSHADED_MIN_R`;
  * occupant events: sharp indoor drops (window openings) that recover,
    examined on school days where occupants cause them.
    `detect_occupant_events` gives each event's trough time and fall.

The results carry no room or site: `cli.cmd_perf` alone names, orders and
writes the findings.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .ingest import WeatherHistory
from .model import (
    DAY_SECONDS,
    Orientation,
    Site,
    TimeSeries,
    is_weekend,
    orientation_gain,
)
from .orderstat import WaveletMatrix


# a room is unshaded when its solar-gain correlation reaches this r
UNSHADED_MIN_R = 0.5


class CorrelationUndefined(ValueError):
    """Zero-variance regressor or too few overlapping hours."""


class DailySwing(NamedTuple):
    """Temperature range of one room on one local day."""

    day: int  # days since epoch, local calendar
    min_t: float
    max_t: float
    swing: float
    rise_hours: float  # time from the daily minimum to the daily maximum


class SwingReport(NamedTuple):
    swings: tuple[DailySwing, ...]
    skipped_days: tuple[int, ...]  # weekend days with too few samples


def weekend_daily_swings(
    series: TimeSeries,
    site: Site,
    *,
    min_samples: int = 12,
) -> SwingReport:
    """One DailySwing per weekend day of the site's clock with enough samples."""
    local = site.local(series.times)
    weekend = is_weekend(local)
    local, weekend_values = local[weekend], series.values[weekend]
    if len(local) == 0:
        return SwingReport((), ())
    local_days = local // DAY_SECONDS
    bounds = [0, *(np.flatnonzero(np.diff(local_days)) + 1).tolist(), len(local_days)]
    swings = []
    skipped = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        day = int(local_days[lo])
        if hi - lo < min_samples:
            skipped.append(day)
            continue
        values = weekend_values[lo:hi]
        times = local[lo:hi]
        i_min = int(np.argmin(values))
        i_max = int(np.argmax(values))
        rise = (int(times[i_max]) - int(times[i_min])) / 3600.0
        swings.append(DailySwing(
            day=day,
            min_t=float(values[i_min]),
            max_t=float(values[i_max]),
            swing=float(values[i_max] - values[i_min]),
            rise_hours=max(0.0, rise),
        ))
    return SwingReport(tuple(swings), tuple(skipped))


def poor_insulation_days(
    report: SwingReport, threshold: float = 8.0, min_days: int = 2
) -> tuple[DailySwing, ...]:
    """The days whose swing reaches the threshold, or none when fewer than `min_days` do."""
    hits = tuple(s for s in report.swings if s.swing >= threshold)
    return hits if len(hits) >= min_days else ()


class CorrelationReport(NamedTuple):
    r: float
    hours: int
    last_day: int

    @property
    def unshaded(self) -> bool:
        return self.r >= UNSHADED_MIN_R


def solar_gain_correlation(
    series: TimeSeries,
    weather: WeatherHistory,
    orientation: Orientation,
    site: Site,
    *,
    min_hours: int = 24,
) -> CorrelationReport:
    """Pearson correlation of hourly indoor rise against the solar proxy.

    Hourly means are taken on local weekend hours; each consecutive pair of
    populated hours yields one (proxy, rise) point, the proxy being
    (1 - cloud cover) * orientation_gain for the later hour. Only daylight
    hours (nonzero template) enter: sun-driven heating is only identifiable
    while the facade can see the sun, and night hours would otherwise pair
    a constant-zero proxy with nightly cooling.
    """
    local = site.local(series.times)
    weekend = is_weekend(local)
    if not weekend.any():
        raise CorrelationUndefined("no weekend samples")

    hours, inverse = np.unique(local[weekend] // 3600, return_inverse=True)
    means = np.bincount(inverse, weights=series.values[weekend]) / np.bincount(inverse)
    gains = orientation_gain((hours % 24) + 0.5, orientation)

    # each hour pairs with the hour before it; only daylight hours enter
    later = np.flatnonzero((np.diff(hours) == 1) & (gains[1:] > 0.0)) + 1
    at, recorded = weather.rows_at(site.utc(hours[later] * 3600))
    later, at = later[recorded], at[recorded]
    proxies = (1.0 - weather.cloud_cover[at]) * gains[later]
    rises = means[later] - means[later - 1]

    if len(proxies) < min_hours:
        raise CorrelationUndefined(
            f"only {len(proxies)} overlapping hours, need {min_hours}")
    if float(np.std(proxies)) == 0.0 or float(np.std(rises)) == 0.0:
        raise CorrelationUndefined("zero-variance input, correlation undefined")
    r = float(np.corrcoef(proxies, rises)[0, 1])
    return CorrelationReport(r=r, hours=len(proxies), last_day=int(hours[-1] // 24))


class OccupantEvent(NamedTuple):
    time: int  # epoch seconds of the trough
    fall: float


def detect_occupant_events(
    series: TimeSeries,
    drop: float = 2.0,
    within_minutes: float = 30.0,
    *,
    recovery_fraction: float = 0.5,
    recovery_minutes: float = 120.0,
    sustain_minutes: float = 10.0,
) -> list[OccupantEvent]:
    """Sharp drop-and-recover events, the signature of an opened window.

    An event is a fall of at least `drop` degC within `within_minutes`
    that recovers at least `recovery_fraction` of the fall within
    `recovery_minutes` of the trough; slow weather-front declines fail the
    first test, persistent cooling fails the second. The drop must also be
    sustained: at least two samples within `sustain_minutes` of the trough
    sit below half depth, so a single repaired or glitched sample cannot
    masquerade as an opened window.

    Candidate troughs, the earliest minimum of every window [t, t +
    `within_minutes`] with at least two samples, come from the order
    statistic shared with `quality`'s bound test (`orderstat.WaveletMatrix`,
    k = 0). A window of at most `orderstat.BUCKET` samples, 30 min of
    readings at 60 s or slower, sorts its own ranks and builds no level of
    the matrix.
    Only starts that fall by `drop` are checked further, in time order;
    the search resumes after each event's recovery.
    """
    times = series.times
    values = series.values
    n = len(series)
    if n < 2:
        return []
    within_s = int(within_minutes * 60)
    recovery_s = int(recovery_minutes * 60)
    sustain_s = int(sustain_minutes * 60)
    ends = np.searchsorted(times, times + within_s, side="right")
    starts = np.flatnonzero(ends - np.arange(n) >= 2)
    troughs = WaveletMatrix(values).kth_smallest(starts, ends[starts],
                                                np.zeros(len(starts), dtype=np.int64))
    falls = values[starts] - values[troughs]
    steep = falls >= drop
    events: list[OccupantEvent] = []
    next_start = 0
    for i, j, fall in zip(starts[steep].tolist(), troughs[steep].tolist(),
                          falls[steep].tolist()):
        if i < next_start:  # inside the last event, before its recovery
            continue
        lo = int(np.searchsorted(times, times[j] - sustain_s, side="left"))
        hi = int(np.searchsorted(times, times[j] + sustain_s, side="right"))
        half_depth = values[i] - 0.5 * fall
        sustained = int(np.sum(values[lo:hi] <= half_depth)) >= 2
        k_end = int(np.searchsorted(times, times[j] + recovery_s, side="right"))
        target = values[j] + recovery_fraction * fall
        recovered = np.flatnonzero(values[j:k_end] >= target)
        if sustained and len(recovered):
            events.append(OccupantEvent(time=int(times[j]), fall=fall))
            next_start = j + int(recovered[0]) + 1
    return events
