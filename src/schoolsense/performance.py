"""Weekend thermal-performance analysis.

Rooms are examined on weekends, when no school activity disturbs the
envelope signal. Three detectors, each given one room's series:

  * poor insulation: repeated large daily temperature swings.
    `weekend_daily_swings` gives every weekend day's swing, and
    `poor_insulation_days` the days that swing by `POOR_SWING_C`, or none
    when fewer than `POOR_MIN_DAYS` do;
  * unshaded solar gain: hourly temperature rise correlating with a
    clear-sky solar proxy, (1 - cloud cover) * an orientation-dependent
    daylight template. `solar_gain_correlation` gives the Pearson r, and
    `CorrelationReport.unshaded` whether it reaches `UNSHADED_MIN_R`;
  * occupant events: sharp indoor drops (window openings) that recover,
    examined on school days where occupants cause them.
    `detect_occupant_events` gives each event's trough time and fall.

Every room is judged by the same rules, so each threshold and window is a
constant of this module, read when a detector runs. The results carry no
room or site: `cli.cmd_perf` alone names, orders and writes the findings.
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


SWING_MIN_SAMPLES = 12  # samples a weekend day needs for its swing
POOR_SWING_C = 8.0      # a poorly insulated room swings at least this much, degC,
POOR_MIN_DAYS = 2       # on at least this many weekend days
SOLAR_MIN_HOURS = 24    # daylight (proxy, rise) hours a solar-gain correlation needs
# a room is unshaded when its solar-gain correlation reaches this r
UNSHADED_MIN_R = 0.5
# an occupant event falls by EVENT_DROP_C within EVENT_WITHIN_S, stays below
# half depth for two samples within EVENT_SUSTAIN_S of the trough, and
# recovers EVENT_RECOVERY_FRACTION of the fall within EVENT_RECOVERY_S of it
EVENT_DROP_C = 2.0
EVENT_WITHIN_S = 30 * 60
EVENT_SUSTAIN_S = 10 * 60
EVENT_RECOVERY_FRACTION = 0.5
EVENT_RECOVERY_S = 120 * 60


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


def weekend_daily_swings(series: TimeSeries, site: Site) -> SwingReport:
    """One DailySwing per weekend day of the site's clock with at least
    `SWING_MIN_SAMPLES` samples."""
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
        if hi - lo < SWING_MIN_SAMPLES:
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


def poor_insulation_days(report: SwingReport) -> tuple[DailySwing, ...]:
    """The days whose swing reaches `POOR_SWING_C`, or none when fewer than
    `POOR_MIN_DAYS` do."""
    hits = tuple(s for s in report.swings if s.swing >= POOR_SWING_C)
    return hits if len(hits) >= POOR_MIN_DAYS else ()


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
) -> CorrelationReport:
    """Pearson correlation of hourly indoor rise against the solar proxy.

    Hourly means are taken on local weekend hours; each consecutive pair of
    populated hours yields one (proxy, rise) point, the proxy being
    (1 - cloud cover) * orientation_gain for the later hour. Only daylight
    hours (nonzero template) enter: sun-driven heating is only identifiable
    while the facade can see the sun, and night hours would otherwise pair
    a constant-zero proxy with nightly cooling. Fewer than `SOLAR_MIN_HOURS`
    points leave the correlation undefined.
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

    if len(proxies) < SOLAR_MIN_HOURS:
        raise CorrelationUndefined(
            f"only {len(proxies)} overlapping hours, need {SOLAR_MIN_HOURS}")
    if float(np.std(proxies)) == 0.0 or float(np.std(rises)) == 0.0:
        raise CorrelationUndefined("zero-variance input, correlation undefined")
    r = float(np.corrcoef(proxies, rises)[0, 1])
    return CorrelationReport(r=r, hours=len(proxies), last_day=int(hours[-1] // 24))


class OccupantEvent(NamedTuple):
    time: int  # epoch seconds of the trough
    fall: float


def detect_occupant_events(series: TimeSeries) -> list[OccupantEvent]:
    """Sharp drop-and-recover events, the signature of an opened window.

    An event is a fall of at least `EVENT_DROP_C` degC within `EVENT_WITHIN_S`
    that recovers at least `EVENT_RECOVERY_FRACTION` of the fall within
    `EVENT_RECOVERY_S` of the trough; slow weather-front declines fail the
    first test, persistent cooling fails the second. The drop must also be
    sustained: at least two samples within `EVENT_SUSTAIN_S` of the trough
    sit below half depth, so a single repaired or glitched sample cannot
    masquerade as an opened window.

    Candidate troughs, the earliest minimum of every window [t, t +
    `EVENT_WITHIN_S`] with at least two samples, come from the order
    statistic shared with `quality`'s bound test (`orderstat.WaveletMatrix`,
    k = 0). A window of at most `orderstat.BUCKET` samples, 30 min of
    readings at 60 s or slower, sorts its own ranks and builds no level of
    the matrix.
    Only starts that fall by `EVENT_DROP_C` are checked further, in time order;
    the search resumes after each event's recovery.
    """
    times = series.times
    values = series.values
    n = len(series)
    if n < 2:
        return []
    ends = np.searchsorted(times, times + EVENT_WITHIN_S, side="right")
    starts = np.flatnonzero(ends - np.arange(n) >= 2)
    troughs = WaveletMatrix(values).kth_smallest(starts, ends[starts],
                                                np.zeros(len(starts), dtype=np.int64))
    falls = values[starts] - values[troughs]
    steep = falls >= EVENT_DROP_C
    events: list[OccupantEvent] = []
    next_start = 0
    for i, j, fall in zip(starts[steep].tolist(), troughs[steep].tolist(),
                          falls[steep].tolist()):
        if i < next_start:  # inside the last event, before its recovery
            continue
        lo = int(np.searchsorted(times, times[j] - EVENT_SUSTAIN_S, side="left"))
        hi = int(np.searchsorted(times, times[j] + EVENT_SUSTAIN_S, side="right"))
        half_depth = values[i] - 0.5 * fall
        sustained = int(np.sum(values[lo:hi] <= half_depth)) >= 2
        k_end = int(np.searchsorted(times, times[j] + EVENT_RECOVERY_S, side="right"))
        target = values[j] + EVENT_RECOVERY_FRACTION * fall
        recovered = np.flatnonzero(values[j:k_end] >= target)
        if sustained and len(recovered):
            events.append(OccupantEvent(time=int(times[j]), fall=fall))
            next_start = j + int(recovered[0]) + 1
    return events
