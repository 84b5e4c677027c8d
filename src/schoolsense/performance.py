"""Weekend thermal-performance analysis.

Rooms are examined on weekends, when no school activity disturbs the
envelope signal. Three detectors:

  * poor insulation: repeated large daily temperature swings;
  * unshaded solar gain: hourly temperature rise correlating with a
    clear-sky solar proxy, (1 - cloud cover) * an orientation-dependent
    daylight template;
  * occupant events: sharp indoor drops (window openings) that recover,
    examined on school days where occupants cause them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .ingest import WeatherHistory
from .model import (
    DAY_SECONDS,
    Orientation,
    TimeSeries,
    filter_weekends,
)
from .quality import _kth_smallest


class PerformanceError(ValueError):
    pass


class CorrelationUndefined(PerformanceError):
    """Zero-variance regressor or too few overlapping hours."""


# Half-sine daylight template: 12 h of nonzero gain centred on the peak hour.
# Peaks shift with facade orientation (solar noon for S, +2 h for SW, -2 h
# for SE); north-ish facades see little direct sun.
ORIENTATION_TEMPLATE: dict[Orientation, tuple[float, float]] = {
    Orientation.E: (8.0, 1.0),
    Orientation.SE: (10.0, 1.0),
    Orientation.S: (12.0, 1.0),
    Orientation.SW: (14.0, 1.0),
    Orientation.W: (16.0, 1.0),
    Orientation.NE: (7.0, 0.3),
    Orientation.NW: (17.0, 0.3),
    Orientation.N: (12.0, 0.0),
}


def orientation_gain(hour_of_day: np.ndarray, orientation: Orientation) -> np.ndarray:
    """Relative daylight gain for a facade at local hours of day (fractional)."""
    peak, amplitude = ORIENTATION_TEMPLATE[orientation]
    phase = (hour_of_day - (peak - 6.0)) / 12.0
    inside = (phase >= 0.0) & (phase <= 1.0)
    return np.where(inside, amplitude * np.sin(np.pi * np.clip(phase, 0.0, 1.0)), 0.0)


@dataclass(frozen=True)
class DailySwing:
    """Temperature range of one room on one local day."""

    room_id: str
    day: int  # days since epoch, local calendar
    min_t: float
    max_t: float
    swing: float
    rise_hours: float  # time from the daily minimum to the daily maximum


@dataclass(frozen=True)
class SwingReport:
    swings: tuple[DailySwing, ...]
    skipped_days: tuple[int, ...]  # weekend days with too few samples


def weekend_daily_swings(
    series: TimeSeries,
    tz_offset_minutes: int = 0,
    *,
    room_id: str | None = None,
    min_samples: int = 12,
) -> SwingReport:
    """One DailySwing per weekend day with enough samples."""
    rid = room_id if room_id is not None else series.sensor_id
    weekend = filter_weekends(series, tz_offset_minutes)
    if len(weekend) == 0:
        return SwingReport((), ())
    local_days = (weekend.times + tz_offset_minutes * 60) // DAY_SECONDS
    bounds = [0, *(np.flatnonzero(np.diff(local_days)) + 1).tolist(), len(local_days)]
    swings = []
    skipped = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        day = int(local_days[lo])
        if hi - lo < min_samples:
            skipped.append(day)
            continue
        values = weekend.values[lo:hi]
        times = weekend.times[lo:hi]
        i_min = int(np.argmin(values))
        i_max = int(np.argmax(values))
        rise = (int(times[i_max]) - int(times[i_min])) / 3600.0
        swings.append(DailySwing(
            room_id=rid,
            day=day,
            min_t=float(values[i_min]),
            max_t=float(values[i_max]),
            swing=float(values[i_max] - values[i_min]),
            rise_hours=max(0.0, rise),
        ))
    return SwingReport(tuple(swings), tuple(skipped))


class AnomalyKind(Enum):
    POOR_INSULATION = "poor_insulation"
    UNSHADED_SOLAR_GAIN = "unshaded_solar_gain"
    OCCUPANT_EVENT = "occupant_event"


@dataclass(frozen=True)
class EvidenceItem:
    day: int  # days since epoch
    value: float


@dataclass(frozen=True)
class AnomalyReport:
    room_id: str
    kind: AnomalyKind
    evidence: tuple[EvidenceItem, ...]

    def __post_init__(self):
        if not self.evidence:
            raise PerformanceError("anomaly report requires dated evidence")


def flag_poor_insulation(
    report: SwingReport, threshold: float = 8.0, min_days: int = 2
) -> AnomalyReport | None:
    """Report a room whose weekend swing repeatedly reaches the threshold."""
    items = report.swings
    hits = [s for s in items if s.swing >= threshold]
    if len(hits) < min_days or not items:
        return None
    return AnomalyReport(
        room_id=items[0].room_id,
        kind=AnomalyKind.POOR_INSULATION,
        evidence=tuple(EvidenceItem(s.day, s.swing) for s in hits),
    )


@dataclass(frozen=True)
class CorrelationReport:
    room_id: str
    orientation: Orientation
    r: float
    hours: int
    last_day: int


def solar_gain_correlation(
    series: TimeSeries,
    weather: WeatherHistory,
    orientation: Orientation,
    tz_offset_minutes: int = 0,
    *,
    room_id: str | None = None,
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
    rid = room_id if room_id is not None else series.sensor_id
    weekend = filter_weekends(series, tz_offset_minutes)
    if len(weekend) == 0:
        raise CorrelationUndefined(f"{rid}: no weekend samples")

    offset = tz_offset_minutes * 60
    local_hours = (weekend.times + offset) // 3600
    hours, inverse = np.unique(local_hours, return_inverse=True)
    sums = np.zeros(len(hours))
    counts = np.zeros(len(hours))
    np.add.at(sums, inverse, weekend.values)
    np.add.at(counts, inverse, 1)
    means = sums / counts
    gains = orientation_gain((hours % 24) + 0.5, orientation)

    # each hour pairs with the hour before it; only daylight hours enter
    later = np.flatnonzero((np.diff(hours) == 1) & (gains[1:] > 0.0)) + 1
    at, recorded = weather.rows_at(hours[later] * 3600 - offset)
    later, at = later[recorded], at[recorded]
    proxies = (1.0 - weather.cloud_cover[at]) * gains[later]
    rises = means[later] - means[later - 1]

    if len(proxies) < min_hours:
        raise CorrelationUndefined(
            f"{rid}: only {len(proxies)} overlapping hours, need {min_hours}")
    if float(np.std(proxies)) == 0.0 or float(np.std(rises)) == 0.0:
        raise CorrelationUndefined(f"{rid}: zero-variance input, correlation undefined")
    r = float(np.corrcoef(proxies, rises)[0, 1])
    return CorrelationReport(
        room_id=rid, orientation=orientation, r=r, hours=len(proxies),
        last_day=int(hours[-1] // 24),
    )


def flag_unshaded_rooms(
    reports: list[CorrelationReport] | tuple[CorrelationReport, ...],
    r_threshold: float = 0.5,
) -> list[AnomalyReport]:
    """Rooms whose solar-gain correlation reaches the threshold, strongest first."""
    flagged = sorted(
        (rep for rep in reports if rep.r >= r_threshold),
        key=lambda rep: (-rep.r, rep.room_id),
    )
    return [
        AnomalyReport(
            room_id=rep.room_id,
            kind=AnomalyKind.UNSHADED_SOLAR_GAIN,
            evidence=(EvidenceItem(rep.last_day, rep.r),),
        )
        for rep in flagged
    ]


@dataclass(frozen=True)
class OccupantEvent:
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
    `within_minutes`] with at least two samples, come from the rolling order
    statistic shared with `quality`'s bound test (`_kth_smallest`, k = 0).
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
    troughs = _kth_smallest(values, starts, ends[starts], np.zeros(len(starts), dtype=np.int64))
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
