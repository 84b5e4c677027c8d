"""Adaptive thermal-comfort banding and daily classroom comfort scores.

The acceptable indoor band is a linear function of the prevailing mean
outdoor temperature (0.31 * t_pmo + 17.8), +-3.5 degC at 80% acceptability
and +-2.5 degC at 90%, applicable for prevailing means between 10 and
33.5 degC. Outdoor wind raises the upper limit in steps (1.2/1.8/2.2 degC
above 0.6/0.9/1.2 m/s). A day's comfort score is the fraction of occupied
school hours (08:30-16:30 local, eight hourly slots) whose mean indoor
temperature falls inside the band.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import Mapping

import numpy as np

from .ingest import WeatherHistory
from .model import (
    DAY_SECONDS,
    SCHOOL_DAY_SLOTS,
    SCHOOL_DAY_START,
    Site,
    TimeSeries,
    date_to_day,
)

ADAPTIVE_SLOPE = 0.31
ADAPTIVE_INTERCEPT = 17.8
BAND_HALF_WIDTH = {80: 3.5, 90: 2.5}
DEFAULT_ACCEPTABILITY = 80
PMO_APPLICABLE_MIN = 10.0
PMO_APPLICABLE_MAX = 33.5
LOOKBACK_DAYS = 7  # days of outdoor means in the prevailing mean
# cooling offsets applied to the band's upper limit, by wind-speed step
AIRSPEED_STEPS = ((1.2, 2.2), (0.9, 1.8), (0.6, 1.2))


class ComfortError(ValueError):
    pass


@dataclass(frozen=True)
class DailyComfortScore:
    room_id: str
    day: int  # days since epoch, local calendar
    score: float
    hours_evaluated: int
    t_pmo: float

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ComfortError(f"score {self.score} outside [0, 1]")


def _segment_means(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """`np.mean(values[a:b])` for each segment [a, b), bit for bit; NaN where empty.

    Segments of one length are gathered as the rows of one matrix, and numpy
    sums each row in the order it sums a 1-D slice of that length.
    """
    counts = hi - lo
    means = np.full(counts.shape, np.nan)
    for n in set(counts.ravel().tolist()) - {0}:
        at = counts == n
        means[at] = values[lo[at][:, None] + np.arange(n)].sum(axis=1) / n
    return means


def prevailing_means(weather: WeatherHistory, days, tz_offset_minutes: int = 0) -> np.ndarray:
    """Prevailing mean outdoor temperature of each local day in `days`.

    It is the mean of the daily mean outdoor temperatures over the
    LOOKBACK_DAYS days before the day. Days without any outdoor sample are
    skipped; NaN marks a day whose whole lookback is empty.
    """
    local_days = (weather.times + tz_offset_minutes * 60) // DAY_SECONDS
    first = np.flatnonzero(np.diff(local_days, prepend=local_days[:1] - 1))  # times increase
    present, bounds = local_days[first], np.append(first, len(local_days))
    daily = _segment_means(weather.outdoor_temp, bounds[:-1], bounds[1:])
    days = np.asarray(days, dtype=np.int64)
    return _segment_means(daily, np.searchsorted(present, days - LOOKBACK_DAYS),
                          np.searchsorted(present, days))


def wind_offsets(wind_speed) -> np.ndarray:
    """How far each outdoor wind speed raises the band's upper limit, degC."""
    wind = np.asarray(wind_speed, dtype=np.float64)
    if np.any(wind < 0):
        raise ComfortError(f"negative wind speed {wind[wind < 0][0]}")
    steps = [wind >= threshold for threshold, _ in AIRSPEED_STEPS]
    steps[-1] = wind > AIRSPEED_STEPS[-1][0]  # no effect at or below 0.6 m/s
    return np.select(steps, [offset for _, offset in AIRSPEED_STEPS], 0.0)


def _quartiles(values: np.ndarray) -> tuple[float, float]:
    """First and third quartiles, bit for bit those of `np.percentile`'s
    linear rule, which imports `numpy.ma` on its first call."""
    ordered = np.sort(values)
    pos = (len(ordered) - 1) * np.array([0.25, 0.75])
    lo = pos.astype(np.int64)
    t = pos - lo
    a, b = ordered[lo], ordered[np.minimum(lo + 1, len(ordered) - 1)]
    q1, q3 = np.where(t >= 0.5, b - (b - a) * (1.0 - t), a + (b - a) * t).tolist()
    return q1, q3


@dataclass(frozen=True)
class SiteComfortSummary:
    site_id: str
    acceptability: int
    room_scores: dict[str, tuple[DailyComfortScore, ...]]
    mean: float
    minimum: float
    maximum: float
    q1: float
    q3: float
    days_skipped: int  # room-days where the model was inapplicable or silent


def site_comfort_summary(
    site: Site,
    room_series: Mapping[str, TimeSeries],
    weather: WeatherHistory,
    start: date | int,
    end: date | int,
    acceptability: int = DEFAULT_ACCEPTABILITY,
) -> SiteComfortSummary:
    """Daily scores per room plus the site's score distribution over [start, end).

    Each local calendar day has one band, from its prevailing mean; each of
    its eight hourly slots raises the band's upper limit by that hour's
    outdoor wind. A slot is in band when the mean of its indoor samples lies
    inside. A room-day's score is the fraction of its slots with samples
    that are in band; a room-day is skipped when its prevailing mean is
    missing or outside the model's range, or when none of its slots has a
    sample.
    """
    start_day = start if isinstance(start, int) else date_to_day(start)
    end_day = end if isinstance(end, int) else date_to_day(end)
    if end_day <= start_day:
        raise ComfortError(f"empty period: [{start_day}, {end_day})")
    if acceptability not in BAND_HALF_WIDTH:
        raise ComfortError(
            f"acceptability must be one of {sorted(BAND_HALF_WIDTH)}, got {acceptability}")
    half = BAND_HALF_WIDTH[acceptability]

    days = np.arange(start_day, end_day)
    t_pmo = prevailing_means(weather, days, site.tz_offset_minutes)
    applicable = (t_pmo >= PMO_APPLICABLE_MIN) & (t_pmo <= PMO_APPLICABLE_MAX)
    t_comfort = ADAPTIVE_SLOPE * t_pmo + ADAPTIVE_INTERCEPT
    # (day, slot) grids: each slot's first second, and its band
    slot_starts = ((days * DAY_SECONDS - site.tz_offset_minutes * 60 + SCHOOL_DAY_START)[:, None]
                   + 3600 * np.arange(SCHOOL_DAY_SLOTS))
    rows, recorded = weather.rows_at(slot_starts)
    wind_raise = np.zeros(slot_starts.shape)
    wind_raise[recorded] = wind_offsets(weather.wind_speed[rows[recorded]])
    low = (t_comfort - half)[:, None]
    high = (t_comfort + half)[:, None] + wind_raise

    room_scores: dict[str, tuple[DailyComfortScore, ...]] = {}
    skipped = 0
    for room_id in sorted(room_series):
        series = room_series[room_id]
        lo = np.searchsorted(series.times, slot_starts)
        hi = np.searchsorted(series.times, slot_starts + 3600)
        means = _segment_means(series.values, lo, hi)
        evaluated = np.count_nonzero(hi > lo, axis=1)
        in_band = np.count_nonzero((low <= means) & (means <= high), axis=1)
        scored = applicable & (evaluated > 0)
        room_scores[room_id] = tuple(
            DailyComfortScore(room_id=room_id, day=day, score=hits / n, hours_evaluated=n,
                              t_pmo=pmo)
            for day, hits, n, pmo in zip(days[scored].tolist(), in_band[scored].tolist(),
                                         evaluated[scored].tolist(), t_pmo[scored].tolist()))
        skipped += len(days) - len(room_scores[room_id])

    all_scores = [s.score for scores in room_scores.values() for s in scores]
    if not all_scores:
        raise ComfortError(f"no rooms with scorable data in site {site.site_id}")
    arr = np.array(all_scores)
    q1, q3 = _quartiles(arr)
    return SiteComfortSummary(
        site_id=site.site_id,
        acceptability=acceptability,
        room_scores=room_scores,
        mean=float(np.mean(arr)),
        minimum=float(np.min(arr)),
        maximum=float(np.max(arr)),
        q1=float(q1),
        q3=float(q3),
        days_skipped=skipped,
    )
