"""The per-room-day version of `comfort`'s site scoring, kept as a test oracle.

`site_comfort_summary` ran this code before it became one array pass per
site: for every room-day it recomputed the prevailing mean from the whole
weather history, and for every slot it built a band, looked up the weather
hour and took the mean of the slot's samples. The array version must return
exactly what this returns: the same scores, counts and floats, bit for bit.
Only the names `oracle_site_comfort_summary` and `at_hour`, once a
`WeatherHistory` method, differ from the originals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import date
from typing import Mapping

import numpy as np

from schoolsense.comfort import (
    ADAPTIVE_INTERCEPT,
    ADAPTIVE_SLOPE,
    AIRSPEED_STEPS,
    BAND_HALF_WIDTH,
    DEFAULT_ACCEPTABILITY,
    LOOKBACK_DAYS,
    PMO_APPLICABLE_MAX,
    PMO_APPLICABLE_MIN,
    ComfortError,
    DailyComfortScore,
    SiteComfortSummary,
    _quartiles,
)
from schoolsense.ingest import WeatherHistory
from schoolsense.model import (
    DAY_SECONDS,
    SCHOOL_DAY_SLOTS,
    SCHOOL_DAY_START,
    Site,
    TimeSeries,
    date_to_day,
)


class ModelInapplicable(ComfortError):
    """Adaptive model undefined: prevailing mean out of range or no data."""


@dataclass(frozen=True)
class ComfortBand:
    """Acceptable indoor-temperature interval for one day."""

    t_comfort: float
    low: float
    high: float
    acceptability: int

    def contains(self, temp: float) -> bool:
        return self.low <= temp <= self.high


def at_hour(weather: WeatherHistory, epoch: int) -> tuple[float, float, float] | None:
    """(temp, wind, cloud) for the hour containing `epoch`, if recorded."""
    hour = (int(epoch) // 3600) * 3600
    i = int(np.searchsorted(weather.times, hour))
    if i < len(weather.times) and weather.times[i] == hour:
        return (float(weather.outdoor_temp[i]), float(weather.wind_speed[i]),
                float(weather.cloud_cover[i]))
    return None


def prevailing_mean_outdoor(
    weather: WeatherHistory,
    day: date | int,
    tz_offset_minutes: int = 0,
) -> float:
    """Mean of the daily mean outdoor temperatures over the preceding days.

    Days without any outdoor sample are skipped; if the whole lookback is
    empty the adaptive model is inapplicable.
    """
    day_index = day if isinstance(day, int) else date_to_day(day)
    local_days = (weather.times + tz_offset_minutes * 60) // DAY_SECONDS
    daily_means = []
    for d in range(day_index - LOOKBACK_DAYS, day_index):
        mask = local_days == d
        if np.any(mask):
            daily_means.append(float(np.mean(weather.outdoor_temp[mask])))
    if not daily_means:
        raise ModelInapplicable(
            f"no outdoor data in the {LOOKBACK_DAYS} days before day {day_index}")
    return float(np.mean(daily_means))


def adaptive_band(t_pmo: float, acceptability: int = DEFAULT_ACCEPTABILITY) -> ComfortBand:
    """Comfort band around the adaptive comfort temperature for `t_pmo`."""
    if acceptability not in BAND_HALF_WIDTH:
        raise ComfortError(
            f"acceptability must be one of {sorted(BAND_HALF_WIDTH)}, got {acceptability}")
    if not PMO_APPLICABLE_MIN <= t_pmo <= PMO_APPLICABLE_MAX:
        raise ModelInapplicable(
            f"prevailing mean {t_pmo} degC outside applicability range "
            f"[{PMO_APPLICABLE_MIN}, {PMO_APPLICABLE_MAX}]")
    t_comfort = ADAPTIVE_SLOPE * t_pmo + ADAPTIVE_INTERCEPT
    half = BAND_HALF_WIDTH[acceptability]
    return ComfortBand(
        t_comfort=t_comfort, low=t_comfort - half, high=t_comfort + half,
        acceptability=acceptability,
    )


def airspeed_extension(band: ComfortBand, wind_speed: float) -> ComfortBand:
    """Raise the band's upper limit for elevated air speed; the low limit,
    comfort temperature and acceptability are unchanged."""
    if wind_speed < 0:
        raise ComfortError(f"negative wind speed {wind_speed}")
    if wind_speed <= AIRSPEED_STEPS[-1][0]:  # no effect at or below 0.6 m/s
        return band
    offset = next(off for thr, off in AIRSPEED_STEPS if wind_speed >= thr)
    return replace(band, high=band.high + offset)


def hourly_comfort(indoor: TimeSeries, band: ComfortBand, hour_start: int) -> bool | None:
    """Whether the hour's mean indoor temperature lies in the band.

    Returns None when the hour has no samples.
    """
    lo = int(np.searchsorted(indoor.times, hour_start, side="left"))
    hi = int(np.searchsorted(indoor.times, hour_start + 3600, side="left"))
    if hi == lo:
        return None
    return band.contains(float(np.mean(indoor.values[lo:hi])))


def daily_comfort(
    indoor: TimeSeries,
    weather: WeatherHistory,
    day: date | int,
    *,
    acceptability: int = DEFAULT_ACCEPTABILITY,
    tz_offset_minutes: int = 0,
) -> DailyComfortScore | None:
    """Comfort score for one local calendar day of one room.

    The eight hourly slots tiling 08:30-16:30 are scored against the day's
    adaptive band, each extended by that hour's outdoor wind speed. Slots
    without indoor samples are excluded from both counts; a day with no
    evaluated slots has no score (None).
    """
    day_index = day if isinstance(day, int) else date_to_day(day)
    t_pmo = prevailing_mean_outdoor(weather, day_index, tz_offset_minutes)
    band = adaptive_band(t_pmo, acceptability)

    local_midnight_utc = day_index * DAY_SECONDS - tz_offset_minutes * 60
    evaluated = 0
    in_band = 0
    for slot in range(SCHOOL_DAY_SLOTS):
        hour_start = local_midnight_utc + SCHOOL_DAY_START + slot * 3600
        at = at_hour(weather, hour_start)
        slot_band = airspeed_extension(band, at[1]) if at is not None else band
        verdict = hourly_comfort(indoor, slot_band, hour_start)
        if verdict is None:
            continue
        evaluated += 1
        in_band += int(verdict)
    if evaluated == 0:
        return None
    return DailyComfortScore(
        day=day_index,
        score=in_band / evaluated,
        hours_evaluated=evaluated,
        t_pmo=t_pmo,
    )


def oracle_site_comfort_summary(
    site: Site,
    room_series: Mapping[str, TimeSeries],
    weather: WeatherHistory,
    start: date | int,
    end: date | int,
    acceptability: int = DEFAULT_ACCEPTABILITY,
) -> SiteComfortSummary:
    """Daily scores per room plus the site's score distribution over [start, end)."""
    start_day = start if isinstance(start, int) else date_to_day(start)
    end_day = end if isinstance(end, int) else date_to_day(end)
    if end_day <= start_day:
        raise ComfortError(f"empty period: [{start_day}, {end_day})")

    room_scores: dict[str, tuple[DailyComfortScore, ...]] = {}
    all_scores: list[float] = []
    skipped = 0
    for room_id in sorted(room_series):
        scores = []
        for d in range(start_day, end_day):
            try:
                score = daily_comfort(
                    room_series[room_id], weather, d,
                    acceptability=acceptability,
                    tz_offset_minutes=site.tz_offset_minutes,
                )
            except ModelInapplicable:
                skipped += 1
                continue
            if score is None:
                skipped += 1
                continue
            scores.append(score)
            all_scores.append(score.score)
        room_scores[room_id] = tuple(scores)

    if not all_scores:
        raise ComfortError(f"no rooms with scorable data in site {site.site_id}")
    arr = np.array(all_scores)
    q1, q3 = _quartiles(arr)
    return SiteComfortSummary(
        room_scores=room_scores,
        mean=float(np.mean(arr)),
        minimum=float(np.min(arr)),
        maximum=float(np.max(arr)),
        q1=float(q1),
        q3=float(q3),
        days_skipped=skipped,
    )
