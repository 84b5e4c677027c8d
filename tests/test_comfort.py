from __future__ import annotations

from datetime import date

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from schoolsense.comfort import (
    ComfortBand,
    ComfortError,
    ModelInapplicable,
    _quartiles,
    adaptive_band,
    airspeed_extension,
    daily_comfort,
    hourly_comfort,
    prevailing_mean_outdoor,
    site_comfort_summary,
)
from schoolsense.ingest import WeatherHistory
from schoolsense.model import Site, TimeSeries, date_to_day

from conftest import series_at, utc


def flat_weather(site_id="a", start=None, days=10, temp=20.0, wind=0.0, cloud=0.3):
    start = utc(2017, 9, 4) if start is None else start
    times = start + 3600 * np.arange(days * 24, dtype=np.int64)
    return WeatherHistory(
        site_id=site_id,
        times=times,
        outdoor_temp=np.full(len(times), float(temp)),
        wind_speed=np.full(len(times), float(wind)),
        cloud_cover=np.full(len(times), float(cloud)),
    )


def test_prevailing_mean_constant_week():
    weather = flat_weather(temp=20.0)
    pmo = prevailing_mean_outdoor(weather, date(2017, 9, 11))
    assert pmo == pytest.approx(20.0)


def test_prevailing_mean_alternating_days():
    start = utc(2017, 9, 4)
    times = start + 3600 * np.arange(7 * 24, dtype=np.int64)
    day_idx = (times - start) // 86400
    temps = np.where(day_idx % 2 == 0, 18.0, 22.0)
    weather = WeatherHistory("a", times, temps, np.zeros(len(times)), np.zeros(len(times)))
    pmo = prevailing_mean_outdoor(weather, date(2017, 9, 11))
    # 4 days at 18, 3 at 22: mean of daily means
    assert pmo == pytest.approx((4 * 18 + 3 * 22) / 7)


def test_prevailing_mean_skips_missing_days():
    weather = flat_weather(temp=15.0, days=3)  # only Sep 4-6 present
    pmo = prevailing_mean_outdoor(weather, date(2017, 9, 11))
    assert pmo == pytest.approx(15.0)


def test_prevailing_mean_no_data_inapplicable():
    weather = flat_weather(days=2)
    with pytest.raises(ModelInapplicable):
        prevailing_mean_outdoor(weather, date(2018, 3, 1))


def test_adaptive_band_at_20_80pct():
    band = adaptive_band(20.0, 80)
    assert band.t_comfort == pytest.approx(24.0)
    assert band.low == pytest.approx(20.5)
    assert band.high == pytest.approx(27.5)


def test_adaptive_band_at_10_90pct():
    band = adaptive_band(10.0, 90)
    assert band.t_comfort == pytest.approx(20.9)
    assert band.low == pytest.approx(18.4)
    assert band.high == pytest.approx(23.4)


def test_adaptive_band_outside_applicability():
    with pytest.raises(ModelInapplicable):
        adaptive_band(9.0, 80)
    with pytest.raises(ModelInapplicable):
        adaptive_band(34.0, 80)


def test_adaptive_band_bad_acceptability():
    with pytest.raises(ComfortError):
        adaptive_band(20.0, 85)


@given(st.floats(10.0, 33.0), st.floats(0.01, 0.5))
def test_adaptive_band_monotone_slope(t, dt):
    a = adaptive_band(t, 80)
    b = adaptive_band(min(t + dt, 33.5), 80)
    shift = 0.31 * (min(t + dt, 33.5) - t)
    assert b.low - a.low == pytest.approx(shift, abs=1e-9)
    assert b.high - a.high == pytest.approx(shift, abs=1e-9)


def test_airspeed_below_threshold_unchanged():
    band = adaptive_band(20.0, 80)
    assert airspeed_extension(band, 0.3) == band
    assert airspeed_extension(band, 0.6) == band


def test_airspeed_steps():
    band = adaptive_band(20.0, 80)  # high 27.5
    assert airspeed_extension(band, 0.9).high == pytest.approx(29.3)
    assert airspeed_extension(band, 0.7).high == pytest.approx(28.7)
    assert airspeed_extension(band, 1.2).high == pytest.approx(29.7)
    assert airspeed_extension(band, 2.0).high == pytest.approx(29.7)  # capped


def test_airspeed_negative_wind():
    with pytest.raises(ComfortError):
        airspeed_extension(adaptive_band(20.0), -0.1)


@given(st.floats(0.0, 5.0))
def test_airspeed_never_lowers_high_never_moves_low(wind):
    band = adaptive_band(22.0, 90)
    out = airspeed_extension(band, wind)
    assert out.high >= band.high
    assert out.low == band.low
    assert out.t_comfort == band.t_comfort


def test_hourly_comfort_inside_outside_nodata():
    band = ComfortBand(t_comfort=24.0, low=20.5, high=27.5, acceptability=80)
    hour = utc(2017, 9, 6, 9)
    inside = series_at("t", hour, 300, np.full(12, 22.0))
    outside = series_at("t", hour, 300, np.full(12, 30.0))
    assert hourly_comfort(inside, band, hour) is True
    assert hourly_comfort(outside, band, hour) is False
    assert hourly_comfort(inside, band, hour + 7200) is None


def _school_day_series(day_utc_midnight, temps_by_slot, rate=300):
    """One sample run covering 08:30-16:30 with per-slot constant values."""
    times = []
    values = []
    for slot, temp in enumerate(temps_by_slot):
        start = day_utc_midnight + 8 * 3600 + 1800 + slot * 3600
        for k in range(3600 // rate):
            times.append(start + k * rate)
            values.append(temp)
    return TimeSeries("t", np.array(times, dtype=np.int64), np.array(values))


def test_daily_comfort_perfect_day():
    day = date(2017, 9, 12)
    weather = flat_weather(temp=20.0)  # band [20.5, 27.5] at 80%
    indoor = _school_day_series(utc(2017, 9, 12), [22.0] * 8)
    score = daily_comfort(indoor, weather, day)
    assert score is not None
    assert score.score == 1.0
    assert score.hours_evaluated == 8


def test_daily_comfort_zero_day():
    day = date(2017, 9, 12)
    weather = flat_weather(temp=20.0)
    indoor = _school_day_series(utc(2017, 9, 12), [30.0] * 8)
    score = daily_comfort(indoor, weather, day)
    assert score.score == 0.0


def test_daily_comfort_six_of_eight():
    day = date(2017, 9, 12)
    weather = flat_weather(temp=20.0)
    indoor = _school_day_series(utc(2017, 9, 12), [22.0] * 6 + [30.0] * 2)
    score = daily_comfort(indoor, weather, day)
    assert score.score == pytest.approx(0.75)


def test_daily_comfort_skips_no_data_hours():
    day = date(2017, 9, 12)
    weather = flat_weather(temp=20.0)
    indoor = _school_day_series(utc(2017, 9, 12), [22.0, 30.0])  # 6 empty slots
    score = daily_comfort(indoor, weather, day)
    assert score.hours_evaluated == 2
    assert score.score == pytest.approx(0.5)


def test_daily_comfort_all_nodata_returns_none():
    weather = flat_weather(temp=20.0)
    empty = TimeSeries.empty("t")
    assert daily_comfort(empty, weather, date(2017, 9, 12)) is None


def test_daily_comfort_respects_timezone():
    # indoor samples at 07:30 UTC = 08:30 local at +60 min offset
    day = date(2017, 9, 12)
    weather = flat_weather(temp=20.0)
    times = utc(2017, 9, 12, 7, 30) + 300 * np.arange(12, dtype=np.int64)
    indoor = TimeSeries("t", times, np.full(12, 22.0))
    with_tz = daily_comfort(indoor, weather, day, tz_offset_minutes=60)
    without = daily_comfort(indoor, weather, day, tz_offset_minutes=0)
    assert with_tz.hours_evaluated == 1 and with_tz.score == 1.0
    assert without is None


def test_daily_comfort_90_band_subset_of_80():
    day = date(2017, 9, 12)
    weather = flat_weather(temp=20.0)
    # 21.0 is inside the 80% band [20.5, 27.5] but outside the 90% [21.5, 26.5]
    indoor = _school_day_series(utc(2017, 9, 12), [21.0] * 8)
    s80 = daily_comfort(indoor, weather, day, acceptability=80)
    s90 = daily_comfort(indoor, weather, day, acceptability=90)
    assert s80.score == 1.0
    assert s90.score == 0.0
    assert s90.score <= s80.score


def test_wind_extension_applies_per_hour():
    day = date(2017, 9, 12)
    weather = flat_weather(temp=20.0, wind=1.0)  # high limit 27.5 -> 29.3
    indoor = _school_day_series(utc(2017, 9, 12), [28.5] * 8)
    score = daily_comfort(indoor, weather, day)
    assert score.score == 1.0


def _site():
    return Site("a", 38.0, 23.7, utc(2017, 9, 1), tz_offset_minutes=0)


def test_site_summary_single_room_all_comfortable():
    weather = flat_weather(temp=20.0, days=12)
    rooms = {"r1": _school_day_series(utc(2017, 9, 12), [22.0] * 8)}
    summary = site_comfort_summary(_site(), rooms, weather,
                                   date(2017, 9, 12), date(2017, 9, 13))
    assert summary.mean == 1.0
    assert summary.minimum == summary.maximum == 1.0


def test_site_summary_two_rooms_mean():
    weather = flat_weather(temp=20.0, days=12)
    rooms = {
        "hot": _school_day_series(utc(2017, 9, 12), [30.0] * 8),
        "ok": _school_day_series(utc(2017, 9, 12), [22.0] * 8),
    }
    summary = site_comfort_summary(_site(), rooms, weather,
                                   date(2017, 9, 12), date(2017, 9, 13))
    assert summary.mean == pytest.approx(0.5)


def test_site_summary_no_data_errors():
    weather = flat_weather(temp=20.0, days=12)
    with pytest.raises(ComfortError):
        site_comfort_summary(_site(), {"r1": TimeSeries.empty("t")}, weather,
                             date(2017, 9, 12), date(2017, 9, 14))


def test_warm_site_scores_higher_than_cold_site():
    from schoolsense.synthgen import RoomSpec, ScenarioSpec, SiteSpec, generate
    spec = ScenarioSpec(
        seed=6, start=date(2017, 9, 4), days=21, gain_amplitude=1.0,
        sites=(
            SiteSpec(site_id="south", outdoor_mean=22.0,
                     rooms=(RoomSpec("a"), RoomSpec("b"))),
            SiteSpec(site_id="north", outdoor_mean=12.0,
                     rooms=(RoomSpec("a"), RoomSpec("b"))),
        ),
    )
    out = generate(spec)
    start, end = date(2017, 9, 11), date(2017, 9, 25)
    means = {}
    for site_id in ("south", "north"):
        site = out.catalog.site(site_id)
        rooms = {r: out.series[f"{site_id}-{r}-temp"] for r in ("a", "b")}
        summary = site_comfort_summary(site, rooms, out.weather[site_id], start, end)
        means[site_id] = summary.mean
    assert means["south"] > means["north"]


# scores are fractions of eight hours, so ties are common; wide floats test the rounding
quartile_samples = st.lists(
    st.one_of(st.sampled_from([k / 8 for k in range(9)]), st.floats(-1e300, 1e300)),
    min_size=1, max_size=60)


@given(quartile_samples)
@example([0.1, 0.7, 0.7])  # Q1 halfway between 0.1 and 0.7, where numpy interpolates from 0.7
def test_quartiles_equal_numpy_percentile(values):
    arr = np.array(values)
    q1, q3 = np.percentile(arr, [25.0, 75.0])
    assert repr(_quartiles(arr)) == repr((float(q1), float(q3)))

