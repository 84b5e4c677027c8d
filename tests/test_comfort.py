from __future__ import annotations

from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from schoolsense.comfort import (
    ComfortError,
    _quartiles,
    prevailing_means,
    site_comfort_summary,
    wind_offsets,
)
from schoolsense.ingest import WeatherHistory
from schoolsense.model import Site, TimeSeries, date_to_day

from comfort_oracles import oracle_site_comfort_summary
from conftest import series_at, utc

DAY = date(2017, 9, 12)  # a Tuesday, with a full week of weather before it


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


def _scores(weather, rooms, day=DAY, tz_offset_minutes=0, acceptability=80):
    """Each room's score for `day`, None where the room-day is skipped."""
    site = Site("a", 38.0, 23.7, utc(2017, 9, 1), tz_offset_minutes=tz_offset_minutes)
    summary = site_comfort_summary(site, rooms, weather, day, day + timedelta(days=1),
                                   acceptability)
    return {room: scores[0] if scores else None
            for room, scores in summary.room_scores.items()}


def _in_band(weather, temps, acceptability=80):
    """The score of one room per temperature, each room at it all school day."""
    rooms = {f"r{i:02d}": _school_day_series(utc(2017, 9, 12), [t] * 8)
             for i, t in enumerate(temps)}
    return [s.score for s in _scores(weather, rooms, acceptability=acceptability).values()]


def test_prevailing_mean_constant_week():
    weather = flat_weather(temp=20.0)
    pmo = prevailing_means(weather, [date_to_day(date(2017, 9, 11))])
    assert pmo.tolist() == pytest.approx([20.0])


def test_prevailing_mean_alternating_days():
    start = utc(2017, 9, 4)
    times = start + 3600 * np.arange(7 * 24, dtype=np.int64)
    day_idx = (times - start) // 86400
    temps = np.where(day_idx % 2 == 0, 18.0, 22.0)
    weather = WeatherHistory("a", times, temps, np.zeros(len(times)), np.zeros(len(times)))
    pmo = prevailing_means(weather, [date_to_day(date(2017, 9, 11))])
    # 4 days at 18, 3 at 22: mean of daily means
    assert pmo.tolist() == pytest.approx([(4 * 18 + 3 * 22) / 7])


def test_prevailing_mean_skips_missing_days():
    weather = flat_weather(temp=15.0, days=3)  # only Sep 4-6 present
    pmo = prevailing_means(weather, [date_to_day(date(2017, 9, 11))])
    assert pmo.tolist() == pytest.approx([15.0])


def test_prevailing_mean_no_data_inapplicable():
    weather = flat_weather(days=2)
    day = date(2018, 3, 1)
    assert np.isnan(prevailing_means(weather, [date_to_day(day)])).all()
    rooms = {"r1": _school_day_series(utc(2018, 3, 1), [22.0] * 8)}
    with pytest.raises(ComfortError, match="no rooms with scorable data"):
        _scores(weather, rooms, day=day)


def test_adaptive_band_at_20_80pct():
    # prevailing mean 20 degC: comfort temperature 24.0, band [20.5, 27.5]
    weather = flat_weather(temp=20.0)
    assert _in_band(weather, [20.49, 20.51, 24.0, 27.49, 27.51]) == [0.0, 1.0, 1.0, 1.0, 0.0]


def test_adaptive_band_at_10_90pct():
    # prevailing mean 10 degC, the model's lower limit: band [18.4, 23.4]
    weather = flat_weather(temp=10.0)
    assert _in_band(weather, [18.39, 18.41, 23.39, 23.41], 90) == [0.0, 1.0, 1.0, 0.0]


def test_adaptive_band_outside_applicability():
    for temp in (10.0, 33.5):  # the range's limits are applicable
        assert _in_band(flat_weather(temp=temp), [0.31 * temp + 17.8]) == [1.0]
    for temp in (9.0, 34.0):
        with pytest.raises(ComfortError, match="no rooms with scorable data"):
            _in_band(flat_weather(temp=temp), [0.31 * temp + 17.8])


def test_adaptive_band_bad_acceptability():
    with pytest.raises(ComfortError, match="acceptability"):
        _in_band(flat_weather(temp=20.0), [22.0], 85)


@given(st.floats(10.0, 33.0), st.floats(0.01, 0.5))
def test_adaptive_band_monotone_slope(t, dt):
    # the band follows the prevailing mean with slope 0.31, at every mean
    for pmo in (t, min(t + dt, 33.5)):
        comfort = 0.31 * pmo + 17.8
        edges = [comfort - 3.51, comfort - 3.49, comfort + 3.49, comfort + 3.51]
        assert _in_band(flat_weather(temp=pmo), edges) == [0.0, 1.0, 1.0, 0.0]


def test_airspeed_below_threshold_unchanged():
    assert wind_offsets([0.0, 0.3, 0.6]).tolist() == [0.0, 0.0, 0.0]


def test_airspeed_steps():
    assert wind_offsets([0.7, 0.9, 1.2, 2.0]).tolist() == [1.2, 1.8, 2.2, 2.2]  # capped


def test_airspeed_negative_wind():
    with pytest.raises(ComfortError, match="negative wind"):
        wind_offsets([0.5, -0.1])


@given(st.floats(0.0, 5.0))
def test_airspeed_never_lowers_high_never_moves_low(wind):
    assert wind_offsets([wind])[0] >= 0.0
    # prevailing mean 22 degC at 90%: band [22.12, 27.12] in still air
    low, high = 0.31 * 22.0 + 17.8 - 2.5, 0.31 * 22.0 + 17.8 + 2.5
    weather = flat_weather(temp=22.0, wind=wind)
    assert _in_band(weather, [low - 0.01, low + 0.01, high - 0.01], 90) == [0.0, 1.0, 1.0]


def test_hourly_comfort_inside_outside_nodata():
    weather = flat_weather(temp=20.0)  # band [20.5, 27.5]
    hour = utc(2017, 9, 12, 9, 30)  # the second slot, 09:30-10:30
    after = utc(2017, 9, 12, 16, 30)  # the end of the last slot
    scores = _scores(weather, {
        "inside": series_at("t", hour, 300, np.full(12, 22.0)),
        "outside": series_at("t", hour, 300, np.full(12, 30.0)),
        # a sample at a slot's end belongs to the next slot
        "two_slots": series_at("t", hour, 300, np.full(13, 22.0)),
        # school hours are [08:30, 16:30) local
        "no_school_hours": TimeSeries("t", np.array([utc(2017, 9, 12, 8, 29, 59), after]),
                                      np.array([22.0, 22.0])),
    })
    assert (scores["inside"].score, scores["inside"].hours_evaluated) == (1.0, 1)
    assert (scores["outside"].score, scores["outside"].hours_evaluated) == (0.0, 1)
    assert scores["two_slots"].hours_evaluated == 2
    assert scores["no_school_hours"] is None


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


def _score(indoor, weather, **kwargs):
    return _scores(weather, {"t": indoor}, **kwargs)["t"]


def test_daily_comfort_perfect_day():
    weather = flat_weather(temp=20.0)  # band [20.5, 27.5] at 80%
    indoor = _school_day_series(utc(2017, 9, 12), [22.0] * 8)
    score = _score(indoor, weather)
    assert score is not None
    assert score.score == 1.0
    assert score.hours_evaluated == 8
    assert score.t_pmo == pytest.approx(20.0)
    assert score.day == date_to_day(DAY)


def test_daily_comfort_zero_day():
    weather = flat_weather(temp=20.0)
    indoor = _school_day_series(utc(2017, 9, 12), [30.0] * 8)
    score = _score(indoor, weather)
    assert score.score == 0.0


def test_daily_comfort_six_of_eight():
    weather = flat_weather(temp=20.0)
    indoor = _school_day_series(utc(2017, 9, 12), [22.0] * 6 + [30.0] * 2)
    score = _score(indoor, weather)
    assert score.score == pytest.approx(0.75)


def test_daily_comfort_skips_no_data_hours():
    weather = flat_weather(temp=20.0)
    indoor = _school_day_series(utc(2017, 9, 12), [22.0, 30.0])  # 6 empty slots
    score = _score(indoor, weather)
    assert score.hours_evaluated == 2
    assert score.score == pytest.approx(0.5)


def test_daily_comfort_all_nodata_returns_none():
    weather = flat_weather(temp=20.0)
    rooms = {"empty": TimeSeries.empty("t"),
             "full": _school_day_series(utc(2017, 9, 12), [22.0] * 8)}
    summary = site_comfort_summary(_site(), rooms, weather, DAY, DAY + timedelta(days=1))
    assert summary.room_scores["empty"] == ()
    assert summary.days_skipped == 1


def test_daily_comfort_respects_timezone():
    # indoor samples at 07:30 UTC = 08:30 local at +60 min offset
    weather = flat_weather(temp=20.0)
    times = utc(2017, 9, 12, 7, 30) + 300 * np.arange(12, dtype=np.int64)
    indoor = TimeSeries("t", times, np.full(12, 22.0))
    with_tz = _score(indoor, weather, tz_offset_minutes=60)
    assert with_tz.hours_evaluated == 1 and with_tz.score == 1.0
    with pytest.raises(ComfortError, match="no rooms with scorable data"):
        _score(indoor, weather, tz_offset_minutes=0)


def test_daily_comfort_90_band_subset_of_80():
    weather = flat_weather(temp=20.0)
    # 21.0 is inside the 80% band [20.5, 27.5] but outside the 90% [21.5, 26.5]
    indoor = _school_day_series(utc(2017, 9, 12), [21.0] * 8)
    s80 = _score(indoor, weather, acceptability=80)
    s90 = _score(indoor, weather, acceptability=90)
    assert s80.score == 1.0
    assert s90.score == 0.0
    assert s90.score <= s80.score


def test_wind_extension_applies_per_hour():
    weather = flat_weather(temp=20.0)
    # 1.0 m/s in the weather hours of the first four slots: high limit 27.5 -> 29.3
    windy = (weather.times >= utc(2017, 9, 12, 8)) & (weather.times < utc(2017, 9, 12, 12))
    weather = WeatherHistory("a", weather.times, weather.outdoor_temp,
                             np.where(windy, 1.0, 0.0), weather.cloud_cover)
    indoor = _school_day_series(utc(2017, 9, 12), [28.5] * 8)
    score = _score(indoor, weather)
    assert score.score == 0.5


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
    for rooms in ({"r1": TimeSeries.empty("t")}, {}):
        with pytest.raises(ComfortError):
            site_comfort_summary(_site(), rooms, weather, date(2017, 9, 12), date(2017, 9, 14))


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



# --------------------------------------------------- equal to the per-room-day oracle

WIND_EDGES = np.array([0.0, 0.3, 0.6, 0.75, 0.9, 1.0, 1.2, 2.5])


@st.composite
def comfort_cases(draw):
    """A site, its rooms and weather, and a period, built around the model's edges.

    Hypothesis picks the structure; a seeded generator fills in the samples.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    tz = draw(st.sampled_from((0, 60, 120, -300, 345, 330, -210, 840, -720)))
    start_day = date_to_day(date(2017, 9, 11)) + draw(st.integers(0, 6))
    n_days = draw(st.integers(1, 4))
    first_day = start_day - 9

    # hourly weather: one level (the limits 10 and 33.5 among them) or a level per
    # day, optional hourly noise, hours and whole days missing
    hours = first_day * 86400 + 3600 * np.arange((n_days + 10) * 24, dtype=np.int64)
    level = draw(st.sampled_from((9.99, 10.0, 20.0, 33.5, 33.51, None)))
    temp = (rng.uniform(5.0, 38.0, len(hours) // 24).repeat(24) if level is None
            else np.full(len(hours), level))
    if draw(st.booleans()):
        temp = temp + rng.normal(0.0, 2.0, len(hours))
    wind = (rng.choice(WIND_EDGES, len(hours)) if draw(st.booleans())
            else rng.uniform(0.0, 3.0, len(hours)))
    keep = rng.random(len(hours)) >= draw(st.sampled_from((0.0, 0.1, 0.6)))
    for day in rng.choice(n_days + 10, draw(st.integers(0, 4)), replace=False):
        keep[day * 24:(day + 1) * 24] = False
    weather = WeatherHistory("a", hours[keep], temp[keep], wind[keep],
                             np.zeros(np.count_nonzero(keep)))

    # rooms: regular samples from an odd phase, some dropped, some rooms empty
    rooms = {}
    for i in range(draw(st.integers(1, 3))):
        rate = draw(st.sampled_from((60, 300, 600, 900, 1800)))
        t0 = (start_day - 1) * 86400 + int(rng.integers(0, rate))
        times = t0 + rate * np.arange((n_days + 2) * 86400 // rate, dtype=np.int64)
        kept = rng.random(len(times)) >= draw(st.sampled_from((0.0, 0.3, 0.9, 1.0)))
        rooms[f"r{i}"] = TimeSeries(f"t{i}", times[kept],
                                    rng.normal(24.0, 4.0, np.count_nonzero(kept)))
    site = Site("a", 38.0, 23.7, utc(2017, 9, 1), tz_offset_minutes=tz)
    return site, rooms, weather, start_day, start_day + n_days, draw(st.sampled_from((80, 90)))


def _summary_or_error(summarize, *args):
    try:
        return repr(summarize(*args))  # repr tells -0.0 from 0.0 and np.float64 from float
    except ComfortError:
        return "ComfortError"


@settings(deadline=None, max_examples=300)
@given(comfort_cases())
def test_site_summary_equals_per_room_day_oracle(case):
    assert (_summary_or_error(site_comfort_summary, *case)
            == _summary_or_error(oracle_site_comfort_summary, *case))


def test_site_summary_equals_oracle_on_generated_sites():
    from schoolsense.synthgen import RoomSpec, ScenarioSpec, SiteSpec, generate
    rooms = (RoomSpec("a", insulation="poor"), RoomSpec("b", blinds=False))
    spec = ScenarioSpec(
        seed=3, start=date(2017, 9, 4), days=16, sensing_rate=600,
        sites=tuple(SiteSpec(site_id=f"s{tz}", tz_offset_minutes=tz, outage_fraction=0.3,
                             rooms=rooms)
                    for tz in (345, -300)),
    )
    out = generate(spec)
    for site in out.catalog.sites:
        series = {r: out.series[f"{site.site_id}-{r}-temp"] for r in ("a", "b")}
        args = (site, series, out.weather[site.site_id], date(2017, 9, 9), date(2017, 9, 20))
        summary = site_comfort_summary(*args)
        assert summary.days_skipped < 22 and summary.room_scores["a"]
        assert repr(summary) == repr(oracle_site_comfort_summary(*args))
