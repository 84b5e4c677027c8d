from __future__ import annotations

import math
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from schoolsense.model import (
    DAY_SECONDS,
    Classroom,
    DeploymentCatalog,
    ModelError,
    Orientation,
    SensorKind,
    SensorMeta,
    Site,
    TimeSeries,
    _written_epochs,
    format_iso8601,
    is_weekend,
    parse_iso8601,
    slice_series,
    to_epoch,
    written_codes,
)

from conftest import parse_stamps, series_at, utc


def test_timestamp_range_covers_deployment_era():
    early = parse_iso8601("2015-01-01T00:00:00Z")
    late = parse_iso8601("2030-01-01T00:00:00Z")
    assert early < late
    assert format_iso8601(early) == "2015-01-01T00:00:00Z"
    assert format_iso8601(late) == "2030-01-01T00:00:00Z"


def _strftime_oracle(epoch: int) -> str:
    return datetime.fromtimestamp(epoch, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


@given(st.lists(st.integers(utc(1900, 1, 1), utc(2100, 1, 1) - 1), max_size=40))
def test_codec_matches_strftime_and_round_trips(epochs):
    times = np.array(epochs, dtype=np.int64)
    texts = format_iso8601(times)
    assert texts == [_strftime_oracle(t) for t in epochs]
    assert texts == [format_iso8601(t) for t in epochs]
    parsed = parse_stamps(texts)
    assert parsed.dtype == np.int64
    assert parsed.tolist() == epochs
    assert [parse_iso8601(t) for t in texts] == epochs


_FIRST, _STOP = -62167219200, 253402300800  # 0000-01-01 and 10000-01-01
_ERA_DAYS = 146097  # the Gregorian calendar repeats every 400 years


def _numpy_stamps(epochs: np.ndarray) -> list[str]:
    text = np.datetime_as_string(epochs.astype("datetime64[s]"), unit="s")
    return [f"{stamp}Z" for stamp in text.tolist()]


@pytest.mark.parametrize("first_year", [0, 1600, 9600])
def test_stamp_encoder_writes_every_day_of_an_era_as_numpy_does(first_year):
    first_day = (date(first_year, 1, 1) - date(1970, 1, 1)).days if first_year else -719528
    days = np.arange(first_day, first_day + _ERA_DAYS, dtype=np.int64)
    epochs = days * DAY_SECONDS + days * 7919 % DAY_SECONDS  # a different second each day
    codes, inside = written_codes(epochs)
    assert inside.all()
    expected = np.datetime_as_string(epochs.astype("datetime64[s]"), unit="s").astype("S19")
    assert np.array_equal(codes[:, :19], expected.view(np.uint8).reshape(-1, 19))
    assert (codes[:, 19] == ord("Z")).all()
    decoded, in_range = _written_epochs(codes)
    assert in_range.all() and np.array_equal(decoded, epochs)


@given(st.lists(st.integers(_FIRST - 2 * _ERA_DAYS * DAY_SECONDS,
                            _STOP + 2 * _ERA_DAYS * DAY_SECONDS), max_size=40))
@example([_FIRST - 1, _FIRST, _STOP - 1, _STOP, -1, 0, utc(2000, 2, 29, 23, 59, 59)])
def test_stamp_encoder_matches_numpy_inside_and_outside_years_0000_to_9999(epochs):
    times = np.array(epochs, dtype=np.int64)
    assert format_iso8601(times) == _numpy_stamps(times)
    codes, inside = written_codes(times)
    assert inside.tolist() == [_FIRST <= t < _STOP for t in epochs]
    assert _written_epochs(codes[inside])[0].tolist() == times[inside].tolist()


MIXED_STAMPS = [
    "2017-10-02T10:00:00Z",
    "2017-10-02T12:00:00+02:00",
    "2017-10-02T10:00:00z",
    "2017-10-02 10:00:00Z",
    "2017-10-02",
    "2017-10-02T10:00:00.75Z",
    " 2017-10-02T10:00:00Z ",
    "1969-12-31T23:59:59.5Z",
    "0999-12-31T23:59:59Z",
    "2017-10-02T10:00:00",
]


def test_sequence_parse_agrees_with_scalar_parse():
    assert parse_stamps(MIXED_STAMPS).tolist() == [parse_iso8601(t) for t in MIXED_STAMPS]
    assert parse_stamps(()).tolist() == []


@pytest.mark.parametrize("bad", [
    "todayZ", "nowZ", "NaTZ", "Z", "2017Z", "2017-10Z",
    "0000-01-01T00:00:00Z", "2017-02-29T00:00:00Z", "2017-10-02T24:00:00Z",
    "2017-10-02T00:00:00Zjunk",
])
def test_bad_stamp_is_rejected_with_its_index(bad):
    with pytest.raises(ModelError):
        parse_iso8601(bad)
    with pytest.raises(ModelError) as info:
        parse_stamps(["2017-10-02T00:00:00Z", "2017-10-02", bad, "2017-10-03T00:00:00Z"])
    assert info.value.index == 2


def _fromisoformat_oracle(stamp: str):
    """Epoch seconds of a written-form stamp by `datetime.fromisoformat`, or None."""
    try:
        return to_epoch(datetime.fromisoformat(stamp[:-1] + "+00:00"))
    except ValueError:
        return None


# every field the written form admits, out-of-range months, days and hours included
written_fields = st.tuples(st.integers(1000, 9999), st.integers(0, 19), st.integers(0, 39),
                           st.integers(0, 29), st.integers(0, 59), st.integers(0, 59))


@given(st.lists(written_fields, min_size=1, max_size=30))
@example([(2017, 2, 29, 0, 0, 0)])  # not a leap year
@example([(1900, 2, 29, 0, 0, 0), (2000, 2, 29, 0, 0, 0), (2016, 2, 29, 23, 59, 59)])
@example([(2017, 4, 31, 0, 0, 0), (2017, 3, 31, 0, 0, 0), (2017, 12, 31, 23, 59, 59)])
@example([(2017, 13, 1, 0, 0, 0), (2017, 0, 1, 0, 0, 0), (2017, 1, 0, 0, 0, 0)])
@example([(9999, 12, 31, 23, 59, 59), (1000, 1, 1, 0, 0, 0), (2017, 1, 1, 24, 0, 0)])
def test_written_form_decode_matches_fromisoformat(fields):
    stamps = ["%04d-%02d-%02dT%02d:%02d:%02dZ" % f for f in fields]
    want = [_fromisoformat_oracle(stamp) for stamp in stamps]
    if None in want:
        with pytest.raises(ModelError) as info:
            parse_stamps(stamps)
        assert info.value.index == want.index(None)
    else:
        assert parse_stamps(stamps).tolist() == want


def test_series_requires_strictly_increasing_times():
    with pytest.raises(ModelError):
        TimeSeries("s", np.array([10, 10]), np.array([1.0, 2.0]))
    with pytest.raises(ModelError):
        TimeSeries("s", np.array([10, 5]), np.array([1.0, 2.0]))
    # np.diff would wrap to a positive step here
    with pytest.raises(ModelError):
        TimeSeries("s", np.array([9 * 10**18, -9 * 10**18]), np.array([0.0, 1.0]))


def test_series_rejects_non_finite_values():
    with pytest.raises(ModelError):
        TimeSeries("s", np.array([1, 2]), np.array([1.0, float("nan")]))


def test_sensor_kind_units():
    assert SensorKind.INDOOR_TEMPERATURE.unit == "degC"
    assert SensorKind.RELATIVE_HUMIDITY.unit == "%"
    assert SensorKind.WIND_SPEED.unit == "m/s"
    assert SensorKind.CLOUD_COVER.unit == "fraction"
    assert len(SensorKind) == 12


def test_sensor_kind_categories():
    categories = {k.category for k in SensorKind}
    assert categories == {"environmental", "atmospheric", "weather", "power"}
    assert SensorKind.POWER_PHASE.category == "power"
    assert SensorKind.POLLUTANT.category == "atmospheric"
    assert SensorKind.PRECIPITATION.category == "weather"
    assert SensorKind.OCCUPANCY.category == "environmental"


def test_sensing_rate_positive():
    with pytest.raises(ModelError):
        SensorMeta("s", "a", SensorKind.NOISE, sensing_rate=0)


def test_catalog_rejects_duplicate_sensor_ids(tiny_site):
    meta = SensorMeta("dup", "alpha", SensorKind.NOISE, 30, "r1")
    with pytest.raises(ModelError):
        DeploymentCatalog(sites=(tiny_site,), sensors=(meta, meta))


def test_catalog_rejects_dangling_references(tiny_site):
    with pytest.raises(ModelError):
        DeploymentCatalog(
            sites=(tiny_site,),
            sensors=(SensorMeta("s", "nowhere", SensorKind.NOISE, 30),))
    with pytest.raises(ModelError):
        DeploymentCatalog(
            sites=(tiny_site,),
            sensors=(SensorMeta("s", "alpha", SensorKind.NOISE, 30, "no-room"),))


def test_site_rejects_duplicate_rooms():
    room = Classroom("r", Orientation.S)
    with pytest.raises(ModelError):
        Site("a", 0.0, 0.0, 0, rooms=(room, room))


@pytest.mark.parametrize("field, value", [
    ("tz_offset_minutes", -720), ("tz_offset_minutes", 840),
    ("latitude", -90.0), ("latitude", 90.0),
    ("longitude", -180.0), ("longitude", 180.0),
])
def test_site_accepts_the_edges_of_its_ranges(field, value):
    site = Site(**{"site_id": "a", "latitude": 0.0, "longitude": 0.0, "start_time": 0,
                   field: value})
    assert getattr(site, field) == value


@pytest.mark.parametrize("field, value", [
    ("tz_offset_minutes", -721), ("tz_offset_minutes", 841), ("tz_offset_minutes", 100000),
    ("latitude", -90.5), ("latitude", 500.0), ("latitude", math.nan),
    ("longitude", 180.5), ("longitude", -900.0), ("longitude", math.inf),
])
def test_site_rejects_values_outside_their_ranges(field, value):
    with pytest.raises(ModelError, match=field):
        Site(**{"site_id": "a", "latitude": 0.0, "longitude": 0.0, "start_time": 0,
                field: value})


def test_slice_one_day_subset():
    start = utc(2017, 9, 4)
    week = series_at("s", start, 3600, np.arange(7 * 24))
    day = slice_series(week, utc(2017, 9, 5), utc(2017, 9, 6))
    assert len(day) == 24
    assert day.times[0] == utc(2017, 9, 5)
    assert day.times[-1] == utc(2017, 9, 5, 23)
    assert len(week) == 7 * 24  # input unmodified


def test_slice_empty_half_open_interval():
    s = series_at("s", utc(2017, 9, 4), 60, [1.0, 2.0, 3.0])
    t = utc(2017, 9, 4, 0, 1)
    assert len(slice_series(s, t, t)) == 0


def test_slice_full_span_identity():
    s = series_at("s", utc(2017, 9, 4), 60, [1.0, 2.0, 3.0])
    out = slice_series(s, int(s.times[0]), int(s.times[-1]) + 1)
    assert np.array_equal(out.times, s.times)
    assert np.array_equal(out.values, s.values)


def test_slice_invalid_range():
    s = series_at("s", utc(2017, 9, 4), 60, [1.0])
    with pytest.raises(ModelError):
        slice_series(s, utc(2017, 9, 5), utc(2017, 9, 4))


@given(st.integers(0, 7 * 86400), st.integers(0, 7 * 86400),
       st.integers(0, 7 * 86400), st.integers(0, 7 * 86400))
def test_slice_composition(a, b, c, d):
    base = utc(2017, 9, 4)
    series = series_at("s", base, 3600, np.arange(168.0))
    a, b = sorted((a, b))
    c, d = sorted((c, d))
    lo = max(a, c)
    hi = max(min(b, d), lo)
    twice = slice_series(slice_series(series, base + a, base + b), base + c, base + d)
    once = slice_series(series, base + lo, base + hi)
    assert np.array_equal(twice.times, once.times)


def weekend_mask(series, tz=0):
    return is_weekend(Site("a", 38.0, 23.7, 0, tz_offset_minutes=tz).local(series.times))


def test_weekend_filter_keeps_saturday():
    saturday = utc(2017, 9, 30, 12)  # 30/Sep 2017 was a Saturday
    wednesday = utc(2017, 9, 27, 12)
    s = TimeSeries("s", np.array([wednesday, saturday]), np.array([1.0, 2.0]))
    assert s.take(weekend_mask(s)).values.tolist() == [2.0]
    assert s.take(~weekend_mask(s)).values.tolist() == [1.0]


def test_weekend_filter_empty_series():
    s = TimeSeries.empty("s")
    assert len(s.take(weekend_mask(s))) == 0


@given(st.lists(st.integers(0, 14 * 86400 - 1), min_size=0, max_size=50, unique=True),
       st.sampled_from([-120, 0, 60, 120]))
def test_weekday_weekend_filters_partition_in_order(offsets, tz):
    base = utc(2017, 9, 4)
    times = np.array(sorted(offsets), dtype=np.int64) + base
    s = TimeSeries("s", times, np.zeros(len(times)))
    weekend, weekday = s.take(weekend_mask(s, tz)), s.take(~weekend_mask(s, tz))
    assert np.array_equal(np.sort(np.concatenate((weekend.times, weekday.times))), s.times)
    for out in (weekend, weekday):
        if len(out) > 1:
            assert np.all(np.diff(out.times) > 0)


# A local Friday's last second and Monday's first are school days; Saturday's first
# second and Sunday's last are weekend (2017-09-30 was a Saturday).
WEEKEND_EDGES = ((datetime(2017, 9, 29, 23, 59, 59), False), (datetime(2017, 9, 30), True),
                 (datetime(2017, 10, 1, 23, 59, 59), True), (datetime(2017, 10, 2), False))


@given(st.lists(st.integers(0, 14 * 86400 - 1), min_size=0, max_size=50, unique=True),
       st.integers(-720, 840))
@example([], 0)
@example([], -720)
@example([], 840)
def test_site_clock_round_trips_and_tells_weekends_at_every_offset(offsets, tz):
    site = Site("a", 38.0, 23.7, 0, tz_offset_minutes=tz)
    zone = timezone(timedelta(minutes=tz))
    times = np.array(sorted(offsets), dtype=np.int64) + utc(2017, 9, 4)
    local = site.local(times)
    assert np.array_equal(site.utc(local), times)
    assert is_weekend(local).tolist() == [
        datetime.fromtimestamp(t, zone).weekday() >= 5 for t in times.tolist()]
    for wall, weekend in WEEKEND_EDGES:
        instant = site.utc(to_epoch(wall))
        assert datetime.fromtimestamp(instant, zone).replace(tzinfo=None) == wall
        assert site.local(instant) == to_epoch(wall)
        assert is_weekend(site.local(instant)) == weekend
        assert is_weekend(site.local(np.array([instant]))).tolist() == [weekend]
