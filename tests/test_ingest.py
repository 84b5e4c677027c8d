from __future__ import annotations

import json
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schoolsense.ingest import (
    RECORD,
    CatalogError,
    MeasurementFormatError,
    SeriesStore,
    StoreIntegrityError,
    WeatherFormatError,
    catalog_to_json,
    load_weather,
    parse_catalog,
    parse_measurements,
    write_measurements_csv,
    write_weather_csv,
)
from schoolsense.model import DAY_SECONDS, TimeSeries, format_iso8601

from conftest import series_at, utc


def _catalog_doc(n_sites=1):
    return json.dumps({
        "sites": [
            {
                "site_id": f"site{i}",
                "latitude": 38.0,
                "longitude": 23.7,
                "start_time": "2015-10-01T00:00:00Z",
                "tz_offset_minutes": 120,
                "rooms": [{"room_id": "r1", "orientation": "SW"}],
            }
            for i in range(n_sites)
        ],
        "sensors": [
            {"sensor_id": f"site{i}-t", "site_id": f"site{i}",
             "room_id": "r1", "kind": "indoor_temperature", "sensing_rate": 30}
            for i in range(n_sites)
        ],
    })


def test_catalog_with_18_sites():
    catalog = parse_catalog(_catalog_doc(18))
    assert len(catalog.sites) == 18
    assert len(catalog.sensors) == 18


def test_catalog_dangling_room_reference():
    doc = json.loads(_catalog_doc(1))
    doc["sensors"][0]["room_id"] = "no-such-room"
    with pytest.raises(CatalogError):
        parse_catalog(json.dumps(doc))


def test_catalog_duplicate_sensor_id():
    doc = json.loads(_catalog_doc(1))
    doc["sensors"].append(dict(doc["sensors"][0]))
    with pytest.raises(CatalogError):
        parse_catalog(json.dumps(doc))


def test_catalog_empty_is_valid():
    catalog = parse_catalog(json.dumps({"sites": [], "sensors": []}))
    assert catalog.sites == ()


def test_catalog_syntax_error_reports_position():
    with pytest.raises(CatalogError, match=r"line \d+"):
        parse_catalog('{"sites": [}')


def test_catalog_rejects_unit_mismatch():
    doc = json.loads(_catalog_doc(1))
    doc["sensors"][0]["unit"] = "K"
    with pytest.raises(CatalogError, match="unit"):
        parse_catalog(json.dumps(doc))


def test_catalog_roundtrip():
    catalog = parse_catalog(_catalog_doc(3))
    again = parse_catalog(catalog_to_json(catalog))
    assert again == catalog


@pytest.mark.parametrize("entry, field, value", [
    ("sites", "cold_climate", "false"),  # a non-empty string is truthy
    ("sites", "cold_climate", 1),
    ("sites", "tz_offset_minutes", 90.9),
    ("sites", "tz_offset_minutes", "120"),
    ("sites", "tz_offset_minutes", True),
    ("sites", "latitude", "38.0"),
    ("sensors", "sensing_rate", 2.9),
    ("sensors", "sensing_rate", 30.0),
])
def test_catalog_values_must_have_their_json_type(entry, field, value):
    doc = json.loads(_catalog_doc(1))
    doc[entry][0][field] = value
    with pytest.raises(CatalogError, match=f"{field} must be"):
        parse_catalog(json.dumps(doc))


def test_catalog_numbers_and_flags_keep_their_json_type():
    doc = json.loads(_catalog_doc(1))
    doc["sites"][0].update(latitude=38, cold_climate=True, tz_offset_minutes=-300)
    site = parse_catalog(json.dumps(doc)).sites[0]
    assert (site.latitude, site.cold_climate, site.tz_offset_minutes) == (38.0, True, -300)
    assert type(site.latitude) is float


@pytest.fixture
def catalog():
    return parse_catalog(_catalog_doc(2))


def test_parse_measurements_sorts_out_of_order(catalog):
    doc = (
        "sensor_id,timestamp,value\n"
        "site0-t,2017-09-30T10:01:00Z,21.7\n"
        "site0-t,2017-09-30T10:00:00Z,21.5\n"
        "site0-t,2017-09-30T10:02:00Z,21.9\n"
    )
    parsed = parse_measurements(doc, catalog)
    series = parsed.series["site0-t"]
    assert len(series) == 3
    assert series.values.tolist() == [21.5, 21.7, 21.9]


def test_parse_measurements_direct_example(catalog):
    parsed = parse_measurements(
        "sensor_id,timestamp,value\nsite0-t,2017-09-30T10:00:00Z,21.5\n", catalog)
    series = parsed.series["site0-t"]
    assert series.times[0] == utc(2017, 9, 30, 10)
    assert series.values[0] == 21.5


def test_parse_measurements_duplicate_timestamp_last_wins(catalog):
    doc = (
        "sensor_id,timestamp,value\n"
        "site0-t,2017-09-30T10:00:00Z,21.5\n"
        "site0-t,2017-09-30T10:00:00Z,22.5\n"
    )
    series = parse_measurements(doc, catalog).series["site0-t"]
    assert len(series) == 1
    assert series.values[0] == 22.5


def test_parse_measurements_malformed_line_number(catalog):
    doc = (
        "sensor_id,timestamp,value\n"
        "site0-t,2017-09-30T10:00:00Z,21.5\n"
        "site0-t,not-a-time,21.5\n"
    )
    with pytest.raises(MeasurementFormatError, match="line 3"):
        parse_measurements(doc, catalog)
    doc = "sensor_id,timestamp,value\nsite0-t,2017-09-30T10:00:00Z,nope\n"
    with pytest.raises(MeasurementFormatError, match="line 2"):
        parse_measurements(doc, catalog)


NON_ISO_STAMPS = ["todayZ", "nowZ", "NaTZ", "Z", "2017Z", "2017-10Z"]


@pytest.mark.parametrize("stamp", NON_ISO_STAMPS)
def test_parse_measurements_rejects_non_iso_stamp_with_line(catalog, stamp):
    doc = (
        "sensor_id,timestamp,value\n"
        "site0-t,2017-09-30T10:00:00Z,21.5\n"
        "\n"
        f"site0-t,{stamp},21.5\n"
    )
    with pytest.raises(MeasurementFormatError, match=f"line 4: bad timestamp '{stamp}'"):
        parse_measurements(doc, catalog)


def test_parse_measurements_reads_every_iso_form(catalog):
    stamps = ["2017-09-30T10:00:00Z", "2017-09-30T12:00:01+02:00", "2017-09-30 10:00:02z",
              "2017-09-30T10:00:03.9Z", "2017-09-30T10:00:04"]
    doc = "sensor_id,timestamp,value\n" + "".join(f"site0-t,{t},1.0\n" for t in stamps)
    series = parse_measurements(doc, catalog).series["site0-t"]
    assert series.times.tolist() == [utc(2017, 9, 30, 10) + k for k in range(5)]


def test_parse_measurements_rejects_non_finite(catalog):
    doc = "sensor_id,timestamp,value\nsite0-t,2017-09-30T10:00:00Z,inf\n"
    with pytest.raises(MeasurementFormatError, match="non-finite"):
        parse_measurements(doc, catalog)


def test_parse_measurements_quarantines_unknown_sensors(catalog):
    doc = (
        "sensor_id,timestamp,value\n"
        "ghost,2017-09-30T10:00:00Z,1.0\n"
        "ghost,2017-09-30T10:01:00Z,2.0\n"
        "site0-t,2017-09-30T10:00:00Z,21.5\n"
    )
    parsed = parse_measurements(doc, catalog)
    assert parsed.rejected == {"ghost": 2}
    assert set(parsed.series) == {"site0-t"}


def test_parse_measurements_reparse_fixpoint(catalog):
    rng = np.random.default_rng(4)
    series = {
        "site0-t": series_at("site0-t", utc(2017, 9, 4), 30, rng.normal(21, 1, 200)),
        "site1-t": series_at("site1-t", utc(2017, 9, 4), 60, rng.normal(19, 1, 100)),
    }
    text = write_measurements_csv(series)
    once = parse_measurements(text, catalog).series
    twice = parse_measurements(write_measurements_csv(once), catalog).series
    for sid in series:
        assert np.array_equal(once[sid].times, twice[sid].times)
        assert np.array_equal(once[sid].values, twice[sid].values)


def _weather_doc(rows):
    return "site_id,timestamp,outdoor_temp_c,wind_speed_ms,cloud_cover\n" + "\n".join(rows) + "\n"


def test_load_weather_48_hours():
    rows = [
        f"a,{format_iso8601(utc(2017, 9, 4) + h * 3600)},{15 + h % 10}.0,1.0,0.5"
        for h in range(48)
    ]
    history = load_weather(_weather_doc(rows))["a"]
    assert len(history) == 48


def test_load_weather_cloud_range_error():
    rows = [f"a,{format_iso8601(utc(2017, 9, 4))},15.0,1.0,1.3"]
    with pytest.raises(WeatherFormatError, match="cloud"):
        load_weather(_weather_doc(rows))


def test_load_weather_gap_recorded():
    t0 = utc(2017, 9, 4)
    rows = [
        f"a,{format_iso8601(t0)},15.0,1.0,0.5",
        f"a,{format_iso8601(t0 + 3 * 3600)},16.0,1.0,0.5",
    ]
    history = load_weather(_weather_doc(rows))["a"]
    assert len(history) == 2
    # each epoch finds the hour containing it, if that hour is recorded
    rows, recorded = history.rows_at([t0 - 1, t0 + 3600, t0 + 3 * 3600 + 3599, t0 + 4 * 3600])
    assert recorded.tolist() == [False, False, True, False]
    row = rows[2]
    assert (history.outdoor_temp[row], history.wind_speed[row], history.cloud_cover[row]) \
        == (16.0, 1.0, 0.5)


def test_load_weather_rejects_off_grid_timestamp():
    rows = [f"a,2017-09-04T00:30:00Z,15.0,1.0,0.5"]
    with pytest.raises(WeatherFormatError, match="hourly"):
        load_weather(_weather_doc(rows))


@pytest.mark.parametrize("stamp", NON_ISO_STAMPS)
def test_load_weather_rejects_non_iso_stamp_with_line(stamp):
    rows = [f"a,{format_iso8601(utc(2017, 9, 4))},15.0,1.0,0.5", f"a,{stamp},15.0,1.0,0.5"]
    with pytest.raises(WeatherFormatError, match=f"line 3: bad timestamp '{stamp}'"):
        load_weather(_weather_doc(rows))


def test_load_weather_rejects_bad_value_with_line():
    t0 = utc(2017, 9, 4)
    rows = [f"a,{format_iso8601(t0)},15.0,1.0,0.5", f"a,{format_iso8601(t0 + 3600)},x,1.0,0.5"]
    with pytest.raises(WeatherFormatError, match="line 3: bad value 'x'"):
        load_weather(_weather_doc(rows))


def test_weather_roundtrip():
    rows = [
        f"a,{format_iso8601(utc(2017, 9, 4) + h * 3600)},{15.25 + h},1.5,0.25"
        for h in range(5)
    ]
    histories = load_weather(_weather_doc(rows))
    again = load_weather(write_weather_csv(histories))
    assert np.array_equal(histories["a"].times, again["a"].times)
    assert np.array_equal(histories["a"].outdoor_temp, again["a"].outdoor_temp)


def test_store_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    series = series_at("t1", utc(2017, 9, 4, 23), 30, rng.normal(20, 3, 1000))
    store = SeriesStore(tmp_path)
    store.save("alpha", series)
    loaded = store.load("alpha", "t1")
    assert np.array_equal(loaded.series.times, series.times)
    assert np.array_equal(loaded.series.values, series.values)  # bit-exact


def test_store_partitions_by_day(tmp_path):
    series = series_at("t1", utc(2017, 9, 4, 23), 1800, np.arange(10.0))
    SeriesStore(tmp_path).save("alpha", series)
    sensor_dir = tmp_path / "alpha" / "t1"
    assert sorted(p.name for p in sensor_dir.iterdir()) == ["manifest.json", "records.bin"]
    data = (sensor_dir / "records.bin").read_bytes()
    assert len(data) == 10 * RECORD.itemsize
    # one row count and one crc32 for the whole file, whichever days it covers
    assert json.loads((sensor_dir / "manifest.json").read_text()) == {
        "crc32": zlib.crc32(data), "rows": 10}


@pytest.mark.parametrize("start, samples, partitions", [
    (utc(2017, 9, 4, 23), 10, 2),
    (utc(2017, 9, 4), 3 * 48, 3),
    (utc(2017, 9, 4), 0, 0),
])
def test_store_save_returns_partitions_written(tmp_path, start, samples, partitions):
    series = series_at("t1", start, 1800, np.arange(float(samples)))
    store = SeriesStore(tmp_path)
    assert store.save("alpha", series) == partitions
    assert json.loads((tmp_path / "alpha" / "t1" / "manifest.json").read_text())["rows"] == samples
    assert len(store.load("alpha", "t1").series) == samples


def test_store_missing_sensor_absent(tmp_path):
    result = SeriesStore(tmp_path).load("alpha", "ghost")
    assert len(result.series) == 0


def test_store_corrupt_manifest_detected(tmp_path):
    series = series_at("t1", utc(2017, 9, 4), 30, np.arange(10.0))
    store = SeriesStore(tmp_path)
    store.save("alpha", series)
    manifest = tmp_path / "alpha" / "t1" / "manifest.json"
    entries = json.loads(manifest.read_text())
    entries["rows"] = 99
    manifest.write_text(json.dumps(entries))
    with pytest.raises(StoreIntegrityError, match="row count"):
        store.load("alpha", "t1")


@pytest.mark.parametrize("text", ["{", "[1, 2]"])
def test_store_unreadable_manifest_detected(tmp_path, text):
    series = series_at("t1", utc(2017, 9, 4), 30, np.arange(10.0))
    store = SeriesStore(tmp_path)
    store.save("alpha", series)
    (tmp_path / "alpha" / "t1" / "manifest.json").write_text(text)
    with pytest.raises(StoreIntegrityError, match="manifest"):
        store.load("alpha", "t1")
    store.save("alpha", series)  # a save never reads the damaged files
    assert np.array_equal(store.load("alpha", "t1").series.values, series.values)


@pytest.mark.parametrize("entry, message", [
    ({"2017-09-04": 10}, "re-run ingest"),  # a store written with CSV partitions
    ([10, 0], "not an object"),
    ({"rows": 10}, "integer rows and crc32"),
    ({"rows": "10", "crc32": 0}, "integer rows and crc32"),
    ({"rows": -1, "crc32": 0}, "rows at least 0"),
    ({"2017-09-04": {"rows": 10, "crc32": 0}}, "re-run ingest"),  # one file per day
    ({"rows": True, "crc32": 0}, "integer rows and crc32"),
])
def test_store_manifest_entries_must_be_records(tmp_path, entry, message):
    series = series_at("t1", utc(2017, 9, 4), 30, np.arange(10.0))
    store = SeriesStore(tmp_path)
    store.save("alpha", series)
    manifest = tmp_path / "alpha" / "t1" / "manifest.json"
    manifest.write_text(json.dumps(entry))
    with pytest.raises(StoreIntegrityError, match=message) as info:
        store.load("alpha", "t1")
    assert str(info.value).startswith(f"{manifest}: ")


# Signed zero, subnormals and the ends of the float64 range must survive as bytes.
EDGE_VALUES = (-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308)
store_values = st.one_of(st.sampled_from(EDGE_VALUES),
                         st.floats(allow_nan=False, allow_infinity=False))


def _draw_series(data):
    offsets = data.draw(st.lists(st.integers(0, 4 * DAY_SECONDS - 1), max_size=60, unique=True))
    times = utc(2017, 9, 4) + np.array(sorted(offsets), dtype=np.int64)
    values = data.draw(st.lists(store_values, min_size=len(times), max_size=len(times)))
    return TimeSeries("t1", times, np.array(values, dtype=np.float64))


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_store_second_save_replaces_first_bit_exact(data):
    """A save replaces the sensor's series, whichever days either save covers."""
    first, second = _draw_series(data), _draw_series(data)
    with tempfile.TemporaryDirectory() as root:
        store = SeriesStore(root)
        store.save("alpha", first)
        assert store.save("alpha", second) == len(set((second.times // DAY_SECONDS).tolist()))
        loaded = store.load("alpha", "t1").series
    assert np.array_equal(loaded.times, second.times)
    assert np.array_equal(loaded.values.view(np.int64), second.values.view(np.int64))
