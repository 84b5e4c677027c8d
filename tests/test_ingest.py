from __future__ import annotations

import json
import re
import tempfile
import tracemalloc
import zlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from schoolsense import ingest
from schoolsense.ingest import (
    MEASUREMENT_HEADER,
    RECORD,
    WEATHER_HEADER,
    CatalogError,
    IngestError,
    MeasurementFormatError,
    SeriesStore,
    StoreIntegrityError,
    WeatherFormatError,
    _read_table,
    catalog_to_json,
    load_weather,
    parse_catalog,
    parse_measurements,
)
from schoolsense.model import DAY_SECONDS, TimeSeries, format_iso8601
from schoolsense.synthgen import write_measurements_csv, write_weather_csv

from conftest import series_at, utc
from ingest_oracles import oracle_load_weather, oracle_parse_measurements, oracle_read_table


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
    ("sites", "start_time", 5),
    ("sites", "start_time", None),
    ("sites", "start_time", ["2017-10-02T00:00:00Z"]),  # a stamp, not a list of them
    ("sites", "site_id", 7),
    ("sensors", "sensor_id", 7),
    ("sensors", "room_id", 1),
])
def test_catalog_values_must_have_their_json_type(entry, field, value):
    doc = json.loads(_catalog_doc(1))
    doc[entry][0][field] = value
    with pytest.raises(CatalogError, match=f"{field} must be"):
        parse_catalog(json.dumps(doc))


@pytest.mark.parametrize("entry, field, value", [
    ("sensors", "sensor_id", ".."),  # the site's directory
    ("sensors", "sensor_id", "x/../.."),  # the store root
    ("sites", "site_id", ".."),  # outside the store
    ("sites", "site_id", "."),
    ("sites", "site_id", ""),
    ("sensors", "sensor_id", ""),
    ("sensors", "sensor_id", "a/b"),
    ("sensors", "sensor_id", "a\\b"),
    ("sensors", "sensor_id", "a\x00b"),
    # a CSV field cannot hold these, so no row could name the sensor
    ("sensors", "sensor_id", "a,b"),
    ("sensors", "sensor_id", 'a"b'),
    ("sites", "site_id", "a\rb"),
    ("sensors", "sensor_id", "a\nb"),
])
def test_catalog_ids_must_name_a_store_directory(entry, field, value):
    doc = json.loads(_catalog_doc(1))
    doc[entry][0][field] = value
    if field == "site_id":
        doc["sensors"][0]["site_id"] = value
    with pytest.raises(CatalogError, match=f"{field} {re.escape(repr(value))} cannot name"):
        parse_catalog(json.dumps(doc))


def test_catalog_ids_may_hold_dots_blanks_and_non_ascii():
    doc = json.loads(_catalog_doc(1))
    doc["sites"][0]["site_id"] = doc["sensors"][0]["site_id"] = ".site é"
    doc["sensors"][0]["sensor_id"] = "a..b t"
    catalog = parse_catalog(json.dumps(doc))
    assert [m.sensor_id for m in catalog.sensors] == ["a..b t"]


@pytest.mark.parametrize("label", ["room_id", "label"])
def test_catalog_room_strings_are_not_null(label):
    doc = json.loads(_catalog_doc(1))
    doc["sites"][0]["rooms"][0][label] = None  # str() would make it the room "None"
    with pytest.raises(CatalogError, match=f"{label} must be a string, got None"):
        parse_catalog(json.dumps(doc))


@pytest.mark.parametrize("path, value", [
    (("sites",), None),
    (("sites",), {"site_id": "site0"}),
    (("sites",), ["site0"]),
    (("sensors",), None),
    (("sensors",), [None]),
    (("sites", 0, "rooms"), "r1"),
    (("sites", 0, "rooms"), [["r1"]]),
])
def test_catalog_lists_must_hold_objects(path, value):
    doc = json.loads(_catalog_doc(1))
    *parents, field = path
    owner = doc
    for key in parents:
        owner = owner[key]
    owner[field] = value
    with pytest.raises(CatalogError, match=f"{field} must be a list of objects"):
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


def _each_block_size():
    """Yields once with the reader's block size at its default, then once at 32
    characters: a block of a line or two, so that a document of a few lines is
    read in several blocks, and its errors can sit in any of them."""
    for size in (ingest._BLOCK, 32):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_BLOCK", size)
            yield size


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


known_rows = st.tuples(
    st.sampled_from(("site0-t", "site1-t")),
    st.integers(0, 40).map(lambda m: format_iso8601(utc(2017, 9, 30, 10) + 60 * m)),
    st.sampled_from(("21.5", "22.0", "-0.0", "1e3")),
)
# unknown sensors' rows are never parsed, so a bad stamp or value in one is no error
unknown_rows = st.tuples(
    st.sampled_from(("ghost", "site9-t", "")),
    st.sampled_from(("2017-09-30T10:00:00Z", "not-a-time", "")),
    st.sampled_from(("1.0", "nope", "inf", "")),
)


@settings(deadline=None, max_examples=100)
@given(st.lists(known_rows, max_size=30), st.lists(unknown_rows, min_size=1, max_size=12),
       st.randoms(use_true_random=False))
def test_parse_measurements_unknown_rows_change_only_the_rejects(known, unknown, rnd):
    slots = sorted(rnd.choices(range(len(known) + 1), k=len(unknown)))
    mixed = list(known)
    for offset, (slot, row) in enumerate(zip(slots, unknown)):
        mixed.insert(slot + offset, row)

    catalog = parse_catalog(_catalog_doc(2))

    def parse(rows):
        return parse_measurements(
            "sensor_id,timestamp,value\n" + "".join(f"{','.join(r)}\n" for r in rows), catalog)

    got, want = parse(mixed), parse(known)
    assert list(got.series) == list(want.series)
    for sid, series in want.series.items():
        assert got.series[sid].times.tobytes() == series.times.tobytes()
        assert got.series[sid].values.tobytes() == series.values.tobytes()
    ids = [sid for sid, _, _ in unknown]
    assert got.rejected == {sid: ids.count(sid) for sid in sorted(set(ids))}
    assert want.rejected == {}


def test_parse_measurements_names_a_bad_line_after_unknown_rows(catalog):
    doc = (
        "sensor_id,timestamp,value\n"
        "ghost,not-a-time,1.0\n"
        "site0-t,2017-09-30T10:00:00Z,21.5\n"
        "ghost,2017-09-30T10:00:00Z,nope\n"
        "site0-t,2017-09-30T10:01:00Z,bad\n"
    )
    with pytest.raises(MeasurementFormatError, match="line 5: bad value 'bad'"):
        parse_measurements(doc, catalog)


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


# ---------------------------------------------------------------- the CSV grammar

@pytest.mark.parametrize("doc, line", [
    ('"sensor_id",timestamp,value\n', 1),
    ('sensor_id,timestamp,value\nsite0-t,2017-09-30T10:00:00Z,"21.5"\n', 2),
    ('sensor_id,timestamp,value\r\n\r\nsite0-t,2017-09-30T10:00:00Z,21.5\r\n'
     '"site0-t,2017-09-30T10:01:00Z",21.5\r\n', 4),
    ('sensor_id,timestamp,value\nsite0-t,2017-09-30T10:00:00Z,21.5\n\nsite0-t,x"y,1', 4),
])
def test_a_quote_anywhere_names_its_line(catalog, doc, line):
    for _ in _each_block_size():
        with pytest.raises(MeasurementFormatError, match=f"^line {line}: quoted fields"):
            parse_measurements(doc, catalog)


def test_crlf_parses_as_lf(catalog):
    rng = np.random.default_rng(7)
    series = {"site0-t": series_at("site0-t", utc(2017, 9, 4), 30, rng.normal(21, 1, 50)),
              "site1-t": series_at("site1-t", utc(2017, 9, 4), 60, rng.normal(19, 1, 20))}
    lf = write_measurements_csv(series)
    expected = parse_measurements(lf, catalog).series
    for doc in (lf.replace("\n", "\r\n"), lf.replace("\n", "\r\n").rstrip("\r\n")):
        parsed = parse_measurements(doc, catalog).series
        assert list(parsed) == list(expected)
        for sid, s in expected.items():
            assert np.array_equal(parsed[sid].times, s.times)
            assert np.array_equal(parsed[sid].values, s.values)
    weather = _weather_doc([f"a,2017-09-04T0{h}:00:00Z,15.0,1.0,0.5" for h in range(3)])
    crlf = load_weather(weather.replace("\n", "\r\n"))["a"]
    assert np.array_equal(crlf.times, load_weather(weather)["a"].times)


@pytest.mark.parametrize("bad, message", [
    ("site0-t,2017-09-30T10:01:00Z", "expected 3 fields, got 2"),
    ("site0-t,2017-09-30T10:01:00Z,21.5,x", "expected 3 fields, got 4"),
    ("site0-t,todayZ,21.5", "bad timestamp 'todayZ'"),
    ("site0-t,2017-09-30T10:01:00Z,warm", "bad value 'warm'"),
])
@pytest.mark.parametrize("ending", ["\n", "\r\n"])
def test_error_after_blank_lines_names_its_line(catalog, bad, message, ending):
    lines = ["sensor_id,timestamp,value", "", "site0-t,2017-09-30T10:00:00Z,21.5", "", "",
             bad, "site0-t,2017-09-30T10:02:00Z,21.5"]
    for _ in _each_block_size():
        with pytest.raises(MeasurementFormatError, match=f"^line 6: {message}"):
            parse_measurements(ending.join(lines) + ending, catalog)


# A field holds no quote (where the two grammars differ), no line break (the
# endings are drawn on their own) and no NUL (csv.reader refuses it before 3.11).
_field = st.text(st.characters(blacklist_characters='",\r\n\x00'), max_size=3)


@st.composite
def _quote_free_tables(draw):
    header = draw(st.sampled_from([MEASUREMENT_HEADER, WEATHER_HEADER]))
    width = len(header)
    first = header if draw(st.integers(0, 9)) else draw(st.lists(_field, max_size=width))
    rows = draw(st.lists(st.one_of(
        st.just([]),  # a blank line
        st.lists(_field, min_size=width, max_size=width),
        st.lists(_field, min_size=1, max_size=width + 2),
    ), max_size=10))
    lines = [",".join(first), *(",".join(row) for row in rows)]
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n"]),
                            min_size=len(lines), max_size=len(lines)))
    endings[-1] = draw(st.sampled_from(["\n", "\r\n", ""]))  # "": no final newline
    return header, "".join(map(str.__add__, lines, endings))


def _columns_or_error_line(read, document, header):
    """The columns and line numbers `read` gives, or the line its error names."""
    try:
        columns, lines = read(document, header, MeasurementFormatError)
    except MeasurementFormatError as exc:
        return int(re.match(r"line (\d+): ", str(exc)).group(1))
    return [list(column) for column in columns], lines


def _decoded_table(document, header, error):
    """The rows `_read_table` finds in all its blocks, decoded to columns of str, and their
    line numbers."""
    columns, lines = [[] for _ in header], []
    for table in _read_table(document, header, error):
        for k, column in enumerate(columns):
            column += (table.text(start, stop) for start, stop in zip(*table.field(k)))
        lines += (table.line(row) for row in range(len(table.starts)))
    return columns, lines


@settings(deadline=None, max_examples=300)
@given(_quote_free_tables())
def test_reader_matches_the_csv_reader_without_quotes(table):
    header, document = table
    expected = _columns_or_error_line(oracle_read_table, document, header)
    for _ in _each_block_size():
        assert _columns_or_error_line(_decoded_table, document, header) == expected


# ------------------------------------------------ the byte reader against the retired one

# Catalog ids, their prefixes, ids that differ from them only by a NUL, and
# non-ASCII ones: a row joins the run before it only if its id has the same
# length and bytes.
_ids = st.one_of(st.sampled_from(("site0-t", "site1-t")), st.sampled_from(
    ("site0-t", "site1-t", "site0-t\x00", "site0", "", "\x00", "ghost", "gé")))
_written_stamps = st.integers(0, 40).map(
    lambda m: format_iso8601(utc(2017, 9, 30, 10) + 60 * m))
_good_stamps = st.one_of(_written_stamps, _written_stamps, st.sampled_from((
    "2017-09-30 10:00:02z", "2017-09-30T12:00:01+02:00", " 2017-09-30T10:00:03Z",
    "2017-09-30T10:00:04", "2017-09-30T10:00:05.9Z")))
_stamps = st.one_of(_good_stamps, _good_stamps, _good_stamps, st.sampled_from((
    "not-a-time", "", "2017-13-30T10:00:00Z", "2017-02-29T10:00:00Z", "2017-09-30T24:00:00Z",
    "2017-09-30T10:00:00Zx", "２017-09-30T10:00:00Z")))

# texts written -?digits[.digits]; the array path takes them up to 8 and 18 digits
_canonical_values = st.builds(
    lambda sign, whole, fraction: f"{sign}{whole}" + (f".{fraction}" if fraction else ""),
    st.sampled_from(("", "-")),
    st.text("0123456789", min_size=1, max_size=8),
    st.text("0123456789", max_size=12),  # past 18 digits in all at times
)
# every spelling that goes to float(): exponents, '_', blanks, '+', Unicode
# digits, a bare point, longer mantissas; then nan, inf and values that fail
_odd_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),  # exponents too
    st.builds("{}e{}".format, st.integers(-10**6, 10**6), st.integers(-330, 300)),
    st.text("0123456789", min_size=19, max_size=24).map(lambda t: f"{t[:8]}.{t[8:]}"),
    st.text("0123456789", min_size=9, max_size=12),
    st.sampled_from(("1_0", " 1.5", "1.5 ", "+1", "١٢", "1.", ".5", "-.5", "-0", "-0.0")),
)
_bad_values = st.sampled_from(("nan", "-nan", "inf", "-Infinity", "1e400", "nope", "", "-",
                               "1.2.3", "--1", "1e", "0x10", "٫5"))
_good_values = st.one_of(_canonical_values, _canonical_values, _odd_values)
_values = st.one_of(_good_values, _good_values, _bad_values)


@st.composite
def _documents(draw, header, clean_row, dirty_row):
    """A CSV document of drawn rows. Some documents have bad fields; some also a
    wrong header, wrong comma counts or quotes. All mix CRLF and blank lines."""
    dirt = draw(st.sampled_from((0, 0, 1, 2)))
    first = ",".join(header)
    if dirt == 2 and not draw(st.integers(0, 9)):
        first = draw(st.sampled_from(("", first + ",", first.upper())))
    lines = [first]
    for fields in draw(st.lists(dirty_row if dirt else clean_row, max_size=25)):
        kind = draw(st.integers(0, 39)) if dirt == 2 else 9
        if kind == 0:
            lines.append("")
        elif kind == 1:
            lines.append(",".join(fields[:-1]))
        elif kind == 2:
            lines.append(",".join(fields) + ",x")
        elif kind == 3:
            lines.append(",".join(fields) + '"')
        else:
            lines.append(",".join(fields))
        if not draw(st.integers(0, 9)):
            lines.append("")
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                            max_size=len(lines)))
    endings[-1] = draw(st.sampled_from(["\n", "\r\n", ""]))
    return "".join(map(str.__add__, lines, endings))


def _measurement_outcome(parse, document, catalog):
    """The series bits and rejects `parse` gives, or its error's class and text."""
    try:
        parsed = parse(document, catalog)
    except IngestError as exc:
        return type(exc).__name__, str(exc)
    return ([(sid, s.times.tobytes(), s.values.tobytes()) for sid, s in parsed.series.items()],
            list(parsed.rejected.items()))


_measurement_documents = _documents(MEASUREMENT_HEADER, st.tuples(_ids, _good_stamps, _good_values),
                                    st.tuples(_ids, _stamps, _values))


@settings(deadline=None, max_examples=400)
@given(_measurement_documents)
@example("sensor_id,timestamp,value\nsite0-t,2017-09-30T10:00:00Z,1\n"
         "site0-t\x00,2017-09-30T10:01:00Z,2\n")
@example("sensor_id,timestamp,value\n\x00,2017-09-30T10:00:00Z,1\n,2017-09-30T10:01:00Z,2\n")
# a bad value outranks a non-finite one on an earlier line, in an earlier block
@example("sensor_id,timestamp,value\nsite0-t,2017-09-30T10:00:00Z,inf\n"
         "site0-t,2017-09-30T10:01:00Z,1\nsite0-t,2017-09-30T10:02:00Z,warm\n")
# a field count on a later line outranks a bad value in an earlier block
@example("sensor_id,timestamp,value\nsite0-t,2017-09-30T10:00:00Z,warm\n"
         "site0-t,2017-09-30T10:01:00Z,1\nsite0-t,2017-09-30T10:02:00Z\n")
def test_parse_measurements_matches_the_retired_parser(document):
    catalog = parse_catalog(_catalog_doc(2))
    expected = _measurement_outcome(oracle_parse_measurements, document, catalog)
    for _ in _each_block_size():
        assert _measurement_outcome(parse_measurements, document, catalog) == expected


@settings(deadline=None, max_examples=100)
@given(_measurement_documents)
def test_parse_measurements_matches_the_retired_parser_without_long_double(document):
    """Where long double is a plain double, every value goes to float()."""
    catalog = parse_catalog(_catalog_doc(2))
    expected = _measurement_outcome(oracle_parse_measurements, document, catalog)
    for _ in _each_block_size():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_EXACT_QUOTIENTS", False)
            assert _measurement_outcome(parse_measurements, document, catalog) == expected


_hours = st.integers(0, 40).map(lambda h: format_iso8601(utc(2017, 9, 30) + 3600 * h))
_fractions = st.one_of(st.floats(0.0, 1.0).map(repr), st.sampled_from(("0", "1", "-0.0", "1.0")))
_weather_sites = st.sampled_from(("a", "b", "ab", "", "\x00"))


def _weather_doc(rows):
    return "site_id,timestamp,outdoor_temp_c,wind_speed_ms,cloud_cover\n" + "\n".join(rows) + "\n"


def _weather_outcome(load, document):
    try:
        histories = load(document)
    except IngestError as exc:
        return type(exc).__name__, str(exc)
    return [(site, *(getattr(h, name).tobytes() for name in
                     ("times", "outdoor_temp", "wind_speed", "cloud_cover")))
            for site, h in histories.items()]


# A clean row's hour is drawn, so clean documents still fail the grid order at
# times; the test below writes a valid one out.
@settings(deadline=None, max_examples=300)
@given(_documents(WEATHER_HEADER,
                  st.tuples(_weather_sites, _hours, _good_values, _fractions, _fractions),
                  st.tuples(_weather_sites, st.one_of(_hours, _stamps), _values, _values,
                            _values)))
# errors outrank those of later fields and row checks on earlier lines, in earlier blocks
@example(_weather_doc(["a,2017-09-30T00:00:00Z,15.0,1.0,2.0",
                       "a,2017-09-30T01:30:00Z,15.0,1.0,0.5"]))
@example(_weather_doc(["a,2017-09-30T00:00:00Z,15.0,inf,0.5",
                       "a,2017-09-30T01:00:00Z,warm,1.0,0.5"]))
@example(_weather_doc(["a,2017-09-30T00:00:00Z,15.0,-1.0,0.5",
                       "a,2017-09-30T01:00:00Z,15.0,1.0,2.0"]))
def test_load_weather_matches_the_retired_loader(document):
    expected = _weather_outcome(oracle_load_weather, document)
    for _ in _each_block_size():
        assert _weather_outcome(load_weather, document) == expected


def test_load_weather_matches_the_retired_loader_on_valid_hours():
    """Valid documents are rare among drawn ones, so one is written out too."""
    rows = [f"{site},{format_iso8601(utc(2017, 9, 4) + h * 3600)},{15.25 + h / 7!r},"
            f"{h / 3},{h / 50}" for h in range(40) for site in ("b", "a")]
    document = _weather_doc(rows)
    assert len(load_weather(document)["a"]) == 40
    expected = _weather_outcome(oracle_load_weather, document)
    for _ in _each_block_size():
        assert _weather_outcome(load_weather, document) == expected


def test_parse_measurements_holds_less_than_twice_its_document(catalog):
    """The reader holds one block's arrays at a time, so that parsing's own peak, numpy's
    buffers included, stays below twice the document's size; a reader of the whole
    document held about 5.7 times it here."""
    rng = np.random.default_rng(3)
    series = {sid: series_at(sid, utc(2017, 9, 4), 60, rng.normal(21, 1, 33_000))
              for sid in ("site0-t", "site1-t")}
    document = write_measurements_csv(series)
    assert len(document.encode()) > 3_000_000
    tracemalloc.start()
    try:
        parsed = parse_measurements(document, catalog)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(s) for s in parsed.series.values()] == [33_000, 33_000]
    assert peak < 2 * len(document.encode())


# ------------------------------------------------------------ the decimal kernel

def _kernel(texts):
    """`ingest._decimals` on the texts laid out as the fields of one line."""
    raw = ",".join(texts).encode("utf-8", "surrogatepass")
    data = np.zeros(len(raw) + ingest._PAD, np.uint8)
    data[:len(raw)] = np.frombuffer(raw, np.uint8)
    sizes = np.array([len(t.encode("utf-8", "surrogatepass")) for t in texts], np.int64)
    stops = np.cumsum(sizes + 1) - 1
    return ingest._decimals(data, stops - sizes, stops)


def _float_bits(text):
    try:
        return int(np.float64(float(text)).view(np.int64))
    except ValueError:
        return None


def _plain(text):
    """Whether a text is written -?digits[.digits], with at most 8 digits before the point
    and 18 in all: the spelling the array path may take."""
    return (re.fullmatch(r"-?[0-9]{1,8}(\.[0-9]+)?", text) is not None
            and sum(c.isdigit() for c in text) <= 18)


def _on_a_midpoint(text):
    """Whether the text's value, rounded to a 64-bit significand (half to even), lies
    halfway between two adjacent doubles: then its low 11 bits are 100 0000 0000."""
    value = abs(Fraction(text))
    if not value:
        return False
    exponent = value.numerator.bit_length() - value.denominator.bit_length()
    if value < Fraction(2) ** exponent:
        exponent -= 1
    return round(value / Fraction(2) ** (exponent - 63)) % 2**11 == 2**10


# Without the midpoint test, the long-double quotient of each of these rounds
# to the wrong double.
MIDPOINT_DECIMALS = ["27818826.961012410", "72077766.53710749", "96921533.30273626"]


@settings(deadline=None, max_examples=300)
@given(st.lists(_values, min_size=1, max_size=40))
@example(MIDPOINT_DECIMALS)
# 19 digits, some with a mantissa of 2**63 or more, and signed zeros
@example(["99999999.99999999999", "9223372.036854775808", "9223372.03685477580", "-0.0", "-0"])
@example(["21.201889984857356", "12345678.1234567891", "00000000.000000001", "-7.5", "0",
          "123456789.5", "1e3", "+1", " 1", "1.", ".5", "-", "nan", "١٢", "1_0", "", "1.2.3"])
def test_decimal_kernel_matches_float_bit_for_bit(texts):
    """The kernel takes exactly the plain decimals that do not land on a midpoint, and
    gives float()'s bits for each of them, -0.0 included."""
    values, taken = _kernel(texts)
    for text, value, took in zip(texts, values.view(np.int64).tolist(), taken.tolist()):
        assert took == (_plain(text) and not _on_a_midpoint(text)), text
        if took:
            assert value == _float_bits(text), text


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
