"""Measurement and catalog parsing, weather history, and the on-disk store.

File formats:
  catalog       JSON document with sites[] (rooms nested) and sensors[]. Site
                and sensor ids name store directories and match CSV fields,
                so none is empty, ``.`` or ``..``, or holds ``/``, ``\\``,
                NUL, a comma, a quote or a line break. Room ids are fields of
                report rows, and hold none of those characters either.
  measurements  CSV, header ``sensor_id,timestamp,value``, ISO-8601 UTC.
  weather       CSV, header ``site_id,timestamp,outdoor_temp_c,wind_speed_ms,
                cloud_cover``, hourly grid.
  store         ``<root>/<site_id>/<sensor_id>/records.bin``, one file per
                sensor of packed little-endian (int64 epoch seconds, float64
                value) records in time order, plus a ``manifest.json`` sidecar
                with the file's row count and crc32. A save replaces the file.

Both CSV formats share one table reader and one float-column parser, and
their timestamps go through the `model` codec a whole column at a time.
`synthgen` writes values as shortest round-trip decimals, and store record
files hold the raw float64 bytes, so every round trip is bit-exact. Unknown
sensors are quarantined into a rejects report rather than failing the whole
file: real deployments drift from their catalogs.

The CSV grammar is plain comma-separated text. Lines end in ``\n`` or
``\r\n``, and every comma separates two fields. There is no quoting: a ``"``
anywhere is an error naming its line. Blank lines are skipped, and error
messages count lines as they stand in the file, blank ones included.

A document is read below its header as its UTF-8 bytes, and no Python object
is made per line or field: numpy finds every ``\n`` and ``,``, and a field is
a pair of byte offsets. A row joins the run of the row before if its id has
the same bytes, and each run's id is decoded once. Written-form stamps are
decoded in arrays by `model.parse_iso8601_bytes`. A value written
``-?digits[.digits]``, with at most 8 digits before the point and 18 in all,
is decoded in arrays too: its digits give an integer mantissa M below 2**63,
eight at a time (SWAR), and M / 10**f is divided in long double, where both
are exact, so the quotient is correctly rounded to 64 bits. Every midpoint
between two adjacent doubles fits in 64 bits, so rounding that quotient to a
double gives float()'s result unless it lands exactly on a midpoint; such
values, every other spelling, and every value where long double has fewer
than 64 bits, are decoded to str one at a time and given to float(). Only an
error computes a line number, from its row's byte offset. A parser holds a
whole document's arrays at once, so `cli` hands it a file in line-aligned
pieces, each below the header (`cli._read_csv`). `cli.cmd_ingest` keeps no
piece: it appends each piece's samples, as `RECORD`s, to one spill file per
sensor in the directory `cli.SPILL_DIR` under the store root, whose name no
site id can take, and saves each sensor from its spill once every file is
read. Every sample is thus written twice. The spill directory is removed when
the ingest ends, whether it succeeds or fails.

Every text file, CSV or JSON, is UTF-8 whatever the locale.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .model import (
    DAY_SECONDS,
    Classroom,
    DeploymentCatalog,
    ModelError,
    Orientation,
    SensorKind,
    SensorMeta,
    Site,
    TimeSeries,
    byte_rows,
    format_iso8601,
    json_value,
    parse_iso8601,
    parse_iso8601_bytes,
)

MEASUREMENT_HEADER = ["sensor_id", "timestamp", "value"]
WEATHER_HEADER = ["site_id", "timestamp", "outdoor_temp_c", "wind_speed_ms", "cloud_cover"]


class IngestError(ValueError):
    """Malformed input document: a catalog, measurement or weather file."""


class StoreIntegrityError(IngestError):
    pass


def _objects(value, name: str) -> list[dict]:
    """`value` if it is a list of JSON objects; IngestError naming the field otherwise."""
    if type(value) is not list or any(type(item) is not dict for item in value):
        raise IngestError(f"{name} must be a list of objects")
    return value


# Site and sensor ids name store directories, and are matched against CSV
# fields; none of these can be either. Room ids are fields of report rows, and
# synthesized sensor ids hold them, so they hold none of these either.
_ID_FORBIDDEN = ("/", "\\", "\x00", ",", '"', "\r", "\n")


def _store_id(value, name: str, error: type[ValueError] = IngestError) -> str:
    """`value` if it is a string that can name a store directory and be a CSV field;
    `error` naming the field otherwise."""
    value = json_value(value, str, name)
    if value in ("", ".", "..") or any(c in value for c in _ID_FORBIDDEN):
        raise error(f"{name} {value!r} cannot name a store directory: an id is not "
                    f"empty, '.' or '..', and holds no /, \\, NUL, comma, quote or line break")
    return value


def _room_id(value) -> str:
    """`value` if it is a string that can be a field of a report row; IngestError naming
    the field otherwise."""
    value = json_value(value, str, "room_id")
    if any(c in value for c in _ID_FORBIDDEN):
        raise IngestError(f"room_id {value!r} cannot be a report field: a room id holds "
                          f"no /, \\, NUL, comma, quote or line break")
    return value


def parse_catalog(document: str) -> DeploymentCatalog:
    """Parse and validate a catalog document."""
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise IngestError(f"catalog syntax error at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}") from None
    if type(data) is not dict:
        raise IngestError("catalog root must be an object")

    sites = []
    for raw in _objects(data.get("sites", []), "sites"):
        try:
            site_id = _store_id(raw["site_id"], "site_id")
            rooms = tuple(
                Classroom(
                    room_id=_room_id(r["room_id"]),
                    orientation=Orientation(r.get("orientation", "S")),
                    label=json_value(r.get("label", ""), str, "label"),
                )
                for r in _objects(raw.get("rooms", []), "rooms")
            )
            sites.append(Site(
                site_id=site_id,
                latitude=json_value(raw.get("latitude", 0.0), float, "latitude"),
                longitude=json_value(raw.get("longitude", 0.0), float, "longitude"),
                start_time=parse_iso8601(json_value(raw["start_time"], str, "start_time")),
                tz_offset_minutes=json_value(raw.get("tz_offset_minutes", 0), int,
                                             "tz_offset_minutes"),
                cold_climate=json_value(raw.get("cold_climate", False), bool, "cold_climate"),
                rooms=rooms,
            ))
        except KeyError as exc:
            raise IngestError(f"site entry missing field {exc}") from None
        except ValueError as exc:
            raise IngestError(f"bad site entry: {exc}") from None

    sensors = []
    for raw in _objects(data.get("sensors", []), "sensors"):
        try:
            kind = SensorKind(raw["kind"])
            unit = raw.get("unit")
            if unit is not None and unit != kind.unit:
                raise IngestError(
                    f"sensor {raw.get('sensor_id')!r}: unit {unit!r} does not match "
                    f"{kind.value} ({kind.unit}); units are fixed per kind")
            sensors.append(SensorMeta(
                sensor_id=_store_id(raw["sensor_id"], "sensor_id"),
                site_id=json_value(raw["site_id"], str, "site_id"),
                room_id=None if raw.get("room_id") is None else json_value(
                    raw["room_id"], str, "room_id"),
                kind=kind,
                sensing_rate=json_value(raw.get("sensing_rate", 30), int, "sensing_rate"),
            ))
        except KeyError as exc:
            raise IngestError(f"sensor entry missing field {exc}") from None
        except ValueError as exc:
            raise IngestError(f"bad sensor entry: {exc}") from None

    try:
        return DeploymentCatalog(sites=tuple(sites), sensors=tuple(sensors))
    except ModelError as exc:
        raise IngestError(str(exc)) from None


def catalog_to_json(catalog: DeploymentCatalog) -> str:
    """Serialize a catalog back to its document form."""
    doc = {
        "sites": [
            {
                "site_id": s.site_id,
                "latitude": s.latitude,
                "longitude": s.longitude,
                "start_time": format_iso8601(s.start_time),
                "tz_offset_minutes": s.tz_offset_minutes,
                "cold_climate": s.cold_climate,
                "rooms": [
                    {"room_id": r.room_id, "orientation": r.orientation.value, "label": r.label}
                    for r in s.rooms
                ],
            }
            for s in catalog.sites
        ],
        "sensors": [
            {
                "sensor_id": m.sensor_id,
                "site_id": m.site_id,
                "room_id": m.room_id,
                "kind": m.kind.value,
                "sensing_rate": m.sensing_rate,
            }
            for m in catalog.sensors
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# Zero bytes after a document's copy, so that fixed-width reads from any of its
# fields stay inside the buffer; the farthest ends 56 bytes past a field's
# start, at the last word of a long id.
_PAD = 64

# Ids up to this many bytes are compared word by word to find runs of one id;
# a longer id starts a run of its own.
_RUN_ID_BYTES = 56


class _Table:
    """A CSV document's rows: the UTF-8 bytes of its lines below the header and the byte
    offsets of the fields of its rows.

    A row is a non-blank line below the header. Field k of a row runs from its
    line's start or its comma k − 1, to its comma k or its line's stop, which
    is before the line's ``\r\n``, ``\n`` or the document's end. The byte at
    a field's stop is therefore never a digit.
    """

    # Not a dataclass: `cli`'s module docstring says why.
    __slots__ = ("data", "starts", "stops", "commas")

    def __init__(self, data: np.ndarray, starts: np.ndarray, stops: np.ndarray,
                 commas: np.ndarray):
        self.data = data      # the bytes below the header, then _PAD zero bytes
        self.starts = starts  # (rows,) offset of each row's line
        self.stops = stops    # (rows,) offset past each row's last field
        self.commas = commas  # (rows, width - 1) offsets of each row's commas

    def take(self, rows) -> _Table:
        """The table of the rows that `rows`, an index or mask, selects."""
        return _Table(self.data, self.starts[rows], self.stops[rows], self.commas[rows])

    def field(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Start and stop offsets of field `k` of every row."""
        starts = self.starts if k == 0 else self.commas[:, k - 1] + 1
        stops = self.stops if k == self.commas.shape[1] else self.commas[:, k]
        return starts, stops

    def text(self, start: int, stop: int) -> str:
        return self.data[start:stop].tobytes().decode("utf-8", "surrogatepass")

    def line(self, row: int) -> int:
        """The number of a row's line in the document, counting from 1, blank lines
        included; the bytes start at line 2."""
        return int(np.count_nonzero(self.data[:self.starts[row]] == ord("\n"))) + 2

    def error(self, row: int, message: str) -> IngestError:
        """An IngestError naming a row's line."""
        return IngestError(f"line {self.line(row)}: {message}")


def _read_table(document: str, header: list[str]) -> _Table:
    """The rows of a CSV document below its header.

    The grammar is the module docstring's, checked in this order: a quote
    raises IngestError with its line; the first line, less a trailing ``\r``,
    must be the header; blank lines are skipped; every other line must hold
    one comma fewer than the header has fields, or IngestError names the first
    that does not. The quote and the header are checked on the str, the field
    counts on the document's UTF-8 bytes. No Python object is made per line or
    field.
    """
    quote = document.find('"')
    if quote >= 0:
        line = document.count("\n", 0, quote) + 1
        raise IngestError(f"line {line}: quoted fields are not supported")
    start = document.find("\n") + 1 or len(document)
    expected = ",".join(header)
    got = document[:start].removesuffix("\n").removesuffix("\r")
    if got != expected:
        raise IngestError(f"line 1: expected header {expected!r}, got {got!r}")

    # the header is ASCII, so its characters are its bytes
    raw = document.encode("utf-8", "surrogatepass")
    data = np.zeros(len(raw) - start + _PAD, np.uint8)
    text = data[:len(raw) - start]
    text[:] = np.frombuffer(raw, np.uint8, offset=start)
    breaks = np.flatnonzero(text == ord("\n"))
    starts = np.concatenate(([0], breaks + 1))
    stops = np.append(breaks, len(text))
    stops -= (stops > starts) & (data[stops - 1] == ord("\r"))
    filled = stops > starts
    if not filled.all():
        starts, stops = starts[filled], stops[filled]
    share = len(header) - 1
    commas = np.flatnonzero(text == ord(","))
    if len(commas) == len(starts) * share:
        # With sorted commas and the right total, each row holds exactly its
        # share if the share lies inside the row's line.
        shares = commas.reshape(len(starts), share)
        if len(starts) == 0 or ((shares[:, 0] >= starts) & (shares[:, -1] < stops)).all():
            return _Table(data, starts, stops, shares)
    counts = np.searchsorted(commas, stops) - np.searchsorted(commas, starts)
    row = int(np.argmax(counts != share))
    raise _Table(data, starts, stops, commas).error(
        row, f"expected {share + 1} fields, got {counts[row] + 1}")


_WORD_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], np.uint64)


def _key_codes(table: _Table) -> tuple[list[str], np.ndarray]:
    """The distinct first fields of a table's rows, sorted, and each row's index into them.

    A row whose first field has the length and bytes of the row before's joins
    that row's run, and each run's field is decoded once.
    """
    starts, stops = table.field(0)
    if len(starts) == 0:
        return [], np.empty(0, np.intp)
    length = stops - starts
    same = (length[1:] == length[:-1]) & (length[1:] <= _RUN_ID_BYTES)
    for k in range(0, min(int(length.max()), _RUN_ID_BYTES), 8):
        words = byte_rows(table.data, starts + k, 8).view("<u8")[:, 0]
        words &= _WORD_MASKS[np.clip(length - k, 0, 8)]
        same &= words[1:] == words[:-1]
    first = np.flatnonzero(np.concatenate(([True], ~same)))
    run_keys = [table.text(starts[i], stops[i]) for i in first.tolist()]
    keys = sorted(set(run_keys))
    code_of = {key: code for code, key in enumerate(keys)}
    return keys, np.repeat(np.array([code_of[key] for key in run_keys], np.intp),
                           np.diff(np.append(first, len(starts))))


def _group_rows(codes: np.ndarray, keys: list[str]) -> dict[str, np.ndarray]:
    """Indices of each code's rows in file order, by key in key order; keys without a
    row are left out."""
    counts = np.bincount(codes, minlength=len(keys))
    groups = np.split(np.argsort(codes, kind="stable"), np.cumsum(counts)[:-1])
    return {key: group for key, group, count in zip(keys, groups, counts) if count}


def _time_column(table: _Table) -> np.ndarray:
    """Epoch seconds of field 1 of the table's rows; a bad stamp raises IngestError."""
    try:
        return parse_iso8601_bytes(table.data, *table.field(1))
    except ModelError as exc:
        raise table.error(exc.index, str(exc)) from None


# The fast path's quotient M / 10**f is correctly rounded only where long
# double has at least 64 significant bits; elsewhere every value takes float().
_EXACT_QUOTIENTS = np.finfo(np.longdouble).nmant >= 63
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_POW10_LONG = _POW10.astype(np.longdouble)
# By a count of 0 to 8 leading bytes of a word: the shift that moves them to
# its top lanes, and '0' bytes for the lanes below them.
_TOP_SHIFT = np.array([64 - 8 * n for n in range(9)], np.uint64)
_ZERO_FILL = np.array([0x3030303030303030 >> 8 * n for n in range(9)], np.uint64)


def _digit_words(words: np.ndarray, count: np.ndarray):
    """Whether the first `count` (0 to 8) bytes of each little-endian word are digits, and
    the number they write.

    SWAR: the word is eight one-byte lanes. The digits move to the top lanes
    with '0's below them, so that lane i holds the digit of weight 10**(7 - i),
    and three multiply-shift-mask rounds join the lanes in pairs.
    """
    lanes = ((words << _TOP_SHIFT[count]) | _ZERO_FILL[count]) - np.uint64(0x3030303030303030)
    # a lane above 9, or one that borrowed, sets its top bit here; a lane of a
    # digit carries nothing into the next
    digits = ((lanes + np.uint64(0x7676767676767676)) | lanes) & np.uint64(0x8080808080808080) == 0
    pairs = ((lanes * np.uint64(10 << 8 | 1)) >> np.uint64(8)) & np.uint64(0x00FF00FF00FF00FF)
    quads = ((pairs * np.uint64(100 << 16 | 1)) >> np.uint64(16)) & np.uint64(0x0000FFFF0000FFFF)
    return digits, (quads * np.uint64(10000 << 32 | 1)) >> np.uint64(32)


def _decimals(data: np.ndarray, starts: np.ndarray, stops: np.ndarray):
    """Float64 values of the fields written ``-?digits[.digits]``, with at most 8 digits
    before the point and 18 in all, and a mask of the fields decoded here.

    The other fields, and those whose long-double quotient lands on a midpoint
    between two doubles, are left for float(); their values here mean nothing.
    """
    if not _EXACT_QUOTIENTS:
        return np.empty(len(starts)), np.zeros(len(starts), bool)
    negative = data[starts] == ord("-")
    at = starts + negative
    size = stops - at
    head = byte_rows(data, at, 16)
    # the int part ends at the first non-digit of the first 9 bytes
    whole = np.argmax((head[:, :9] - np.uint8(ord("0"))) > 9, axis=1)
    point = data[at + whole] == ord(".")
    fraction = size - whole - 1
    fast = (whole >= 1) & ((whole == size) | (point & (fraction >= 1) & (whole + fraction <= 18)))
    fraction[~(fast & point)] = 0
    mantissa = _digit_words(head.view("<u8")[:, 0], whole)[1].view(np.int64)
    tail = byte_rows(data, at + whole + 1, 24).view("<u8")
    for k in range(-(-int(fraction.max(initial=0)) // 8)):
        count = np.clip(fraction - 8 * k, 0, 8)
        digits, part = _digit_words(tail[:, k], count)
        fast &= digits
        mantissa = mantissa * _POW10[count] + part.view(np.int64)
    quotient = mantissa.astype(np.longdouble) / _POW10_LONG[fraction]
    values = quotient.astype(np.float64)
    # Doubles and the midpoints between them all fit in 64 bits. So rounding
    # the correctly rounded 64-bit quotient to a double gives what rounding the
    # exact quotient would, unless the quotient is a midpoint: then `beyond`,
    # the quotient mirrored past the nearest double, is a double too.
    nearest = values.astype(np.longdouble)
    beyond = 2 * quotient - nearest
    fast &= (quotient == nearest) | (beyond.astype(np.float64) != beyond)
    np.negative(values, out=values, where=negative)
    return values, fast


def _float_column(table: _Table, k: int) -> np.ndarray:
    """Float64 values of field `k` of the table's rows; a bad or non-finite value raises
    IngestError.

    Plain decimals are decoded in arrays (`_decimals`); each other field is
    decoded to str and given to float(). A bad value anywhere comes before a
    non-finite one.
    """
    starts, stops = table.field(k)
    values, fast = _decimals(table.data, starts, stops)
    for i in np.flatnonzero(~fast).tolist():
        text = table.text(starts[i], stops[i])
        try:
            values[i] = float(text)
        except ValueError:
            raise table.error(i, f"bad value {text!r}") from None
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        i = int(bad[0])
        raise table.error(i, f"non-finite value {table.text(starts[i], stops[i])!r}")
    return values


def last_wins(sensor_id: str, times: np.ndarray, values: np.ndarray) -> TimeSeries:
    """A series from samples in arrival order; a repeated timestamp keeps its last value.
    Samples whose stamps already increase, as most pieces' and spills' do, are not sorted."""
    if not np.all(times[1:] > times[:-1]):
        order = np.argsort(times, kind="stable")
        times, values = times[order], values[order]
        last_of_run = np.concatenate((times[1:] != times[:-1], [True]))
        times, values = times[last_of_run], values[last_of_run]
    return TimeSeries(sensor_id, times, values)


class ParsedMeasurements(NamedTuple):
    series: dict[str, TimeSeries]
    rejected: dict[str, int]  # unknown sensor_id -> line count


def parse_measurements(document: str, catalog: DeploymentCatalog) -> ParsedMeasurements:
    """Parse a measurements CSV into per-sensor series.

    Lines are grouped per sensor and sorted by timestamp; duplicate
    (sensor, timestamp) pairs collapse to the last occurrence in file order.
    Unknown sensor ids are quarantined, malformed lines are an error.
    """
    table = _read_table(document, MEASUREMENT_HEADER)
    keys, codes = _key_codes(table)
    known = np.array([catalog.has_sensor(key) for key in keys], bool)
    rejected = {key: count for key, count, ok in zip(
        keys, np.bincount(codes, minlength=len(keys)).tolist(), known.tolist()) if not ok}
    if rejected:
        kept = known[codes]
        table, codes = table.take(kept), codes[kept]
    times = _time_column(table)
    values = _float_column(table, 2)
    series = {key: last_wins(key, times[idx], values[idx])
              for key, idx in _group_rows(codes, keys).items()}
    return ParsedMeasurements(series, rejected)


class WeatherHistory:
    """Hourly outdoor conditions for one site; hours may be missing."""

    __slots__ = ("times", "outdoor_temp", "wind_speed", "cloud_cover")

    def __init__(self, times: np.ndarray, outdoor_temp: np.ndarray, wind_speed: np.ndarray,
                 cloud_cover: np.ndarray):
        self.times = times  # int64 epoch seconds, hourly grid
        self.outdoor_temp = outdoor_temp
        self.wind_speed = wind_speed
        self.cloud_cover = cloud_cover

    def __len__(self) -> int:
        return len(self.times)

    def rows_at(self, epochs) -> tuple[np.ndarray, np.ndarray]:
        """For each epoch, the row of the hour containing it and whether that
        hour is recorded; a row means nothing where its hour is not recorded."""
        hours = np.asarray(epochs, dtype=np.int64) // 3600 * 3600
        rows = np.searchsorted(self.times, hours)
        recorded = np.zeros(hours.shape, dtype=bool)
        inside = rows < len(self.times)
        recorded[inside] = self.times[rows[inside]] == hours[inside]
        return rows, recorded


def load_weather(document: str) -> dict[str, WeatherHistory]:
    """Parse an hourly weather CSV into per-site histories."""
    table = _read_table(document, WEATHER_HEADER)
    keys, codes = _key_codes(table)
    times = _time_column(table)
    temp, wind, cloud = (_float_column(table, k) for k in (2, 3, 4))
    for bad, message in (
            (times % 3600 != 0, "timestamp not on the hourly grid"),
            ((cloud < 0.0) | (cloud > 1.0), "cloud cover outside [0, 1]"),
            (wind < 0.0, "negative wind speed")):
        if bad.any():
            raise table.error(int(np.argmax(bad)), message)
    histories: dict[str, WeatherHistory] = {}
    for site_id, idx in _group_rows(codes, keys).items():
        if np.any(np.diff(times[idx]) <= 0):
            raise IngestError(f"site {site_id}: timestamps not strictly increasing")
        histories[site_id] = WeatherHistory(
            times=times[idx],
            outdoor_temp=temp[idx],
            wind_speed=wind[idx],
            cloud_cover=cloud[idx],
        )
    return histories


class LoadResult(NamedTuple):
    series: TimeSeries


# One stored sample: epoch seconds and value, little-endian, 16 bytes.
RECORD = np.dtype([("t", "<i8"), ("v", "<f8")])


class SeriesStore:
    """On-disk series store: one packed record file per sensor.

    ``records.bin`` holds a sensor's whole series as `RECORD`s in time order,
    so it is written from one array's buffer and read with one `frombuffer`;
    save and load are bit-exact. ``manifest.json`` beside it is
    ``{"crc32": c, "rows": n}`` for the whole file. A save replaces the
    sensor's series and never reads what was there, so a store holds exactly
    what its last writer computed. One writer per sensor directory. Reading a
    sensor checks, in order: the manifest's shape, the file size against the
    row count, the crc32, that stamps strictly increase, and that every value
    is finite. A failure names the file, and rows are counted from 1.
    """

    def __init__(self, root: Path | str):
        self.root = Path(root)

    def _sensor_dir(self, site_id: str, sensor_id: str) -> Path:
        return self.root / site_id / sensor_id

    @staticmethod
    def _read_records(sensor_dir: Path) -> np.ndarray:
        """The records of one sensor directory, after every check."""
        manifest_path = sensor_dir / "manifest.json"
        if not manifest_path.exists():
            raise StoreIntegrityError(f"{sensor_dir}: missing manifest")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except ValueError as exc:  # not UTF-8 or not JSON
            raise StoreIntegrityError(f"{manifest_path}: corrupt manifest: {exc}") from None
        # JSON decodes to exact types, and `type(...) is int` also refuses true and false
        if type(manifest) is dict and not set(manifest) <= {"crc32", "rows"}:
            raise StoreIntegrityError(
                f"{manifest_path}: store of an older version; "
                f"delete it and re-run ingest and the stages after it")
        if not (type(manifest) is dict
                and all(type(manifest.get(key)) is int for key in ("rows", "crc32"))
                and manifest["rows"] >= 0):
            raise StoreIntegrityError(
                f"{manifest_path}: manifest is not an object with integer rows and crc32, "
                f"rows at least 0")

        path = sensor_dir / "records.bin"
        data = path.read_bytes()
        size = manifest["rows"] * RECORD.itemsize
        if len(data) != size:
            raise StoreIntegrityError(
                f"{path}: {len(data)} bytes, but the manifest's row count {manifest['rows']} "
                f"needs {size}")
        if zlib.crc32(data) != manifest["crc32"]:
            raise StoreIntegrityError(f"{path}: crc32 does not match the manifest")
        records = np.frombuffer(data, RECORD)
        times = records["t"]
        for bad, message in (
            # compared, not differenced: a difference of int64 stamps can wrap
            (np.concatenate(([False], times[1:] <= times[:-1])),
             "timestamp not after the one before"),
            (~np.isfinite(records["v"]), "non-finite value"),
        ):
            if bad.any():
                raise StoreIntegrityError(f"{path}: row {int(np.argmax(bad)) + 1}: {message}")
        return records

    def save(self, site_id: str, series: TimeSeries) -> int:
        """Write the series as the sensor's whole record file, replacing what
        was there; returns how many UTC days it covers."""
        sensor_dir = self._sensor_dir(site_id, series.sensor_id)
        sensor_dir.mkdir(parents=True, exist_ok=True)
        records = np.empty(len(series), RECORD)
        records["t"], records["v"] = series.times, series.values
        # the array's own buffer is written and summed, so no copy of it is made
        (sensor_dir / "records.bin").write_bytes(records)
        manifest = {"crc32": zlib.crc32(records), "rows": len(records)}
        (sensor_dir / "manifest.json").write_text(json.dumps(manifest) + "\n", encoding="utf-8")
        days = series.times // DAY_SECONDS
        return int(np.count_nonzero(np.diff(days))) + 1 if len(days) else 0

    def load(self, site_id: str, sensor_id: str) -> LoadResult:
        """Load one sensor's series; absent sensors load empty."""
        sensor_dir = self._sensor_dir(site_id, sensor_id)
        if not sensor_dir.is_dir():
            return LoadResult(TimeSeries.empty(sensor_id))
        records = self._read_records(sensor_dir)
        return LoadResult(TimeSeries(sensor_id, records["t"], records["v"]))

    def sites(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return sorted(p.name for p in self.root.iterdir() if p.is_dir())
