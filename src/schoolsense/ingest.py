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

A document is read below its header in blocks of about 256 KiB, each ending
just after a ``\n``, so that parsing holds one block's arrays at a time
besides the document and its parsed columns. Each block is read as its UTF-8
bytes, and no Python object is made per line or field: numpy finds every
``\n`` and ``,``, and a field is a pair of byte offsets. Each id's columns
are kept block by block in file order and joined after the last block. A row
joins the run of the row before if its id has the same bytes, and each run's
id is decoded once in its block. Written-form stamps are decoded in arrays
by `model.parse_iso8601_bytes`. A value written ``-?digits[.digits]``, with at
most 8 digits before the point and 18 in all, is decoded in arrays too: its
digits give an integer mantissa M below 2**63, eight at a time (SWAR), and
M / 10**f is divided in long double, where both are exact, so the quotient is
correctly rounded to 64 bits. Every midpoint between two adjacent doubles
fits in 64 bits, so rounding that quotient to a double gives float()'s
result unless it lands exactly on a midpoint; such values, every other
spelling, and every value where long double has fewer than 64 bits, are
decoded to str one at a time and given to float(). Only an error computes a
line number, from its row's byte offset and its block's first line. A
document raises the error it would raise if it were read in one block: when
a block's checks fail, every line below the header is read again as one
block (`_read_groups`).

Every text file, CSV or JSON, is UTF-8 whatever the locale.
"""

from __future__ import annotations

import json
import zlib
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

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
    """Malformed input document."""


class CatalogError(IngestError):
    pass


class MeasurementFormatError(IngestError):
    pass


class WeatherFormatError(IngestError):
    pass


class StoreIntegrityError(IngestError):
    pass


def _objects(value, name: str) -> list[dict]:
    """`value` if it is a list of JSON objects; CatalogError naming the field otherwise."""
    if type(value) is not list or any(type(item) is not dict for item in value):
        raise CatalogError(f"{name} must be a list of objects")
    return value


# Site and sensor ids name store directories, and are matched against CSV
# fields; none of these can be either. Room ids are fields of report rows, and
# synthesized sensor ids hold them, so they hold none of these either.
_ID_FORBIDDEN = ("/", "\\", "\x00", ",", '"', "\r", "\n")


def _store_id(value, name: str, error: type[ValueError] = CatalogError) -> str:
    """`value` if it is a string that can name a store directory and be a CSV field;
    `error` naming the field otherwise."""
    value = json_value(value, str, name)
    if value in ("", ".", "..") or any(c in value for c in _ID_FORBIDDEN):
        raise error(f"{name} {value!r} cannot name a store directory: an id is not "
                    f"empty, '.' or '..', and holds no /, \\, NUL, comma, quote or line break")
    return value


def _room_id(value) -> str:
    """`value` if it is a string that can be a field of a report row; CatalogError naming
    the field otherwise."""
    value = json_value(value, str, "room_id")
    if any(c in value for c in _ID_FORBIDDEN):
        raise CatalogError(f"room_id {value!r} cannot be a report field: a room id holds "
                           f"no /, \\, NUL, comma, quote or line break")
    return value


def parse_catalog(document: str) -> DeploymentCatalog:
    """Parse and validate a catalog document."""
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise CatalogError(f"catalog syntax error at line {exc.lineno}, column {exc.colno}: "
                           f"{exc.msg}") from None
    if type(data) is not dict:
        raise CatalogError("catalog root must be an object")

    sites = []
    for raw in _objects(data.get("sites", []), "sites"):
        try:
            site_id = _store_id(raw["site_id"], "site_id")
            rooms = tuple(
                Classroom(
                    room_id=_room_id(r["room_id"]),
                    site_id=site_id,
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
            raise CatalogError(f"site entry missing field {exc}") from None
        except (ValueError, ModelError) as exc:
            raise CatalogError(f"bad site entry: {exc}") from None

    sensors = []
    for raw in _objects(data.get("sensors", []), "sensors"):
        try:
            kind = SensorKind(raw["kind"])
            unit = raw.get("unit")
            if unit is not None and unit != kind.unit:
                raise CatalogError(
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
            raise CatalogError(f"sensor entry missing field {exc}") from None
        except (ValueError, ModelError) as exc:
            raise CatalogError(f"bad sensor entry: {exc}") from None

    try:
        return DeploymentCatalog(sites=tuple(sites), sensors=tuple(sensors))
    except ModelError as exc:
        raise CatalogError(str(exc)) from None


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
    """One block of a CSV document's rows: its lines' UTF-8 bytes and the byte offsets of
    the fields of its rows.

    A row is a non-blank line below the header. Field k of a row runs from its
    line's start or its comma k − 1, to its comma k or its line's stop, which
    is before the line's ``\r\n``, ``\n`` or the document's end. The byte at
    a field's stop is therefore never a digit.
    """

    # Not a dataclass: every command builds its classes afresh, and a frozen
    # dataclass takes about 1 ms to build.
    __slots__ = ("data", "starts", "stops", "commas", "first_line")

    def __init__(self, data: np.ndarray, starts: np.ndarray, stops: np.ndarray,
                 commas: np.ndarray, first_line: int):
        self.data = data      # the block's bytes, then _PAD zero bytes
        self.starts = starts  # (rows,) offset of each row's line
        self.stops = stops    # (rows,) offset past each row's last field
        self.commas = commas  # (rows, width - 1) offsets of each row's commas
        self.first_line = first_line  # the number in the file of the block's first line

    def take(self, rows) -> _Table:
        """The table of the rows that `rows`, an index or mask, selects."""
        return _Table(self.data, self.starts[rows], self.stops[rows], self.commas[rows],
                      self.first_line)

    def field(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Start and stop offsets of field `k` of every row."""
        starts = self.starts if k == 0 else self.commas[:, k - 1] + 1
        stops = self.stops if k == self.commas.shape[1] else self.commas[:, k]
        return starts, stops

    def text(self, start: int, stop: int) -> str:
        return self.data[start:stop].tobytes().decode("utf-8", "surrogatepass")

    def line(self, row: int) -> int:
        """The number of a row's line in the file, counting from 1, blank lines included."""
        return int(np.count_nonzero(self.data[:self.starts[row]] == ord("\n"))) + self.first_line

    def error(self, error: type[IngestError], row: int, message: str) -> IngestError:
        """`error` naming a row's line."""
        return error(f"line {self.line(row)}: {message}")


# Below its header, a document is read in blocks of about this many characters,
# each ending just after a line break. A block's arrays take several times its
# size, and each block costs about 0.3 ms of numpy calls. On 2.4 MB measurement
# files, 64 KiB blocks took 1.5 times as long to parse as these, and 1 MiB
# blocks raised parsing's peak 2.8 times.
_BLOCK = 1 << 18


def _read_table(document: str, header: list[str], error: type[IngestError]) -> Iterator[_Table]:
    """The rows of a CSV document below its header, as one `_Table` per block of lines.

    The grammar is the module docstring's, checked in this order: a quote
    raises `error` with its line; the first line, less a trailing ``\r``, must
    be the header; blank lines are skipped; every other line must hold one
    comma fewer than the header has fields, or `error` names the first that
    does not. The quote and the header are checked on the str. The lines below
    the header are then cut into blocks of about `_BLOCK` characters, each
    ending just after a ``\n`` or at the document's end. A block is encoded
    and split only when the caller asks for it, so a caller that lets each
    block go holds no more than two at a time. Each block carries the number
    of its first line, so its errors name lines in the file. No Python object
    is made per line or field.
    """
    quote = document.find('"')
    if quote >= 0:
        line = document.count("\n", 0, quote) + 1
        raise error(f"line {line}: quoted fields are not supported")
    start = document.find("\n") + 1 or len(document)
    expected = ",".join(header)
    got = document[:start].removesuffix("\n").removesuffix("\r")
    if got != expected:
        raise error(f"line 1: expected header {expected!r}, got {got!r}")

    first_line = 2
    while start < len(document):
        stop = document.find("\n", start + _BLOCK) + 1 or len(document)
        table, breaks = _read_block(document[start:stop], first_line, len(header) - 1, error)
        yield table
        first_line += breaks
        start = stop


def _read_block(block: str, first_line: int, share: int,
                error: type[IngestError]) -> tuple[_Table, int]:
    """The rows of a block of whole lines, the first of them line `first_line` of the
    file, and the number of line breaks in the block; a row without `share` commas
    raises `error`."""
    raw = block.encode("utf-8", "surrogatepass")
    data = np.zeros(len(raw) + _PAD, np.uint8)
    text = data[:len(raw)]
    text[:] = np.frombuffer(raw, np.uint8)
    breaks = np.flatnonzero(text == ord("\n"))
    starts = np.concatenate(([0], breaks + 1))
    stops = np.append(breaks, len(raw))
    stops -= (stops > starts) & (data[stops - 1] == ord("\r"))
    filled = stops > starts
    if not filled.all():
        starts, stops = starts[filled], stops[filled]
    commas = np.flatnonzero(text == ord(","))
    if len(commas) == len(starts) * share:
        # With sorted commas and the right total, each row holds exactly its
        # share if the share lies inside the row's line.
        shares = commas.reshape(len(starts), share)
        if len(starts) == 0 or ((shares[:, 0] >= starts) & (shares[:, -1] < stops)).all():
            return _Table(data, starts, stops, shares, first_line), len(breaks)
    counts = np.searchsorted(commas, stops) - np.searchsorted(commas, starts)
    row = int(np.argmax(counts != share))
    line = _Table(data, starts, stops, commas, first_line).line(row)
    raise error(f"line {line}: expected {share + 1} fields, got {counts[row] + 1}")


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


def _time_column(table: _Table, error: type[IngestError]) -> np.ndarray:
    """Epoch seconds of field 1 of the table's rows; a bad stamp raises `error`."""
    try:
        return parse_iso8601_bytes(table.data, *table.field(1))
    except ModelError as exc:
        raise table.error(error, exc.index, str(exc)) from None


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


def _float_column(table: _Table, k: int, error: type[IngestError]) -> np.ndarray:
    """Float64 values of field `k` of the table's rows; a bad or non-finite value raises
    `error`.

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
            raise table.error(error, i, f"bad value {text!r}") from None
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        i = int(bad[0])
        raise table.error(error, i, f"non-finite value {table.text(starts[i], stops[i])!r}")
    return values


def last_wins(sensor_id: str, times: np.ndarray, values: np.ndarray) -> TimeSeries:
    """A series from samples in arrival order; a repeated timestamp keeps its last value."""
    order = np.argsort(times, kind="stable")
    times, values = times[order], values[order]
    if len(times) > 1:
        last_of_run = np.concatenate((times[1:] != times[:-1], [True]))
        times, values = times[last_of_run], values[last_of_run]
    return TimeSeries(sensor_id, times, values)


def _read_groups(document: str, header: list[str], error: type[IngestError], read_block,
                 *args) -> Iterator[tuple[str, list[np.ndarray]]]:
    """Each key's columns over a whole CSV document, in key order.

    `read_block(table, *args)` gives the columns of each key's rows in one
    block, as ``{key: (column, ...)}``; a key's columns are joined over the
    blocks in file order.

    A document raises the error it would raise if it were read in one block.
    `_read_table` raises it for a quote, the header or a field count. But
    `read_block` checks each field over its own block only, so when it
    raises, all lines below the header, numbered from 2, are read again as
    one block and that read's error is raised; a good document is read once.
    """
    parts: dict[str, list[tuple[np.ndarray, ...]]] = {}
    for table in _read_table(document, header, error):
        try:
            groups = read_block(table, *args)
        except error:
            body = document.find("\n") + 1
            read_block(_read_block(document[body:], 2, len(header) - 1, error)[0], *args)
            raise  # the one-block read passed: keep the block's error
        for key, columns in groups.items():
            parts.setdefault(key, []).append(columns)
    for key in sorted(parts):
        yield key, [np.concatenate(column) for column in zip(*parts.pop(key))]


@dataclass(frozen=True)
class ParsedMeasurements:
    series: dict[str, TimeSeries]
    rejected: dict[str, int]  # unknown sensor_id -> line count


def _sensor_block(table: _Table, catalog: DeploymentCatalog,
                  rejected: dict[str, int]) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Each known sensor's (times, values) in one block of a measurements CSV, in file
    order; each unknown sensor's rows are counted into `rejected`."""
    keys, codes = _key_codes(table)
    known = np.array([catalog.has_sensor(key) for key in keys], bool)
    for key, count, ok in zip(keys, np.bincount(codes, minlength=len(keys)).tolist(),
                              known.tolist()):
        if not ok:
            rejected[key] = rejected.get(key, 0) + count
    if not known.all():
        kept = known[codes]
        table, codes = table.take(kept), codes[kept]
    times = _time_column(table, MeasurementFormatError)
    values = _float_column(table, 2, MeasurementFormatError)
    return {key: (times[idx], values[idx]) for key, idx in _group_rows(codes, keys).items()}


def parse_measurements(document: str, catalog: DeploymentCatalog) -> ParsedMeasurements:
    """Parse a measurements CSV into per-sensor series.

    Lines are grouped per sensor and sorted by timestamp; duplicate
    (sensor, timestamp) pairs collapse to the last occurrence in file order.
    Unknown sensor ids are quarantined, malformed lines are an error.
    """
    rejected: dict[str, int] = {}
    series = {sid: last_wins(sid, times, values) for sid, (times, values) in _read_groups(
        document, MEASUREMENT_HEADER, MeasurementFormatError, _sensor_block, catalog, rejected)}
    return ParsedMeasurements(series, dict(sorted(rejected.items())))


@dataclass(frozen=True)
class WeatherHistory:
    """Hourly outdoor conditions for one site; hours may be missing."""

    site_id: str
    times: np.ndarray      # int64 epoch seconds, hourly grid
    outdoor_temp: np.ndarray
    wind_speed: np.ndarray
    cloud_cover: np.ndarray

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


def _weather_block(table: _Table) -> dict[str, tuple[np.ndarray, ...]]:
    """Each site's (times, temperature, wind, cloud) in one block of a weather CSV, in
    file order."""
    keys, codes = _key_codes(table)
    times = _time_column(table, WeatherFormatError)
    temp, wind, cloud = (_float_column(table, k, WeatherFormatError) for k in (2, 3, 4))
    for bad, message in (
            (times % 3600 != 0, "timestamp not on the hourly grid"),
            ((cloud < 0.0) | (cloud > 1.0), "cloud cover outside [0, 1]"),
            (wind < 0.0, "negative wind speed")):
        if bad.any():
            raise table.error(WeatherFormatError, int(np.argmax(bad)), message)
    return {key: (times[idx], temp[idx], wind[idx], cloud[idx])
            for key, idx in _group_rows(codes, keys).items()}


def load_weather(document: str) -> dict[str, WeatherHistory]:
    """Parse an hourly weather CSV into per-site histories."""
    histories: dict[str, WeatherHistory] = {}
    for site_id, (times, temp, wind, cloud) in _read_groups(
            document, WEATHER_HEADER, WeatherFormatError, _weather_block):
        if np.any(np.diff(times) <= 0):
            raise WeatherFormatError(f"site {site_id}: timestamps not strictly increasing")
        histories[site_id] = WeatherHistory(
            site_id=site_id,
            times=times,
            outdoor_temp=temp,
            wind_speed=wind,
            cloud_cover=cloud,
        )
    return histories


@dataclass(frozen=True)
class LoadResult:
    series: TimeSeries


# One stored sample: epoch seconds and value, little-endian, 16 bytes.
RECORD = np.dtype([("t", "<i8"), ("v", "<f8")])


class SeriesStore:
    """On-disk series store: one packed record file per sensor.

    ``records.bin`` holds a sensor's whole series as `RECORD`s in time order,
    so it is written with one `tobytes` and read with one `frombuffer`; save
    and load are bit-exact. ``manifest.json`` beside it is
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
        data = records.tobytes()
        (sensor_dir / "records.bin").write_bytes(data)
        manifest = {"crc32": zlib.crc32(data), "rows": len(records)}
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
