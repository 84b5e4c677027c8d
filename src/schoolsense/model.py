"""Domain types and time-series primitives shared across the toolkit.

Timestamps are UTC throughout, held as integer epoch seconds. Local wall-clock
time only appears where analysis needs it (school hours, weekend days) and is
derived from a fixed per-site UTC offset in minutes; no DST table is applied.
All types are immutable values and all operations are pure functions.

This is the only timestamp codec. It writes ``YYYY-MM-DDTHH:MM:SSZ`` and reads
what ``datetime.fromisoformat`` reads once surrounding blanks are stripped and
a final ``Z``/``z`` means ``+00:00``; naive stamps are UTC, fractions truncate.
Many stamps are read from UTF-8 bytes (`parse_iso8601_bytes`; the sequence form
of `parse_iso8601` encodes its entries and calls it). The 20 bytes of every
written-form stamp from year 1000 on are gathered into one ``(n, 20)`` matrix
and decoded together, as integers from their digits; any other stamp, or one
with a field out of range, is decoded to str and parsed alone. Many stamps are
written together too (`written_codes`, the decoder's inverse), as the rows of
an ``(n, 20)`` matrix, for the years 0000 to 9999.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from enum import Enum

import numpy as np

DAY_SECONDS = 86400
SCHOOL_DAY_START = 8 * 3600 + 30 * 60   # 08:30 local, inclusive
SCHOOL_DAY_SLOTS = 8                    # hourly slots tiling 08:30-16:30

# 1970-01-01 was a Thursday; +3 makes Monday == 0.
_EPOCH_WEEKDAY_SHIFT = 3


class ModelError(ValueError):
    """Invalid domain value or violated invariant; `index` locates a bad sequence entry."""

    index: int | None = None


class QualityError(ValueError):
    """Invalid input to a quality operation."""


class ScenarioError(ValueError):
    """Invalid scenario spec."""


def to_epoch(ts: datetime | date | int) -> int:
    """Convert a timestamp-like value to UTC epoch seconds.

    Naive datetimes are taken as UTC. Bare dates mean local-midnight UTC of
    that calendar day.
    """
    if isinstance(ts, bool):
        raise ModelError(f"not a timestamp: {ts!r}")
    if isinstance(ts, int):
        return ts
    if isinstance(ts, datetime):
        if ts.tzinfo is None:
            ts = ts.replace(tzinfo=timezone.utc)
        return int(ts.timestamp())
    if isinstance(ts, date):
        return (ts - date(1970, 1, 1)).days * DAY_SECONDS
    raise ModelError(f"not a timestamp: {ts!r}")


# Per byte, the codes of the written form from year 1000 on (numpy reads year
# 0, fromisoformat does not). A byte is in range if its code less the low one,
# wrapping around in uint8, is at most the span.
_WRITTEN_LOW, _WRITTEN_HIGH = (np.frombuffer(bound.encode(), np.uint8)
                               for bound in ("1000-00-00T00:00:00Z", "9999-19-39T29:59:59Z"))
_WRITTEN_SPAN = _WRITTEN_HIGH - _WRITTEN_LOW


# Days of each month in a common year, by the value 00 to 19 of the month field.
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31] + [0] * 7, np.int32)


def byte_slots(data: np.ndarray, width: int) -> np.ndarray:
    """An overlapping view of the 1-d uint8 array `data` with one `width`-byte item at
    every offset, through which whole runs of bytes are read or written as items."""
    return np.ndarray((len(data) - width + 1,), f"V{width}", data, 0, (1,))


def byte_rows(data: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """The `width` bytes of `data` from each start, as the rows of a new ``(n, width)`` matrix.

    `data` is a 1-d uint8 array, and each start at most ``len(data) - width``.
    """
    return byte_slots(data, width)[starts].view(np.uint8).reshape(len(starts), width)


def _written_epochs(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Epoch seconds of rows of written-form bytes ('0' is 48), and whether each row's
    month, day of month and hour are in range. Days follow the days-from-civil formula,
    whose years start in March so that the leap day comes last. Fields stay int32."""
    year = (codes[:, :4] @ np.array([1000, 100, 10, 1], np.uint32) - 48 * 1111).view(np.int32)
    month, day, hour, minute, second = (
        codes[:, 5:19:3].astype(np.int32) * 10 + codes[:, 6:19:3] - 48 * 11).T
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS.take(month, mode="clip") + (leap & (month == 2))
    y = year - (month <= 2)
    days = y * 365 + y // 4 - y // 100 + y // 400 + (153 * ((month + 9) % 12) + 2) // 5 + day
    return ((days - 719469).astype(np.int64) * DAY_SECONDS + (hour * 3600 + minute * 60 + second),
            (day >= 1) & (day <= month_days) & (hour < 24))


# Epoch seconds of 0000-01-01 and of 10000-01-01: the stamps of the years between
# are the 20 bytes of the written form.
_WRITTEN_FIRST, _WRITTEN_STOP = -62167219200, 253402300800
_WRITTEN_TEMPLATE = np.frombuffer(b"0000-00-00T00:00:00Z", np.uint8)
# The written form as seven two-digit fields: century, year of century, month,
# day, hour, minute and second, each a little-endian u2 of its two digits.
_WRITTEN_PAIRS = np.dtype({"names": [f"f{k}" for k in range(7)], "formats": ["<u2"] * 7,
                           "offsets": [0, 2, 5, 8, 11, 14, 17], "itemsize": 20})


def written_codes(epochs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Written-form bytes of int64 epoch seconds as an ``(n, 20)`` uint8 matrix, and
    whether each stamp's year lies in 0000-9999; other rows of the matrix mean nothing.

    The inverse of `_written_epochs`: days become a date by the civil-from-days
    formula, whose years start in March, counted here from one 400-year era
    before year 0 so that no quotient is negative. Each two-digit field is
    written as one u2 into the columns `_written_epochs` reads.
    """
    inside = (epochs >= _WRITTEN_FIRST) & (epochs < _WRITTEN_STOP)
    epochs = np.where(inside, epochs, 0)
    days = epochs // DAY_SECONDS
    seconds = (epochs - days * DAY_SECONDS).astype(np.int32)
    era, doe = np.divmod(days.astype(np.int32) + (719468 + 146097), 146097)
    yoe = (doe - doe // 1460 + doe // 36524 - doe // 146096) // 365
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)
    mp = (5 * doy + 2) // 153
    month = np.where(mp < 10, mp + 3, mp - 9)
    year = yoe + 400 * era - 400 + (month <= 2)
    codes = np.repeat(_WRITTEN_TEMPLATE[None], len(epochs), axis=0)
    pairs = codes.view(_WRITTEN_PAIRS)[:, 0]
    for name, field in zip(_WRITTEN_PAIRS.names, (
            year // 100, year % 100, month, doy - (153 * mp + 2) // 5 + 1,
            seconds // 3600, seconds // 60 % 60, seconds % 60)):
        tens = field // 10
        pairs[name] = (field - 10 * tens) << 8 | tens | 0x3030
    return codes, inside


def parse_iso8601_bytes(data: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Epoch seconds, as an int64 array, of the UTF-8 stamps ``data[starts[i]:stops[i]]``.

    `data` is a 1-d uint8 array. A bad stamp raises ModelError with its position
    as `index`; its message quotes the stamp as the str form does.
    """
    if len(data) < 20:
        data = np.concatenate((data, np.zeros(20, np.uint8)))
    codes = byte_rows(data, np.minimum(starts, len(data) - 20), 20)
    flags = ((codes - _WRITTEN_LOW) <= _WRITTEN_SPAN).view(np.uint32)  # 4 bytes' flags a lane
    written = ((flags[:, 0] & flags[:, 1] & flags[:, 2] & flags[:, 3] & flags[:, 4] == 0x01010101)
               & (stops - starts == 20))
    out, in_range = _written_epochs(codes)
    for i in np.flatnonzero(~(written & in_range)).tolist():
        try:
            out[i] = parse_iso8601(
                data[starts[i]:stops[i]].tobytes().decode("utf-8", "surrogatepass"))
        except ModelError as exc:
            exc.index = i
            raise
    return out


def parse_iso8601(text):
    """Epoch seconds of an ISO-8601 instant: an int for a str, an int64 array for a sequence.

    A bad entry of a sequence raises ModelError with its position as `index`.
    """
    if isinstance(text, str):
        raw = text.strip()
        if raw.endswith(("Z", "z")):
            raw = raw[:-1] + "+00:00"
        try:
            dt = datetime.fromisoformat(raw)
        except ValueError as exc:
            raise ModelError(f"bad timestamp {text!r}: {exc}") from None
        return to_epoch(dt)
    texts = list(text)
    joined = "".join(texts)
    data = joined.encode("utf-8", "surrogatepass")
    sizes = np.fromiter(map(len, texts) if len(data) == len(joined)  # all ASCII
                        else (len(t.encode("utf-8", "surrogatepass")) for t in texts),
                        np.int64, len(texts))
    stops = np.cumsum(sizes)
    return parse_iso8601_bytes(np.frombuffer(data, np.uint8), stops - sizes, stops)


def format_iso8601(epoch):
    """Written-form text: a str for an int, a list of str for an int64 array.

    An array's stamps are encoded together by `written_codes`, the inverse of
    `_written_epochs`; a stamp whose year lies outside 0000-9999 is written by
    ``np.datetime_as_string``, as the int form is.
    """
    if isinstance(epoch, (int, np.integer)):
        return f"{np.datetime64(int(epoch), 's')}Z"
    epochs = np.asarray(epoch, dtype=np.int64)
    codes, inside = written_codes(epochs)
    text = codes.tobytes().decode("ascii")
    stamps = [text[i:i + 20] for i in range(0, len(text), 20)]
    for i in np.flatnonzero(~inside).tolist():
        stamps[i] = f"{np.datetime64(int(epochs[i]), 's')}Z"
    return stamps


def day_to_date(day_index: int) -> date:
    return date(1970, 1, 1) + timedelta(days=int(day_index))


def date_to_day(d: date) -> int:
    return (d - date(1970, 1, 1)).days


# The JSON types a document value may have, per Python type, and their names.
_JSON_TYPES = {bool: ((bool,), "true or false"), int: ((int,), "an integer"),
               float: ((int, float), "a number"), str: ((str,), "a string")}


def json_value(value, kind: type, name: str):
    """`value` as `kind`, if it already has the JSON type `kind` is written as.

    Nothing is coerced: a bool only from true or false, an int from an integer
    that is not a bool, a float from any number that is not a bool, a string
    or a string-valued Enum from a string. Anything else raises ModelError
    naming the field.
    """
    allowed, written = _JSON_TYPES[str if issubclass(kind, Enum) else kind]
    if type(value) not in allowed:
        raise ModelError(f"{name} must be {written}, got {value!r}")
    return kind(value)


class SensorKind(Enum):
    """Sensor categories deployed across the buildings, with fixed units."""

    INDOOR_TEMPERATURE = "indoor_temperature"
    RELATIVE_HUMIDITY = "relative_humidity"
    LUMINOSITY = "luminosity"
    NOISE = "noise"
    OCCUPANCY = "occupancy"
    POWER_PHASE = "power_phase"
    OUTDOOR_TEMPERATURE = "outdoor_temperature"
    WIND_SPEED = "wind_speed"
    ATMOSPHERIC_PRESSURE = "atmospheric_pressure"
    PRECIPITATION = "precipitation"
    POLLUTANT = "pollutant"
    CLOUD_COVER = "cloud_cover"

    @property
    def unit(self) -> str:
        return _KIND_UNITS[self]

    @property
    def category(self) -> str:
        """Device category: environmental, atmospheric, weather or power."""
        return _KIND_CATEGORIES[self]


_KIND_UNITS = {
    SensorKind.INDOOR_TEMPERATURE: "degC",
    SensorKind.RELATIVE_HUMIDITY: "%",
    SensorKind.LUMINOSITY: "lux",
    SensorKind.NOISE: "dB",
    SensorKind.OCCUPANCY: "bool",
    SensorKind.POWER_PHASE: "W",
    SensorKind.OUTDOOR_TEMPERATURE: "degC",
    SensorKind.WIND_SPEED: "m/s",
    SensorKind.ATMOSPHERIC_PRESSURE: "hPa",
    SensorKind.PRECIPITATION: "mm",
    SensorKind.POLLUTANT: "ppm",
    SensorKind.CLOUD_COVER: "fraction",
}

_KIND_CATEGORIES = {
    SensorKind.INDOOR_TEMPERATURE: "environmental",
    SensorKind.RELATIVE_HUMIDITY: "environmental",
    SensorKind.LUMINOSITY: "environmental",
    SensorKind.NOISE: "environmental",
    SensorKind.OCCUPANCY: "environmental",
    SensorKind.POWER_PHASE: "power",
    SensorKind.OUTDOOR_TEMPERATURE: "weather",
    SensorKind.WIND_SPEED: "weather",
    SensorKind.PRECIPITATION: "weather",
    SensorKind.CLOUD_COVER: "weather",
    SensorKind.ATMOSPHERIC_PRESSURE: "atmospheric",
    SensorKind.POLLUTANT: "atmospheric",
}

CATEGORIES = ("environmental", "atmospheric", "weather", "power")


class Orientation(Enum):
    N = "N"
    NE = "NE"
    E = "E"
    SE = "SE"
    S = "S"
    SW = "SW"
    W = "W"
    NW = "NW"


# Half-sine daylight template: 12 h of nonzero gain centred on the peak hour.
# Peaks shift with facade orientation (solar noon for S, +2 h for SW, -2 h
# for SE); north-ish facades see little direct sun. `synthgen` drives each
# room's solar gain with it, and `performance` correlates against it.
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
class TimeSeries:
    """Ordered samples of one sensor: strictly increasing times, finite values."""

    sensor_id: str
    times: np.ndarray   # int64 epoch seconds
    values: np.ndarray  # float64

    def __post_init__(self):
        times = np.ascontiguousarray(self.times, dtype=np.int64)
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if times.shape != values.shape or times.ndim != 1:
            raise ModelError("times and values must be 1-d arrays of equal length")
        if not np.all(times[1:] > times[:-1]):  # np.diff can wrap
            raise ModelError(f"timestamps not strictly increasing for {self.sensor_id}")
        if len(values) and not np.all(np.isfinite(values)):
            raise ModelError(f"non-finite values in series {self.sensor_id}")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @classmethod
    def empty(cls, sensor_id: str) -> TimeSeries:
        return cls(sensor_id, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))

    def __len__(self) -> int:
        return len(self.times)

    def replace_values(self, values: np.ndarray) -> TimeSeries:
        return TimeSeries(self.sensor_id, self.times, values)

    def take(self, mask_or_index) -> TimeSeries:
        return TimeSeries(self.sensor_id, self.times[mask_or_index], self.values[mask_or_index])


@dataclass(frozen=True)
class SensorMeta:
    """Catalog entry describing one deployed sensor."""

    sensor_id: str
    site_id: str
    kind: SensorKind
    sensing_rate: int = 30  # seconds between expected samples
    room_id: str | None = None

    def __post_init__(self):
        if self.sensing_rate <= 0:
            raise ModelError(f"sensing_rate must be positive for {self.sensor_id}")


@dataclass(frozen=True)
class Classroom:
    room_id: str
    site_id: str
    orientation: Orientation
    label: str = ""


@dataclass(frozen=True)
class Site:
    """One monitored building and its classrooms."""

    site_id: str
    latitude: float
    longitude: float
    start_time: int  # epoch seconds UTC of incorporation
    tz_offset_minutes: int = 0
    # In a cold climate a 0 degC indoor reading can be genuine, so the
    # zero-means-sensor-error heuristic is suppressed for indoor temperature.
    cold_climate: bool = False
    rooms: tuple[Classroom, ...] = ()

    def __post_init__(self):
        for name, lo, hi in (("tz_offset_minutes", -720, 840), ("latitude", -90.0, 90.0),
                             ("longitude", -180.0, 180.0)):
            if not lo <= getattr(self, name) <= hi:
                raise ModelError(f"site {self.site_id!r}: {name} must lie in [{lo}, {hi}], "
                                 f"got {getattr(self, name)!r}")
        seen = set()
        for room in self.rooms:
            if room.room_id in seen:
                raise ModelError(f"duplicate room {room.room_id!r} in site {self.site_id!r}")
            seen.add(room.room_id)

    def room(self, room_id: str) -> Classroom:
        for room in self.rooms:
            if room.room_id == room_id:
                return room
        raise ModelError(f"no room {room_id!r} in site {self.site_id!r}")


@dataclass(frozen=True)
class DeploymentCatalog:
    """Validated deployment description: sites, classrooms and sensors."""

    sites: tuple[Site, ...]
    sensors: tuple[SensorMeta, ...]
    _site_index: dict = field(init=False, repr=False, compare=False)
    _sensor_index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        site_index = {}
        for site in self.sites:
            if site.site_id in site_index:
                raise ModelError(f"duplicate site_id {site.site_id!r}")
            site_index[site.site_id] = site
        sensor_index = {}
        for meta in self.sensors:
            if meta.sensor_id in sensor_index:
                raise ModelError(f"duplicate sensor_id {meta.sensor_id!r}")
            site = site_index.get(meta.site_id)
            if site is None:
                raise ModelError(
                    f"sensor {meta.sensor_id!r} references unknown site {meta.site_id!r}")
            if meta.room_id is not None:
                site.room(meta.room_id)  # raises on dangling room reference
            sensor_index[meta.sensor_id] = meta
        object.__setattr__(self, "_site_index", site_index)
        object.__setattr__(self, "_sensor_index", sensor_index)

    def site(self, site_id: str) -> Site:
        try:
            return self._site_index[site_id]
        except KeyError:
            raise ModelError(f"unknown site {site_id!r}") from None

    def sensor(self, sensor_id: str) -> SensorMeta:
        try:
            return self._sensor_index[sensor_id]
        except KeyError:
            raise ModelError(f"unknown sensor {sensor_id!r}") from None

    def has_sensor(self, sensor_id: str) -> bool:
        return sensor_id in self._sensor_index

    def sensors_for_site(self, site_id: str) -> list[SensorMeta]:
        return [m for m in self.sensors if m.site_id == site_id]


def slice_series(series: TimeSeries, start, end) -> TimeSeries:
    """Samples with start <= t < end, order preserved; input unmodified."""
    lo, hi = to_epoch(start), to_epoch(end)
    if lo > hi:
        raise ModelError(f"invalid range: {lo} > {hi}")
    i = int(np.searchsorted(series.times, lo, side="left"))
    j = int(np.searchsorted(series.times, hi, side="left"))
    return series.take(slice(i, j))


def local_weekday(times: np.ndarray, tz_offset_minutes: int) -> np.ndarray:
    """Local day of week, Monday == 0 .. Sunday == 6."""
    days = (times + tz_offset_minutes * 60) // DAY_SECONDS
    return (days + _EPOCH_WEEKDAY_SHIFT) % 7


def filter_weekends(series: TimeSeries, tz_offset_minutes: int = 0) -> TimeSeries:
    """Keep samples whose local date falls on Saturday or Sunday."""
    return series.take(local_weekday(series.times, tz_offset_minutes) >= 5)


def filter_weekdays(series: TimeSeries, tz_offset_minutes: int = 0) -> TimeSeries:
    """Keep samples whose local date falls on Monday through Friday."""
    return series.take(local_weekday(series.times, tz_offset_minutes) < 5)
