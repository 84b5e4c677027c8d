"""Domain types and time-series primitives shared across the toolkit.

Timestamps are UTC throughout, held as integer epoch seconds. Local wall-clock
time only appears where analysis needs it (school hours, weekend days, local
days), and `Site.local` and its inverse `Site.utc` are the only conversions
between the two, by the site's fixed UTC offset; no DST table is applied.
No value is changed once built (a series' arrays are read-only), and all
operations are pure functions.

This is the only timestamp codec. It writes ``YYYY-MM-DDTHH:MM:SSZ`` and reads
what ``datetime.fromisoformat`` reads once surrounding blanks are stripped and
a final ``Z``/``z`` means ``+00:00``; naive stamps are UTC, fractions truncate.
One stamp is read from a str (`parse_iso8601`), many from UTF-8 bytes
(`parse_iso8601_bytes`). The 20 bytes of every written-form stamp from year
1000 on are gathered into one ``(n, 20)`` matrix and decoded together, as
integers from their digits; any other stamp, or one with a field out of range,
is decoded to str and parsed alone. Many stamps are written together too
(`written_codes`, the decoder's inverse), as the rows of an ``(n, 20)``
matrix, for the years 0000 to 9999.
"""

from __future__ import annotations

from datetime import date, datetime, timedelta, timezone
from enum import Enum
from typing import NamedTuple

import numpy as np

DAY_SECONDS = 86400
SCHOOL_DAY_START = 8 * 3600 + 30 * 60   # 08:30 local, inclusive
SCHOOL_DAY_SLOTS = 8                    # hourly slots tiling 08:30-16:30
# the adaptive comfort band's half-width (degC) at each acceptability class (%)
BAND_HALF_WIDTH = {80: 3.5, 90: 2.5}
DEFAULT_ACCEPTABILITY = 80

# 1970-01-01 was a Thursday; +3 makes Monday == 0.
_EPOCH_WEEKDAY_SHIFT = 3


class ModelError(ValueError):
    """Invalid domain value or violated invariant; `index` locates a bad stamp among many."""

    index: int | None = None


class QualityError(ValueError):
    """Invalid input to a quality operation."""


class ScenarioError(ValueError):
    """Invalid scenario spec."""


def to_epoch(ts: datetime | date | int) -> int:
    """Convert a timestamp-like value to UTC epoch seconds.

    Naive datetimes are taken as UTC. A bare date means UTC midnight of that
    calendar day; `Site.utc` of it is a site's local midnight.
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


def parse_iso8601(text: str) -> int:
    """Epoch seconds of an ISO-8601 instant."""
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(raw)
    except ValueError as exc:
        raise ModelError(f"bad timestamp {text!r}: {exc}") from None
    return to_epoch(dt)


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
    """Sensor categories deployed across the buildings. Each row is a kind's
    value, its fixed unit and its device category: environmental,
    atmospheric, weather or power."""

    INDOOR_TEMPERATURE = "indoor_temperature", "degC", "environmental"
    RELATIVE_HUMIDITY = "relative_humidity", "%", "environmental"
    LUMINOSITY = "luminosity", "lux", "environmental"
    NOISE = "noise", "dB", "environmental"
    OCCUPANCY = "occupancy", "bool", "environmental"
    POWER_PHASE = "power_phase", "W", "power"
    OUTDOOR_TEMPERATURE = "outdoor_temperature", "degC", "weather"
    WIND_SPEED = "wind_speed", "m/s", "weather"
    ATMOSPHERIC_PRESSURE = "atmospheric_pressure", "hPa", "atmospheric"
    PRECIPITATION = "precipitation", "mm", "weather"
    POLLUTANT = "pollutant", "ppm", "atmospheric"
    CLOUD_COVER = "cloud_cover", "fraction", "weather"

    def __new__(cls, value: str, unit: str, category: str):
        member = object.__new__(cls)
        member._value_ = value
        member.unit = unit
        member.category = category
        return member


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


class TimeSeries:
    """Ordered samples of one sensor: strictly increasing times, finite values."""

    __slots__ = ("sensor_id", "times", "values")

    def __init__(self, sensor_id: str, times: np.ndarray, values: np.ndarray):
        times = np.ascontiguousarray(times, dtype=np.int64)
        values = np.ascontiguousarray(values, dtype=np.float64)
        if times.shape != values.shape or times.ndim != 1:
            raise ModelError("times and values must be 1-d arrays of equal length")
        if not np.all(times[1:] > times[:-1]):  # np.diff can wrap
            raise ModelError(f"timestamps not strictly increasing for {sensor_id}")
        if len(values) and not np.all(np.isfinite(values)):
            raise ModelError(f"non-finite values in series {sensor_id}")
        times.setflags(write=False)
        values.setflags(write=False)
        self.sensor_id = sensor_id
        self.times = times    # int64 epoch seconds
        self.values = values  # float64

    @classmethod
    def empty(cls, sensor_id: str) -> TimeSeries:
        return cls(sensor_id, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))

    def __len__(self) -> int:
        return len(self.times)

    def replace_values(self, values: np.ndarray) -> TimeSeries:
        return TimeSeries(self.sensor_id, self.times, values)

    def take(self, mask_or_index) -> TimeSeries:
        return TimeSeries(self.sensor_id, self.times[mask_or_index], self.values[mask_or_index])


class SensorMeta:
    """Catalog entry describing one deployed sensor."""

    __slots__ = ("sensor_id", "site_id", "kind", "sensing_rate", "room_id")

    def __init__(self, sensor_id: str, site_id: str, kind: SensorKind,
                 sensing_rate: int = 30, room_id: str | None = None):
        if sensing_rate <= 0:
            raise ModelError(f"sensing_rate must be positive for {sensor_id}")
        self.sensor_id = sensor_id
        self.site_id = site_id
        self.kind = kind
        self.sensing_rate = sensing_rate  # seconds between expected samples
        self.room_id = room_id


class Classroom(NamedTuple):
    room_id: str
    orientation: Orientation
    label: str = ""


class Site:
    """One monitored building and its classrooms."""

    __slots__ = ("site_id", "latitude", "longitude", "start_time", "tz_offset_minutes",
                 "cold_climate", "rooms")

    def __init__(self, site_id: str, latitude: float, longitude: float, start_time: int,
                 tz_offset_minutes: int = 0, cold_climate: bool = False,
                 rooms: tuple[Classroom, ...] = ()):
        self.site_id = site_id
        self.latitude = latitude
        self.longitude = longitude
        self.start_time = start_time  # epoch seconds UTC of incorporation
        self.tz_offset_minutes = tz_offset_minutes
        # In a cold climate a 0 degC indoor reading can be genuine, so the
        # zero-means-sensor-error heuristic is suppressed for indoor temperature.
        self.cold_climate = cold_climate
        self.rooms = rooms
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

    def local(self, times):
        """Local wall-clock seconds of UTC epoch seconds, an int or an int64 array."""
        return times + 60 * self.tz_offset_minutes

    def utc(self, local):
        """UTC epoch seconds of local wall-clock seconds: the inverse of `local`."""
        return local - 60 * self.tz_offset_minutes

    def room(self, room_id: str) -> Classroom:
        for room in self.rooms:
            if room.room_id == room_id:
                return room
        raise ModelError(f"no room {room_id!r} in site {self.site_id!r}")


class DeploymentCatalog:
    """Validated deployment description: sites, classrooms and sensors."""

    __slots__ = ("sites", "sensors", "_site_index", "_sensor_ids")

    def __init__(self, sites: tuple[Site, ...], sensors: tuple[SensorMeta, ...]):
        self.sites = sites
        self.sensors = sensors
        site_index = {}
        for site in self.sites:
            if site.site_id in site_index:
                raise ModelError(f"duplicate site_id {site.site_id!r}")
            site_index[site.site_id] = site
        sensor_ids = set()
        for meta in self.sensors:
            if meta.sensor_id in sensor_ids:
                raise ModelError(f"duplicate sensor_id {meta.sensor_id!r}")
            site = site_index.get(meta.site_id)
            if site is None:
                raise ModelError(
                    f"sensor {meta.sensor_id!r} references unknown site {meta.site_id!r}")
            if meta.room_id is not None:
                site.room(meta.room_id)  # raises on dangling room reference
            sensor_ids.add(meta.sensor_id)
        self._site_index = site_index
        self._sensor_ids = sensor_ids

    def site(self, site_id: str) -> Site:
        try:
            return self._site_index[site_id]
        except KeyError:
            raise ModelError(f"unknown site {site_id!r}") from None

    def has_sensor(self, sensor_id: str) -> bool:
        return sensor_id in self._sensor_ids

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


def is_weekend(local):
    """Whether each local time (`Site.local`) falls on a Saturday or a Sunday."""
    return (local // DAY_SECONDS + _EPOCH_WEEKDAY_SHIFT) % 7 >= 5
