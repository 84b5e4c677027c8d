"""Domain types and time-series primitives shared across the toolkit.

Timestamps are UTC throughout, held as integer epoch seconds. Local wall-clock
time only appears where analysis needs it (school hours, weekend days) and is
derived from a fixed per-site UTC offset in minutes; no DST table is applied.
All types are immutable values and all operations are pure functions.

This is the only timestamp codec. It writes ``YYYY-MM-DDTHH:MM:SSZ`` and reads
what ``datetime.fromisoformat`` reads once surrounding blanks are stripped and
a final ``Z``/``z`` means ``+00:00``; naive stamps are UTC, fractions truncate.
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


# Per character, the codes of the written form from year 1000 on (numpy reads
# year 0, fromisoformat does not).
_WRITTEN_LOW, _WRITTEN_HIGH = (np.array([bound]).view(np.uint32)
                               for bound in ("1000-00-00T00:00:00Z", "9999-19-39T29:59:59Z"))


def parse_iso8601(text):
    """Epoch seconds of an ISO-8601 instant: an int for a str, an int64 array for a sequence.

    Entries in the written form are parsed in one numpy call, any other entry
    alone. A bad entry raises ModelError with its position as `index`.
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
    codes = np.array(texts, dtype="U20").view(np.uint32).reshape(len(texts), 20)
    written = (codes >= _WRITTEN_LOW) & (codes <= _WRITTEN_HIGH)
    fast = (np.fromiter(map(len, texts), np.int64, len(texts)) == 20) & written.all(axis=1)
    out = np.empty(len(texts), dtype=np.int64)
    try:  # those codes are ASCII: as bytes, the first 19 are the stamp without its 'Z'
        stamps = codes[fast, :19].astype(np.uint8).view("S19").astype("datetime64[s]")
        out[fast] = stamps.view(np.int64).ravel()
    except ValueError:  # a field out of range: the entry-by-entry path names it
        fast[:] = False
    for i in np.flatnonzero(~fast).tolist():
        try:
            out[i] = parse_iso8601(texts[i])
        except ModelError as exc:
            exc.index = i
            raise
    return out


def format_iso8601(epoch):
    """Written-form text: a str for an int, a list of str for an int64 array."""
    if isinstance(epoch, (int, np.integer)):
        return f"{np.datetime64(int(epoch), 's')}Z"
    text = np.datetime_as_string(np.asarray(epoch, dtype="datetime64[s]"), unit="s")
    return [f"{stamp}Z" for stamp in text.tolist()]


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
        if len(times) > 1 and not np.all(np.diff(times) > 0):
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


@dataclass(frozen=True)
class TimeWindow:
    """A duration used for windowed evaluation, in seconds."""

    duration: int

    def __post_init__(self):
        if self.duration <= 0:
            raise ModelError("window duration must be positive")

    @classmethod
    def hours(cls, h: float) -> TimeWindow:
        return cls(int(h * 3600))

    @classmethod
    def minutes(cls, m: float) -> TimeWindow:
        return cls(int(m * 60))


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
