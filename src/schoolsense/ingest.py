"""Measurement and catalog parsing, weather history, and the on-disk store.

File formats:
  catalog       JSON document with sites[] (rooms nested) and sensors[].
  measurements  CSV, header ``sensor_id,timestamp,value``, ISO-8601 UTC.
  weather       CSV, header ``site_id,timestamp,outdoor_temp_c,wind_speed_ms,
                cloud_cover``, hourly grid.
  store         ``<root>/<site_id>/<sensor_id>/records.bin``, one file per
                sensor of packed little-endian (int64 epoch seconds, float64
                value) records in time order, plus a ``manifest.json`` sidecar
                with the file's row count and crc32. A save replaces the file.

Both CSV formats share one table reader and one float-column parser, and
their timestamps go through the `model` codec a whole column at a time.
Written values are shortest round-trip decimals, and store record files hold
the raw float64 bytes, so every round trip is bit-exact. Unknown sensors are
quarantined into a rejects report rather than failing the whole file: real
deployments drift from their catalogs.

The CSV grammar is plain comma-separated text. Lines end in ``\n`` or
``\r\n``, and every comma separates two fields. There is no quoting: a ``"``
anywhere is an error naming its line. Blank lines are skipped, and error
messages count lines as they stand in the file, blank ones included.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from itertools import compress, repeat
from pathlib import Path
from typing import Mapping

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
    format_iso8601,
    json_value,
    parse_iso8601,
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
            site_id = json_value(raw["site_id"], str, "site_id")
            rooms = tuple(
                Classroom(
                    room_id=json_value(r["room_id"], str, "room_id"),
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
                sensor_id=json_value(raw["sensor_id"], str, "sensor_id"),
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


def _read_table(document: str, header: list[str], error: type[IngestError]):
    """The columns (lists of str) of a CSV document below its header, and their line numbers.

    The grammar is the module docstring's: a quote raises `error` with its
    line, a trailing ``\r`` is dropped, and blank lines are skipped but keep
    their numbers. A wrong header or field count raises `error` with its line.
    """
    if '"' in document:
        line = document.count("\n", 0, document.index('"')) + 1
        raise error(f"line {line}: quoted fields are not supported")
    lines = document.split("\n")
    if "\r" in document:
        lines = [line[:-1] if line.endswith("\r") else line for line in lines]
    if lines[0] != ",".join(header):
        raise error(f"line 1: expected header {','.join(header)!r}, got {lines[0]!r}")
    numbers = list(compress(range(2, len(lines) + 1), lines[1:]))
    body = list(filter(None, lines[1:]))
    width = len(header)
    commas = list(map(str.count, body, repeat(",")))
    if commas.count(width - 1) != len(commas):
        i = next(i for i, n in enumerate(commas) if n != width - 1)
        raise error(f"line {numbers[i]}: expected {width} fields, got {commas[i] + 1}")
    cells = ",".join(body).split(",") if body else []
    return [cells[k::width] for k in range(width)], numbers


def _group_rows(keys) -> dict[str, np.ndarray]:
    """Row indices of each distinct key in file order, keys sorted."""
    code_of = {key: code for code, key in enumerate(dict.fromkeys(keys))}
    codes = np.fromiter(map(code_of.__getitem__, keys), np.intp, len(keys))
    groups = np.split(np.argsort(codes, kind="stable"),
                      np.cumsum(np.bincount(codes, minlength=len(code_of)))[:-1])
    return {key: groups[code_of[key]] for key in sorted(code_of)}


def _time_column(texts, lines, error: type[IngestError]) -> np.ndarray:
    try:
        return parse_iso8601(texts)
    except ModelError as exc:
        raise error(f"line {lines[exc.index]}: {exc}") from None


def _float_column(texts, lines, error: type[IngestError]) -> np.ndarray:
    """Float64 values of a text column; a bad or non-finite value raises `error`."""
    try:
        values = np.array(texts, dtype=np.float64)
    except ValueError:
        values = np.empty(len(texts))
        for i, text in enumerate(texts):
            try:
                values[i] = float(text)
            except ValueError:
                raise error(f"line {lines[i]}: bad value {text!r}") from None
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        i = int(bad[0])
        raise error(f"line {lines[i]}: non-finite value {texts[i]!r}")
    return values


def last_wins(sensor_id: str, times: np.ndarray, values: np.ndarray) -> TimeSeries:
    """A series from samples in arrival order; a repeated timestamp keeps its last value."""
    order = np.argsort(times, kind="stable")
    times, values = times[order], values[order]
    if len(times) > 1:
        last_of_run = np.concatenate((times[1:] != times[:-1], [True]))
        times, values = times[last_of_run], values[last_of_run]
    return TimeSeries(sensor_id, times, values)


@dataclass(frozen=True)
class ParsedMeasurements:
    series: dict[str, TimeSeries]
    rejected: dict[str, int]  # unknown sensor_id -> line count


def parse_measurements(document: str, catalog: DeploymentCatalog) -> ParsedMeasurements:
    """Parse a measurements CSV into per-sensor series.

    Lines are grouped per sensor and sorted by timestamp; duplicate
    (sensor, timestamp) pairs collapse to the last occurrence in file order.
    Unknown sensor ids are quarantined, malformed lines are an error.
    """
    (ids, stamps, raw_values), lines = _read_table(
        document, MEASUREMENT_HEADER, MeasurementFormatError)
    groups = _group_rows(ids)
    rejected = {sid: len(idx) for sid, idx in groups.items() if not catalog.has_sensor(sid)}
    if rejected:
        keep = [i for i, sid in enumerate(ids) if sid not in rejected]
        ids, stamps, raw_values, lines = (
            [column[i] for i in keep] for column in (ids, stamps, raw_values, lines))
        groups = _group_rows(ids)
    times = _time_column(stamps, lines, MeasurementFormatError)
    values = _float_column(raw_values, lines, MeasurementFormatError)
    series = {sid: last_wins(sid, times[idx], values[idx]) for sid, idx in groups.items()}
    return ParsedMeasurements(series, rejected)


def write_measurements_csv(series: Mapping[str, TimeSeries]) -> str:
    """Serialize series to the measurements CSV format (reference producer)."""
    out = [",".join(MEASUREMENT_HEADER)]
    for s in series.values():
        sid = s.sensor_id
        out.extend(f"{sid},{t},{v!r}"
                   for t, v in zip(format_iso8601(s.times), s.values.tolist()))
    return "\n".join(out) + "\n"


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


def load_weather(document: str) -> dict[str, WeatherHistory]:
    """Parse an hourly weather CSV into per-site histories."""
    (site_ids, stamps, *measured), lines = _read_table(
        document, WEATHER_HEADER, WeatherFormatError)
    times = _time_column(stamps, lines, WeatherFormatError)
    temp, wind, cloud = (_float_column(c, lines, WeatherFormatError) for c in measured)
    for bad, message in ((times % 3600 != 0, "timestamp not on the hourly grid"),
                         ((cloud < 0.0) | (cloud > 1.0), "cloud cover outside [0, 1]"),
                         (wind < 0.0, "negative wind speed")):
        if bad.any():
            raise WeatherFormatError(f"line {lines[int(np.argmax(bad))]}: {message}")

    histories: dict[str, WeatherHistory] = {}
    for site_id, idx in _group_rows(site_ids).items():
        if np.any(np.diff(times[idx]) <= 0):
            raise WeatherFormatError(f"site {site_id}: timestamps not strictly increasing")
        histories[site_id] = WeatherHistory(
            site_id=site_id,
            times=times[idx],
            outdoor_temp=temp[idx],
            wind_speed=wind[idx],
            cloud_cover=cloud[idx],
        )
    return histories


def write_weather_csv(histories: Mapping[str, WeatherHistory]) -> str:
    out = [",".join(WEATHER_HEADER)]
    for site_id, h in histories.items():
        out.extend(
            f"{site_id},{t},{temp!r},{wind!r},{cloud!r}"
            for t, temp, wind, cloud in zip(
                format_iso8601(h.times), h.outdoor_temp.tolist(), h.wind_speed.tolist(),
                h.cloud_cover.tolist()))
    return "\n".join(out) + "\n"


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
            manifest = json.loads(manifest_path.read_text())
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
        (sensor_dir / "manifest.json").write_text(
            json.dumps({"crc32": zlib.crc32(data), "rows": len(records)}) + "\n")
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
