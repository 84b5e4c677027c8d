"""Measurement and catalog parsing, weather history, and the on-disk store.

File formats:
  catalog       JSON document with sites[] (rooms nested) and sensors[].
  measurements  CSV, header ``sensor_id,timestamp,value``, ISO-8601 UTC.
  weather       CSV, header ``site_id,timestamp,outdoor_temp_c,wind_speed_ms,
                cloud_cover``, hourly grid.
  store         ``<root>/<site_id>/<sensor_id>/<YYYY-MM-DD>.csv`` partitions
                plus a ``manifest.json`` sidecar with per-day row counts.

Values are serialized as shortest round-trip decimals so store/load is
bit-exact. Unknown sensors are quarantined into a rejects report rather than
failing the whole file: real deployments drift from their catalogs.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
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
    day_to_date,
    format_iso8601,
    parse_iso8601,
)

MEASUREMENT_HEADER = ["sensor_id", "timestamp", "value"]
WEATHER_HEADER = ["site_id", "timestamp", "outdoor_temp_c", "wind_speed_ms", "cloud_cover"]


class IngestError(ValueError):
    """Malformed input document."""


class CatalogError(IngestError):
    pass


class MeasurementFormatError(IngestError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class WeatherFormatError(IngestError):
    pass


class StoreIntegrityError(IngestError):
    pass


def parse_catalog(document: str) -> DeploymentCatalog:
    """Parse and validate a catalog document."""
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise CatalogError(f"catalog syntax error at line {exc.lineno}, column {exc.colno}: "
                           f"{exc.msg}") from None
    if not isinstance(data, dict):
        raise CatalogError("catalog root must be an object")

    sites = []
    for raw in data.get("sites", []):
        try:
            rooms = tuple(
                Classroom(
                    room_id=str(r["room_id"]),
                    site_id=str(raw["site_id"]),
                    orientation=Orientation(r.get("orientation", "S")),
                    label=str(r.get("label", "")),
                )
                for r in raw.get("rooms", [])
            )
            sites.append(Site(
                site_id=str(raw["site_id"]),
                latitude=float(raw.get("latitude", 0.0)),
                longitude=float(raw.get("longitude", 0.0)),
                start_time=parse_iso8601(raw["start_time"]),
                tz_offset_minutes=int(raw.get("tz_offset_minutes", 0)),
                cold_climate=bool(raw.get("cold_climate", False)),
                rooms=rooms,
            ))
        except KeyError as exc:
            raise CatalogError(f"site entry missing field {exc}") from None
        except (ValueError, ModelError) as exc:
            raise CatalogError(f"bad site entry: {exc}") from None

    sensors = []
    for raw in data.get("sensors", []):
        try:
            kind = SensorKind(raw["kind"])
            unit = raw.get("unit")
            if unit is not None and unit != kind.unit:
                raise CatalogError(
                    f"sensor {raw.get('sensor_id')!r}: unit {unit!r} does not match "
                    f"{kind.value} ({kind.unit}); units are fixed per kind")
            sensors.append(SensorMeta(
                sensor_id=str(raw["sensor_id"]),
                site_id=str(raw["site_id"]),
                room_id=None if raw.get("room_id") is None else str(raw["room_id"]),
                kind=kind,
                sensing_rate=int(raw.get("sensing_rate", 30)),
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


def _parse_timestamps(texts: list[str], line_numbers: list[int]) -> np.ndarray:
    """Vectorized ISO-8601 'Z' parse with a slow fallback for odd rows."""
    if texts and all(t.endswith("Z") for t in texts):
        try:
            stamps = np.array([t[:-1] for t in texts], dtype="datetime64[s]")
            return stamps.astype(np.int64)
        except ValueError:
            pass
    out = np.empty(len(texts), dtype=np.int64)
    for i, text in enumerate(texts):
        try:
            out[i] = parse_iso8601(text)
        except ModelError as exc:
            raise MeasurementFormatError(str(exc), line_numbers[i]) from None
    return out


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
    reader = csv.reader(io.StringIO(document))
    header = next(reader, None)
    if header != MEASUREMENT_HEADER:
        raise MeasurementFormatError(
            f"expected header {','.join(MEASUREMENT_HEADER)!r}, got {header!r}", 1)

    ids: list[str] = []
    stamps: list[str] = []
    raw_values: list[str] = []
    lines: list[int] = []
    rejected: dict[str, int] = {}
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise MeasurementFormatError(f"expected 3 fields, got {len(row)}", line_no)
        sensor_id = row[0]
        if not catalog.has_sensor(sensor_id):
            rejected[sensor_id] = rejected.get(sensor_id, 0) + 1
            continue
        ids.append(sensor_id)
        stamps.append(row[1])
        raw_values.append(row[2])
        lines.append(line_no)

    if not ids:
        return ParsedMeasurements({}, rejected)

    times = _parse_timestamps(stamps, lines)
    try:
        values = np.array(raw_values, dtype=np.float64)
    except ValueError:
        for i, raw in enumerate(raw_values):
            try:
                float(raw)
            except ValueError:
                raise MeasurementFormatError(f"bad value {raw!r}", lines[i]) from None
        raise
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        i = int(bad[0])
        raise MeasurementFormatError(f"non-finite value {raw_values[i]!r}", lines[i])

    series: dict[str, TimeSeries] = {}
    unique_ids, inverse = np.unique(np.array(ids), return_inverse=True)
    for k, sensor_id in enumerate(unique_ids.tolist()):
        idx = np.flatnonzero(inverse == k)  # file order
        series[sensor_id] = last_wins(sensor_id, times[idx], values[idx])
    return ParsedMeasurements(series, rejected)


def write_measurements_csv(series: Mapping[str, TimeSeries]) -> str:
    """Serialize series to the measurements CSV format (reference producer)."""
    out = [",".join(MEASUREMENT_HEADER)]
    for s in series.values():
        sid = s.sensor_id
        for t, v in zip(s.times.tolist(), s.values.tolist()):
            out.append(f"{sid},{format_iso8601(t)},{float(v)!r}")
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class WeatherHistory:
    """Hourly outdoor conditions for one site, gaps permitted and recorded."""

    site_id: str
    times: np.ndarray      # int64 epoch seconds, hourly grid
    outdoor_temp: np.ndarray
    wind_speed: np.ndarray
    cloud_cover: np.ndarray
    gaps: tuple[tuple[int, int], ...] = ()  # [start, end) missing ranges

    def __len__(self) -> int:
        return len(self.times)

    def at_hour(self, epoch: int) -> tuple[float, float, float] | None:
        """(temp, wind, cloud) for the hour containing `epoch`, if recorded."""
        hour = (int(epoch) // 3600) * 3600
        i = int(np.searchsorted(self.times, hour))
        if i < len(self.times) and self.times[i] == hour:
            return (float(self.outdoor_temp[i]), float(self.wind_speed[i]),
                    float(self.cloud_cover[i]))
        return None


def load_weather(document: str) -> dict[str, WeatherHistory]:
    """Parse an hourly weather CSV into per-site histories."""
    reader = csv.reader(io.StringIO(document))
    header = next(reader, None)
    if header != WEATHER_HEADER:
        raise WeatherFormatError(
            f"expected header {','.join(WEATHER_HEADER)!r}, got {header!r}")

    rows: dict[str, list[tuple[int, float, float, float]]] = {}
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 5:
            raise WeatherFormatError(f"line {line_no}: expected 5 fields, got {len(row)}")
        try:
            t = parse_iso8601(row[1])
            temp, wind, cloud = float(row[2]), float(row[3]), float(row[4])
        except (ModelError, ValueError) as exc:
            raise WeatherFormatError(f"line {line_no}: {exc}") from None
        if not (math.isfinite(temp) and math.isfinite(wind) and math.isfinite(cloud)):
            raise WeatherFormatError(f"line {line_no}: non-finite value")
        if t % 3600 != 0:
            raise WeatherFormatError(
                f"line {line_no}: timestamp {row[1]} not on the hourly grid")
        if not 0.0 <= cloud <= 1.0:
            raise WeatherFormatError(
                f"line {line_no}: cloud cover {cloud} outside [0, 1]")
        if wind < 0.0:
            raise WeatherFormatError(f"line {line_no}: negative wind speed {wind}")
        rows.setdefault(row[0], []).append((t, temp, wind, cloud))

    histories: dict[str, WeatherHistory] = {}
    for site_id in sorted(rows):
        entries = rows[site_id]
        times = np.array([e[0] for e in entries], dtype=np.int64)
        if len(times) > 1 and not np.all(np.diff(times) > 0):
            raise WeatherFormatError(f"site {site_id}: timestamps not strictly increasing")
        gaps = []
        deltas = np.diff(times)
        for i in np.flatnonzero(deltas > 3600):
            gaps.append((int(times[i]) + 3600, int(times[i + 1])))
        histories[site_id] = WeatherHistory(
            site_id=site_id,
            times=times,
            outdoor_temp=np.array([e[1] for e in entries]),
            wind_speed=np.array([e[2] for e in entries]),
            cloud_cover=np.array([e[3] for e in entries]),
            gaps=tuple(gaps),
        )
    return histories


def write_weather_csv(histories: Mapping[str, WeatherHistory]) -> str:
    out = [",".join(WEATHER_HEADER)]
    for site_id in histories:
        h = histories[site_id]
        for i in range(len(h)):
            out.append(
                f"{site_id},{format_iso8601(int(h.times[i]))},"
                f"{float(h.outdoor_temp[i])!r},{float(h.wind_speed[i])!r},"
                f"{float(h.cloud_cover[i])!r}")
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class LoadResult:
    series: TimeSeries
    found: bool


class SeriesStore:
    """Partitioned on-disk series store, one CSV per sensor per UTC day.

    Writes are serialized per partition (one writer per sensor directory);
    reads verify row counts against the manifest sidecar.
    """

    def __init__(self, root: Path | str):
        self.root = Path(root)

    def _sensor_dir(self, site_id: str, sensor_id: str) -> Path:
        return self.root / site_id / sensor_id

    @staticmethod
    def _read_manifest(path: Path) -> dict:
        try:
            manifest = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise StoreIntegrityError(f"{path}: corrupt manifest: {exc}") from None
        if not isinstance(manifest, dict):
            raise StoreIntegrityError(f"{path}: manifest is not an object")
        return manifest

    def save(self, site_id: str, series: TimeSeries) -> int:
        """Write the series' day partitions; returns number of partitions."""
        sensor_dir = self._sensor_dir(site_id, series.sensor_id)
        sensor_dir.mkdir(parents=True, exist_ok=True)
        manifest_path = sensor_dir / "manifest.json"
        manifest = {}
        if manifest_path.exists():
            manifest = self._read_manifest(manifest_path)

        days = series.times // DAY_SECONDS
        boundaries = np.flatnonzero(np.diff(days)) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [len(series)]))
        for a, b in zip(starts.tolist(), ends.tolist()):
            if b == a:
                continue
            day = int(days[a])
            day_name = day_to_date(day).isoformat()
            rows = ["timestamp,value"]
            ts = series.times[a:b].tolist()
            vs = series.values[a:b].tolist()
            rows.extend(f"{format_iso8601(t)},{v!r}" for t, v in zip(ts, vs))
            (sensor_dir / f"{day_name}.csv").write_text("\n".join(rows) + "\n")
            manifest[day_name] = b - a
        manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
        return len(starts)

    def load(self, site_id: str, sensor_id: str) -> LoadResult:
        """Load all partitions of one sensor; absent sensors load empty."""
        sensor_dir = self._sensor_dir(site_id, sensor_id)
        if not sensor_dir.is_dir():
            return LoadResult(TimeSeries.empty(sensor_id), found=False)
        manifest_path = sensor_dir / "manifest.json"
        if not manifest_path.exists():
            raise StoreIntegrityError(f"{sensor_dir}: missing manifest")
        manifest = self._read_manifest(manifest_path)

        all_times: list[np.ndarray] = []
        all_values: list[np.ndarray] = []
        for day_name in sorted(manifest):
            part = sensor_dir / f"{day_name}.csv"
            if not part.exists():
                raise StoreIntegrityError(f"{part}: partition listed in manifest is missing")
            lines = part.read_text().splitlines()
            if not lines or lines[0] != "timestamp,value":
                raise StoreIntegrityError(f"{part}: bad partition header")
            body = lines[1:]
            if len(body) != manifest[day_name]:
                raise StoreIntegrityError(
                    f"{part}: row count {len(body)} != manifest {manifest[day_name]}")
            if not body:
                continue
            stamps, values = zip(*(line.split(",", 1) for line in body))
            all_times.append(_parse_timestamps(list(stamps), list(range(2, len(body) + 2))))
            all_values.append(np.array(values, dtype=np.float64))
        if not all_times:
            return LoadResult(TimeSeries.empty(sensor_id), found=True)
        return LoadResult(
            TimeSeries(sensor_id, np.concatenate(all_times), np.concatenate(all_values)),
            found=True,
        )

    def sites(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return sorted(p.name for p in self.root.iterdir() if p.is_dir())
