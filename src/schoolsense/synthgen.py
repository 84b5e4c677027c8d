"""Synthetic multi-site deployment generator with ground-truth labels.

Every artifact the analysis pipeline must detect is injected here and
logged, so each stage has an oracle: outages (contiguous deleted blocks),
zero errors, power spikes, poor-insulation rooms (large diurnal ramps),
unshaded rooms (solar gain locked to facade orientation and cloud cover)
and occupant window-opening events.

Indoor temperature is composed as: site diurnal base (+ day-to-day drift
and hourly weather noise), an insulation-scaled swing term, a solar-gain
term (1 - cloud) * orientation template attenuated 4x by blinds, plus
white sensor noise. Identical (seed, spec) runs produce byte-identical
files; sites draw from independent sub-streams of the master seed.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from datetime import date
from pathlib import Path
from typing import Iterable

import numpy as np

from .ingest import (
    WeatherHistory,
    catalog_to_json,
    write_measurements_csv,
    write_weather_csv,
)
from .model import (
    DAY_SECONDS,
    Classroom,
    DeploymentCatalog,
    Orientation,
    SensorKind,
    SensorMeta,
    Site,
    TimeSeries,
    date_to_day,
    format_iso8601,
    json_value,
)
from .performance import orientation_gain


class ScenarioError(ValueError):
    pass


# Stochastic texture of the generated climate. Day-to-day drift and hourly
# weather noise feed the indoor base via the coupling factors below, giving
# rooms realistic variation that is independent of the solar-gain channel.
DAY_DRIFT_SIGMA = 1.2
DAY_DRIFT_RHO = 0.7
HOURLY_NOISE_SIGMA = 0.8
HOURLY_NOISE_RHO = 0.7
CLOUD_SIGMA = 0.5
CLOUD_RHO = 0.2
INDOOR_DRIFT_COUPLING = 0.5
INDOOR_NOISE_COUPLING = 0.7
# Rooms respond to solar input with first-order thermal lag; an instantaneous
# gain term would leave hourly temperature rises uncorrelated with the input
# level, hiding exactly the signature the shading detector looks for.
GAIN_TIME_CONSTANT_S = 5400.0


def _given(spec: type, data: dict) -> dict:
    """The settings of `spec` that `data` holds, each of the JSON type of its
    field's default (`json_value`); settings `data` lacks keep the dataclass
    default. Fields without a default, and a site's rooms, are the caller's to
    build."""
    return {f.name: json_value(data[f.name], type(f.default), f.name) for f in fields(spec)
            if f.name in data and f.default is not MISSING and f.name != "rooms"}


@dataclass(frozen=True)
class RoomSpec:
    room_id: str
    orientation: Orientation = Orientation.S
    insulation: str = "good"  # good | poor
    blinds: bool = True
    occupant_events: int = 0

    def __post_init__(self):
        if self.insulation not in ("good", "poor"):
            raise ScenarioError(f"insulation must be good or poor, got {self.insulation!r}")
        if self.occupant_events < 0:
            raise ScenarioError("occupant_events must be >= 0")


@dataclass(frozen=True)
class SiteSpec:
    site_id: str
    latitude: float = 38.0
    longitude: float = 23.7
    tz_offset_minutes: int = 0
    outdoor_mean: float = 18.0       # mean of the outdoor diurnal cycle, degC
    outdoor_amplitude: float = 5.0   # half-range of the outdoor diurnal cycle
    mean_cloud: float = 0.4
    outage_fraction: float = 0.0
    zero_error_rate: float = 0.0
    spike_rate: float = 0.0
    cold_climate: bool = False
    rooms: tuple[RoomSpec, ...] = ()

    def __post_init__(self):
        for name in ("outage_fraction", "zero_error_rate", "spike_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ScenarioError(f"{name} must lie in [0, 1], got {rate}")
        if not 0.0 <= self.mean_cloud <= 0.95:
            raise ScenarioError(f"mean_cloud must lie in [0, 0.95], got {self.mean_cloud}")


@dataclass(frozen=True)
class ScenarioSpec:
    seed: int
    start: date
    days: int
    sites: tuple[SiteSpec, ...]
    sensing_rate: int = 300          # classroom and power sensors
    station_rate: int = 3600         # weather and atmosphere station sensors
    noise_sigma: float = 0.2
    indoor_offset: float = 4.0       # indoor mean above outdoor mean
    base_swing: float = 2.0          # indoor diurnal swing, good insulation
    poor_swing: float = 12.0         # indoor diurnal swing, poor insulation
    gain_amplitude: float = 4.0      # peak solar gain without blinds, degC
    blinds_attenuation: float = 0.25
    event_drop: float = 2.0          # occupant event magnitude, degC
    indoor_noise_coupling: float = INDOOR_NOISE_COUPLING

    def __post_init__(self):
        if self.days <= 0:
            raise ScenarioError("days must be positive")
        if self.sensing_rate <= 0 or self.station_rate <= 0:
            raise ScenarioError("sensing rates must be positive")
        if not self.sites:
            raise ScenarioError("scenario needs at least one site")
        seen = set()
        for site in self.sites:
            if site.site_id in seen:
                raise ScenarioError(f"duplicate site_id {site.site_id!r}")
            seen.add(site.site_id)

    @classmethod
    def from_json(cls, document: str) -> ScenarioSpec:
        try:
            data = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario syntax error at line {exc.lineno}: {exc.msg}") from None
        try:
            sites = tuple(
                SiteSpec(
                    site_id=str(s["site_id"]),
                    rooms=tuple(RoomSpec(room_id=str(r["room_id"]), **_given(RoomSpec, r))
                                for r in s.get("rooms", [])),
                    **_given(SiteSpec, s),
                )
                for s in data["sites"]
            )
            return cls(
                seed=json_value(data["seed"], int, "seed"),
                start=date.fromisoformat(data["start"]),
                days=json_value(data["days"], int, "days"),
                sites=sites,
                **_given(cls, data),
            )
        except KeyError as exc:
            raise ScenarioError(f"scenario missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ScenarioError):
                raise
            raise ScenarioError(f"bad scenario field: {exc}") from None


@dataclass
class GroundTruth:
    """Every injected artifact, recorded exactly once."""

    expected: dict[str, int] = field(default_factory=dict)
    deleted: dict[str, int] = field(default_factory=dict)
    outage_intervals: dict[str, list[tuple[int, int]]] = field(default_factory=dict)
    outliers: dict[str, list[tuple[int, str]]] = field(default_factory=dict)
    room_traits: dict[str, dict] = field(default_factory=dict)
    occupant_events: dict[str, list[int]] = field(default_factory=dict)

    def outage_fraction(self, sensor_ids: Iterable[str]) -> float:
        """Realized deleted/expected ratio over a group of sensors."""
        ids = list(sensor_ids)
        expected = sum(self.expected[s] for s in ids)
        if expected == 0:
            raise ScenarioError("no expected samples in group")
        return sum(self.deleted.get(s, 0) for s in ids) / expected

    def to_json(self) -> str:
        doc = {
            "expected": self.expected,
            "deleted": self.deleted,
            "outage_intervals": {
                s: np.reshape(format_iso8601(np.ravel(iv)), (-1, 2)).tolist()
                for s, iv in self.outage_intervals.items()
            },
            "outliers": {
                s: [[stamp, kind] for stamp, (_, kind)
                    in zip(format_iso8601([t for t, _ in items]), items)]
                for s, items in self.outliers.items()
            },
            "room_traits": self.room_traits,
            "occupant_events": {
                room: format_iso8601(times)
                for room, times in self.occupant_events.items()
            },
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class GeneratedScenario:
    catalog: DeploymentCatalog
    series: dict[str, TimeSeries]
    weather: dict[str, WeatherHistory]
    ground_truth: GroundTruth
    out_dir: Path | None = None


def _diurnal_shape(local_hour: np.ndarray) -> np.ndarray:
    """Piecewise-cosine daily profile: -1 at 06:00 rising to +1 at 14:00,
    then decaying back to -1 by 06:00 next day."""
    h = np.mod(local_hour - 6.0, 24.0)  # 0 at the daily minimum
    rising = h < 8.0
    shape = np.where(
        rising,
        -np.cos(np.pi * h / 8.0),
        np.cos(np.pi * (h - 8.0) / 16.0),
    )
    return shape


def _thermal_lag(signal_in: np.ndarray, rate: int) -> np.ndarray:
    """First-order response to a driving signal, steady-state gain 1."""
    if len(signal_in) == 0:
        return signal_in
    alpha = float(np.exp(-rate / GAIN_TIME_CONSTANT_S))
    out = np.empty(len(signal_in))
    prev = 0.0
    for i, x in enumerate(signal_in.tolist()):
        prev = alpha * prev + (1.0 - alpha) * x
        out[i] = prev
    out += alpha * signal_in[0] * alpha ** np.arange(len(signal_in))  # warm start
    return out


def _ar1(rng: np.random.Generator, n: int, rho: float) -> np.ndarray:
    """Unit-variance AR(1) noise."""
    eps = rng.normal(0.0, 1.0, n)
    out = np.empty(n)
    scale = np.sqrt(1.0 - rho * rho)
    prev = eps[0]
    out[0] = prev
    for i in range(1, n):
        prev = rho * prev + scale * eps[i]
        out[i] = prev
    return out


def _school_power_profile(local_hour: np.ndarray, weekday: np.ndarray) -> np.ndarray:
    """Smooth weekday usage hump, 0 outside school operation."""
    def ramp(h, a, b):
        x = np.clip((h - a) / (b - a), 0.0, 1.0)
        return 0.5 - 0.5 * np.cos(np.pi * x)

    hump = ramp(local_hour, 7.0, 9.5) * (1.0 - ramp(local_hour, 14.5, 17.0))
    return np.where(weekday < 5, hump, 0.0)


def _delete_blocks(
    rng: np.random.Generator, n: int, fraction: float, rate: int
) -> np.ndarray:
    """Boolean deletion mask hitting round(fraction * n) samples exactly,
    carved as contiguous blocks of one to eight hours."""
    deleted = np.zeros(n, dtype=bool)
    target = int(round(fraction * n))
    if n == 0 or target <= 0:
        return deleted
    per_hour = max(1, 3600 // rate)
    remaining = target
    while remaining > 0:
        length = min(int(rng.integers(1, 9)) * per_hour, n)
        start = int(rng.integers(0, n - length + 1))
        segment = deleted[start:start + length]
        fresh = int(length - segment.sum())
        if fresh == 0:
            continue
        if fresh > remaining:
            idx = np.flatnonzero(~segment)[:remaining]
            deleted[start + idx] = True
            remaining = 0
        else:
            deleted[start:start + length] = True
            remaining -= fresh
    return deleted


def _mask_intervals(times: np.ndarray, deleted: np.ndarray, rate: int) -> list[tuple[int, int]]:
    """[start, end) epoch ranges of contiguous deleted runs."""
    if not deleted.any():
        return []
    idx = np.flatnonzero(deleted)
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [len(idx) - 1]))
    return [(int(times[idx[a]]), int(times[idx[b]]) + rate) for a, b in zip(starts, ends)]


def _pick_separated(
    rng: np.random.Generator, candidates: np.ndarray, count: int, min_gap: int
) -> np.ndarray:
    """Choose `count` candidate indices pairwise at least `min_gap` apart."""
    order = rng.permutation(len(candidates))
    chosen: list[int] = []
    for pos in order.tolist():
        value = int(candidates[pos])
        if all(abs(value - c) >= min_gap for c in chosen):
            chosen.append(value)
            if len(chosen) == count:
                break
    return np.array(sorted(chosen), dtype=np.int64)


class _SiteGenerator:
    """Deterministic signal builder for one site."""

    def __init__(self, spec: ScenarioSpec, site: SiteSpec, site_index: int):
        self.spec = spec
        self.site = site
        self.rng = np.random.default_rng([spec.seed, site_index])
        self.start_epoch = date_to_day(spec.start) * DAY_SECONDS
        self.end_epoch = self.start_epoch + spec.days * DAY_SECONDS
        self.n_hours = spec.days * 24
        self.hour_times = self.start_epoch + 3600 * np.arange(self.n_hours, dtype=np.int64)

        # site-level stochastic components; day-to-day drift is anchored at
        # day centres and interpolated so it never steps at midnight
        day_values = DAY_DRIFT_SIGMA * _ar1(self.rng, spec.days, rho=DAY_DRIFT_RHO)
        day_centres = self.start_epoch + DAY_SECONDS // 2 + DAY_SECONDS * np.arange(spec.days)
        self._drift_centres = day_centres
        self._drift_values = day_values
        self.hourly_noise = HOURLY_NOISE_SIGMA * _ar1(self.rng, self.n_hours, rho=HOURLY_NOISE_RHO)
        self.cloud = np.clip(
            site.mean_cloud + CLOUD_SIGMA * _ar1(self.rng, self.n_hours, rho=CLOUD_RHO),
            0.0, 0.95)
        self.wind = np.clip(0.4 + 0.5 * _ar1(self.rng, self.n_hours, rho=0.6), 0.0, None)

        off = site.tz_offset_minutes * 60
        self.hour_local = ((self.hour_times + off) % DAY_SECONDS) / 3600.0
        self.outdoor_hourly = (
            site.outdoor_mean
            + self.drift(self.hour_times)
            + site.outdoor_amplitude * _diurnal_shape(self.hour_local)
            + self.hourly_noise
        )

    def drift(self, times: np.ndarray) -> np.ndarray:
        return np.interp(times, self._drift_centres, self._drift_values)

    def smooth_noise(self, times: np.ndarray) -> np.ndarray:
        """Hourly weather noise linearly interpolated to sample times;
        step changes at hour boundaries would mimic occupant events."""
        return np.interp(times, self.hour_times, self.hourly_noise)

    def grid(self, rate: int) -> np.ndarray:
        return np.arange(self.start_epoch, self.end_epoch, rate, dtype=np.int64)

    def hour_index(self, times: np.ndarray) -> np.ndarray:
        return np.clip((times - self.start_epoch) // 3600, 0, self.n_hours - 1)

    def local_hours(self, times: np.ndarray) -> np.ndarray:
        off = self.site.tz_offset_minutes * 60
        return ((times + off) % DAY_SECONDS) / 3600.0

    def local_weekday(self, times: np.ndarray) -> np.ndarray:
        off = self.site.tz_offset_minutes * 60
        return ((times + off) // DAY_SECONDS + 3) % 7

    def weather_history(self) -> WeatherHistory:
        return WeatherHistory(
            site_id=self.site.site_id,
            times=self.hour_times,
            outdoor_temp=self.outdoor_hourly,
            wind_speed=self.wind,
            cloud_cover=self.cloud,
        )

    def indoor_temperature(self, room: RoomSpec) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """(times, values, event trough times) for one room, artifact-free."""
        spec = self.spec
        times = self.grid(spec.sensing_rate)
        hidx = self.hour_index(times)
        h_loc = self.local_hours(times)
        swing = spec.poor_swing if room.insulation == "poor" else spec.base_swing
        blinds_mult = spec.blinds_attenuation if room.blinds else 1.0
        base = (
            self.site.outdoor_mean + spec.indoor_offset
            + INDOOR_DRIFT_COUPLING * self.drift(times)
            + spec.indoor_noise_coupling * self.smooth_noise(times)
        )
        solar_input = (
            spec.gain_amplitude * blinds_mult
            * (1.0 - self.cloud[hidx])
            * orientation_gain(h_loc, room.orientation)
        )
        gain = _thermal_lag(solar_input, spec.sensing_rate)
        values = (
            base
            + 0.5 * swing * _diurnal_shape(h_loc)
            + gain
            + self.rng.normal(0.0, spec.noise_sigma, len(times))
        )
        events = self._inject_events(times, values, room)
        return times, values, events

    def _inject_events(self, times: np.ndarray, values: np.ndarray, room: RoomSpec) -> list[int]:
        """Add drop-and-recover dips during weekday school hours, in place."""
        if room.occupant_events == 0:
            return []
        spec = self.spec
        off = self.site.tz_offset_minutes * 60
        weekdays = [
            d for d in range(spec.days)
            if ((self.start_epoch // DAY_SECONDS + d) + 3) % 7 < 5
        ]
        slots = [(d, h) for d in weekdays for h in (9, 13)]
        if room.occupant_events > len(slots):
            raise ScenarioError(
                f"room {room.room_id}: {room.occupant_events} events do not fit "
                f"{len(slots)} weekday slots")
        picks = self.rng.choice(len(slots), size=room.occupant_events, replace=False)
        rate = spec.sensing_rate
        drop = spec.event_drop
        # 10-minute fall with a brief overshoot (the initial draught), a hold
        # while the window stays open, then a 40-minute recovery
        knots = np.array([0.0, 600.0, 900.0, 2100.0, 4500.0])
        depths = np.array([0.0, 1.15 * drop, drop, drop, 0.0])
        troughs = []
        for p in sorted(picks.tolist()):
            d, h = slots[p]
            slot_start = self.start_epoch + d * DAY_SECONDS - off + h * 3600
            # sample-aligned so the full drop depth is actually observed
            t_start = slot_start + int(self.rng.integers(0, max(1, 1800 // rate))) * rate
            span = (times >= t_start) & (times <= t_start + int(knots[-1]))
            values[span] -= np.interp(times[span] - t_start, knots, depths)
            troughs.append(int(t_start) + 600)
        return troughs

    def relative_humidity(self) -> tuple[np.ndarray, np.ndarray]:
        times = self.grid(self.spec.sensing_rate)
        h_loc = self.local_hours(times)
        values = (
            45.0
            + 8.0 * np.sin(2.0 * np.pi * (h_loc - 4.0) / 24.0)
            + self.rng.normal(0.0, 1.0, len(times))
        )
        return times, values

    def power(self) -> tuple[np.ndarray, np.ndarray]:
        times = self.grid(self.spec.sensing_rate)
        profile = _school_power_profile(self.local_hours(times), self.local_weekday(times))
        values = 500.0 + 700.0 * profile + self.rng.normal(0.0, 20.0, len(times))
        return times, values

    def station(self, kind: SensorKind) -> tuple[np.ndarray, np.ndarray]:
        times = self.grid(self.spec.station_rate)
        hidx = self.hour_index(times)
        noise = self.rng.normal(0.0, 0.2, len(times))
        if kind is SensorKind.OUTDOOR_TEMPERATURE:
            values = self.outdoor_hourly[hidx] + noise
        elif kind is SensorKind.WIND_SPEED:
            values = np.clip(self.wind[hidx] + 0.1 * noise, 0.0, None)
        elif kind is SensorKind.ATMOSPHERIC_PRESSURE:
            week_phase = (times - self.start_epoch) / (7.0 * DAY_SECONDS)
            values = 1013.0 + 4.0 * np.sin(2.0 * np.pi * week_phase) + 2.0 * noise
        else:
            raise ScenarioError(f"no station signal for {kind}")
        return times, values


def generate(spec: ScenarioSpec, out_dir: Path | str | None = None) -> GeneratedScenario:
    """Build a full scenario; optionally write it in the ingestion formats."""
    sites: list[Site] = []
    metas: list[SensorMeta] = []
    series: dict[str, TimeSeries] = {}
    weather: dict[str, WeatherHistory] = {}
    truth = GroundTruth()

    for site_index, site_spec in enumerate(spec.sites):
        gen = _SiteGenerator(spec, site_spec, site_index)
        sid = site_spec.site_id
        weather[sid] = gen.weather_history()
        rooms = tuple(
            Classroom(room_id=r.room_id, site_id=sid, orientation=r.orientation,
                      label=f"{r.insulation} insulation, blinds {'yes' if r.blinds else 'no'}")
            for r in site_spec.rooms
        )
        sites.append(Site(
            site_id=sid,
            latitude=site_spec.latitude,
            longitude=site_spec.longitude,
            start_time=gen.start_epoch,
            tz_offset_minutes=site_spec.tz_offset_minutes,
            cold_climate=site_spec.cold_climate,
            rooms=rooms,
        ))

        site_sensors: list[tuple[SensorMeta, np.ndarray, np.ndarray, bool]] = []
        for room in site_spec.rooms:
            truth.room_traits[f"{sid}/{room.room_id}"] = {
                "insulation": room.insulation,
                "blinds": room.blinds,
                "orientation": room.orientation.value,
            }
            times, values, troughs = gen.indoor_temperature(room)
            if troughs:
                truth.occupant_events[f"{sid}/{room.room_id}"] = troughs
            meta = SensorMeta(f"{sid}-{room.room_id}-temp", sid,
                              SensorKind.INDOOR_TEMPERATURE, spec.sensing_rate, room.room_id)
            site_sensors.append((meta, times, values, not site_spec.cold_climate))
            h_times, h_values = gen.relative_humidity()
            meta = SensorMeta(f"{sid}-{room.room_id}-hum", sid,
                              SensorKind.RELATIVE_HUMIDITY, spec.sensing_rate, room.room_id)
            site_sensors.append((meta, h_times, h_values, True))

        p_times, p_values = gen.power()
        site_sensors.append((
            SensorMeta(f"{sid}-power", sid, SensorKind.POWER_PHASE, spec.sensing_rate),
            p_times, p_values, False,
        ))
        for kind, suffix in (
            (SensorKind.OUTDOOR_TEMPERATURE, "outdoor"),
            (SensorKind.WIND_SPEED, "wind"),
            (SensorKind.ATMOSPHERIC_PRESSURE, "pressure"),
        ):
            s_times, s_values = gen.station(kind)
            site_sensors.append((
                SensorMeta(f"{sid}-{suffix}", sid, kind, spec.station_rate),
                s_times, s_values, False,
            ))

        for meta, times, values, zero_target in site_sensors:
            metas.append(meta)
            n = len(times)
            truth.expected[meta.sensor_id] = n
            deleted = _delete_blocks(gen.rng, n, site_spec.outage_fraction, meta.sensing_rate)
            truth.deleted[meta.sensor_id] = int(deleted.sum())
            intervals = _mask_intervals(times, deleted, meta.sensing_rate)
            if intervals:
                truth.outage_intervals[meta.sensor_id] = intervals
            times = times[~deleted]
            values = values[~deleted]

            outliers: list[tuple[int, str]] = []
            if zero_target and site_spec.zero_error_rate > 0 and len(times):
                k = int(round(site_spec.zero_error_rate * len(times)))
                if k:
                    idx = np.sort(gen.rng.choice(len(times), size=k, replace=False))
                    values[idx] = 0.0
                    outliers.extend((int(times[i]), "zero_error") for i in idx.tolist())
            if meta.kind is SensorKind.POWER_PHASE and site_spec.spike_rate > 0 and len(times):
                k = int(round(site_spec.spike_rate * len(times)))
                if k:
                    idx = _pick_separated(
                        gen.rng, np.arange(len(times)), k, min_gap=5)
                    values[idx] = 10.0 * values[idx]
                    outliers.extend((int(times[i]), "spike") for i in idx.tolist())
            if outliers:
                truth.outliers[meta.sensor_id] = sorted(outliers)
            series[meta.sensor_id] = TimeSeries(meta.sensor_id, times, values)

    catalog = DeploymentCatalog(sites=tuple(sites), sensors=tuple(metas))

    out_path: Path | None = None
    if out_dir is not None:
        out_path = Path(out_dir)
        (out_path / "measurements").mkdir(parents=True, exist_ok=True)
        (out_path / "catalog.json").write_text(catalog_to_json(catalog))
        (out_path / "weather.csv").write_text(write_weather_csv(weather))
        (out_path / "ground_truth.json").write_text(truth.to_json())
        for site_spec in spec.sites:
            site_series = {
                m.sensor_id: series[m.sensor_id]
                for m in metas if m.site_id == site_spec.site_id
            }
            (out_path / "measurements" / f"{site_spec.site_id}.csv").write_text(
                write_measurements_csv(site_series))

    return GeneratedScenario(
        catalog=catalog, series=series, weather=weather,
        ground_truth=truth, out_dir=out_path,
    )
