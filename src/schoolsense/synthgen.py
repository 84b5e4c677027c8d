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

`generate` writes ``catalog.json``, ``ground_truth.json``, ``weather.csv`` and
``measurements/<site_id>.csv`` in the formats `ingest` reads. In both CSVs a
stamp is the 20-byte written form ``YYYY-MM-DDTHH:MM:SSZ`` (years 0000 to
9999), and a value is Python's shortest round-trip ``repr`` of its float64.
Each CSV is built in one byte buffer, from one call of `model.written_codes`
and one of the value kernel (`_shortest`) per column. The kernel finds repr's
digits in arrays for finite values with 1e-4 <= |x| < 1e16, and ±0.0 is
written as ``0.0`` and ``-0.0``. It leaves to repr() the values repr writes
with an exponent or in words, powers of two, a tie between two candidates,
and the rare scaled value it cannot place.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import MISSING, dataclass, field, fields
from datetime import date
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .ingest import (
    _ID_FORBIDDEN,
    MEASUREMENT_HEADER,
    WEATHER_HEADER,
    WeatherHistory,
    _store_id,
    catalog_to_json,
)
from .model import (
    DAY_SECONDS,
    Classroom,
    DeploymentCatalog,
    Orientation,
    ScenarioError,
    SensorKind,
    SensorMeta,
    Site,
    TimeSeries,
    byte_slots,
    date_to_day,
    format_iso8601,
    json_value,
    local_weekday,
    orientation_gain,
    written_codes,
)


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
        # a room id is part of its sensors' ids
        if any(c in json_value(self.room_id, str, "room_id") for c in _ID_FORBIDDEN):
            raise ScenarioError(f"room_id {self.room_id!r} cannot be part of a sensor id: a "
                                f"room id holds no /, \\, NUL, comma, quote or line break")
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
        _store_id(self.site_id, "site_id", ScenarioError)  # it names files and store directories
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
                    site_id=s["site_id"],
                    rooms=tuple(RoomSpec(room_id=r["room_id"], **_given(RoomSpec, r))
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
        """The document, with every stamp formatted in one `format_iso8601` call."""
        epochs = [t for iv in self.outage_intervals.values() for pair in iv for t in pair]
        epochs += [t for items in self.outliers.values() for t, _ in items]
        epochs += [t for times in self.occupant_events.values() for t in times]
        stamps = iter(format_iso8601(np.array(epochs, dtype=np.int64)))
        outages = {s: [[next(stamps), next(stamps)] for _ in iv]
                   for s, iv in self.outage_intervals.items()}
        outliers = {s: [[next(stamps), kind] for _, kind in items]
                    for s, items in self.outliers.items()}
        events = {room: [next(stamps) for _ in times]
                  for room, times in self.occupant_events.items()}
        doc = {
            "expected": self.expected,
            "deleted": self.deleted,
            "outage_intervals": outages,
            "outliers": outliers,
            "room_traits": self.room_traits,
            "occupant_events": events,
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
    chosen: list[int] = []  # kept sorted, so only a pick's two neighbours can be near
    for value in candidates[order].tolist():
        at = bisect_left(chosen, value)
        if ((at == 0 or value - chosen[at - 1] >= min_gap)
                and (at == len(chosen) or chosen[at] - value >= min_gap)):
            chosen.insert(at, value)
            if len(chosen) == count:
                break
    return np.array(chosen, dtype=np.int64)


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
        days = self.start_epoch + DAY_SECONDS * np.arange(spec.days)
        weekdays = np.flatnonzero(local_weekday(days, 0) < 5).tolist()  # of the spec's dates
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
        weekday = local_weekday(times, self.site.tz_offset_minutes)
        profile = _school_power_profile(self.local_hours(times), weekday)
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


# ---------------------------------------------------------------- writers

# Exact doubles 10**0 to 10**22, and 10**0 to 10**17 as integers.
_POW10 = 10.0 ** np.arange(23)
_POW10_INT = 10 ** np.arange(18, dtype=np.int64)
# Veltkamp's splitter, 2**27 + 1: it cuts a double into two halves of 26 bits.
_SPLITTER = 134217729.0


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rounded product hi = a * b and the lo with hi + lo == a * b exactly (Dekker);
    no FMA is needed."""
    hi = a * b
    c = _SPLITTER * a
    a_hi = c - (c - a)
    c = _SPLITTER * b
    b_hi = c - (c - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _shortest(values: np.ndarray):
    """repr's digits of each float64 value: a significand of 17 digits, of which repr
    writes the first `digits`, and `point`, with the value 0.d1d2... * 10**point;
    and a mask of the rows decided here (the others mean nothing).

    |x| is scaled to hi + lo = |x| * 10**p in [10**16, 10**17), with p = 16 - E
    at most 20, so that 10**p is an exact double. The two-product makes the sum
    exact, and hi >= 2**53 is an integer. Half the gap between x = f * 2**e
    (f in [0.5, 1)) and its neighbours, scaled, is 2**(e - 54) * 10**p, also
    exact. For j = 0, 1, ... a multiple of 10**j lies within that half-gap of
    hi + lo (for j = 0 always) up to some largest j: its multiples give repr's
    fewest digits, and the one nearest hi + lo is repr's choice. The bounds
    count only for an even significand, to which round-half-even reads a
    midpoint back. Once lo's integer part is moved into hi, each comparison is
    of an integer below 512 less the half-gap, which is exact, against lo;
    a larger integer is far from every bound.

    Left to repr(): non-finite values and |x| outside [1e-4, 1e16), which repr
    writes with an exponent or in words, zero among them; powers of two, whose
    gap below is half the gap above; a scaled value that misses [10**16, 10**17)
    after one correction of p; a tie between the two nearest multiples; and a
    result of 10**17.
    """
    magnitude = np.abs(values)
    decided = (magnitude >= 1e-4) & (magnitude < 1e16)
    x = np.where(decided, magnitude, 1.5)
    fraction, exponent = np.frexp(x)
    decided &= fraction != 0.5
    p = 16 - np.floor(np.log10(x)).astype(np.intp)
    guess = x * _POW10[p]
    p += (guess < 1e16).astype(np.intp) - (guess >= 1e17)
    hi, lo = _two_product(x, _POW10[p])
    decided &= (hi < 1e17) & ((hi > 1e16) | ((hi == 1e16) & (lo >= 0)))
    whole = np.rint(lo)
    scaled = hi.astype(np.int64) + whole.astype(np.int64)
    lo -= whole  # scaled + lo is the exact product, and |lo| <= 0.5
    half_gap = np.ldexp(_POW10[p], exponent - 54)
    even = (np.ldexp(fraction, 53).astype(np.int64) & 1) == 0

    trim = np.zeros(len(x), np.intp)  # the largest j, the trailing digits dropped
    rows = np.flatnonzero(decided)
    live = [scaled[rows], lo[rows], half_gap[rows], even[rows]]
    for j in range(1, 17):
        near, low, half, even_row = live
        r = near % 10 ** j
        below = r.astype(np.float64) - half  # distances to the multiples, less the half-gap
        above = (10 ** j - r).astype(np.float64) - half
        kept = np.where(even_row, (below <= -low) | (above <= low),
                        (below < -low) | (above < low))
        rows = rows[kept]
        if not len(rows):
            break
        trim[rows] = j
        live = [column[kept] for column in live]

    step = _POW10_INT[trim]
    r = scaled % step
    centre = r - step / 2  # exact wherever it is near lo
    significand = scaled - r + np.where(centre < -lo, 0, step)
    decided &= ((centre != -lo) & ((trim > 0) | (lo != -0.5))
                & (significand < 10 ** 17))
    return significand, 17 - trim, np.where(decided, 17 - p, 1), decided


# A digit buffer row: four '0's, a significand's 17 digits, then '0's. The
# digits are written as the first one and two little-endian words of eight.
_DIGIT_ROW = np.dtype({"names": ["first", "high", "low"], "formats": ["u1", "<u8", "<u8"],
                       "offsets": [4, 5, 13], "itemsize": 48})
# A text row holds a sign, up to 16 integer digits, the point and the 20 bytes of
# the fraction pass; the widest repr is 24 bytes.
_TEXT_WIDTH = 40


def _ascii8(words: np.ndarray) -> np.ndarray:
    """Little-endian words whose eight bytes are the digits of each word, below 10**8.

    The number is split into halves, quarters and digits, each step in every
    lane of the word at once; the quotients are multiply-shifts."""
    high = words // 10000
    w = high | (words - high * 10000) << np.uint64(32)
    high = (w * np.uint64(5243)) >> np.uint64(19) & np.uint64(0x0000007F0000007F)
    w = high | (w - high * np.uint64(100)) << np.uint64(16)
    high = (w * np.uint64(103)) >> np.uint64(10) & np.uint64(0x000F000F000F000F)
    return (high | (w - high * np.uint64(10)) << np.uint64(8)) + np.uint64(0x3030303030303030)


def _value_text(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """repr of each float64 value, as the rows of an ``(n, 40)`` byte matrix, and the
    length of each; the bytes of a row past its length mean nothing.

    The kernel's rows are placed in four passes of whole runs of bytes: a
    '-', the integer part (a '0' for |x| < 1), the point, and the fraction. Each
    is read from the digit buffer and may run on past its end, into bytes that
    the next pass or the row's end covers. The other rows are given repr().
    """
    n = len(values)
    significand, digits, point, decided = _shortest(values)
    zero = values == 0  # 0.0 and -0.0: digits '0', one before the point
    significand[zero], digits[zero], point[zero] = 0, 1, 1
    decided |= zero
    first = significand // 10 ** 16
    rest = (significand - first * 10 ** 16).astype(np.uint64)
    high = rest // np.uint64(10 ** 8)
    buffer = np.full((n, _DIGIT_ROW.itemsize), ord("0"), np.uint8)
    fields = buffer.view(_DIGIT_ROW)[:, 0]
    fields["first"] = first + ord("0")
    fields["high"] = _ascii8(high)
    fields["low"] = _ascii8(rest - high * np.uint64(10 ** 8))

    sign = np.signbit(values).astype(np.intp)
    whole = np.maximum(point, 1)                  # integer-part bytes
    lengths = sign + whole + 1 + np.maximum(digits - point, 1)
    text = np.empty((n, _TEXT_WIDTH), np.uint8)
    flat = text.reshape(-1)
    at = np.arange(0, n * _TEXT_WIDTH, _TEXT_WIDTH) + sign
    start = np.arange(0, n * _DIGIT_ROW.itemsize, _DIGIT_ROW.itemsize) + 4 + point
    text[:, 0] = ord("-")
    byte_slots(flat, 17)[at] = byte_slots(buffer.reshape(-1), 17)[start - whole]
    flat[at + whole] = ord(".")
    byte_slots(flat, 20)[at + whole + 1] = byte_slots(buffer.reshape(-1), 20)[start]
    for i in np.flatnonzero(~decided).tolist():
        spelled = repr(float(values[i])).encode()
        text[i, :len(spelled)] = np.frombuffer(spelled, np.uint8)
        lengths[i] = len(spelled)
    return text, lengths


def _csv(header: list[str], keys: list[str], counts: list[int], times: np.ndarray,
         columns: list[np.ndarray]) -> str:
    """A CSV document: the header, then a row ``key,stamp,value...`` for each time, the
    first `counts[0]` rows under `keys[0]` and so on.

    The document is one byte buffer. Values are written first, column by
    column, each as the first W bytes of its text row, W the column's widest
    text. A text runs on at most 21 bytes past its length (repr is 3 to 24
    bytes long), into later columns or the at least 23 bytes of newline, key,
    commas and stamp before the next row's first value; those are written last.
    """
    if len(times) == 0:
        return ",".join(header) + "\n"
    codes, inside = written_codes(times)
    if not inside.all():
        raise ScenarioError("a stamp must lie in the years 0000 to 9999 to be written")
    texts = [_value_text(column) for column in columns]
    names = [key.encode() for key in keys]
    key_lengths = np.repeat(np.array([len(name) for name in names], np.int64), counts)
    sizes = key_lengths + 22 + sum(lengths + 1 for _, lengths in texts)
    head = (",".join(header) + "\n").encode()
    stops = len(head) + np.cumsum(sizes)
    starts = stops - sizes
    end = int(stops[-1])
    document = np.empty(end + _TEXT_WIDTH, np.uint8)
    document[:len(head)] = np.frombuffer(head, np.uint8)
    commas = [starts + key_lengths, starts + key_lengths + 21]
    for text, lengths in texts:
        width = int(lengths.max())
        rows = np.ndarray((len(text),), f"V{width}", text, 0, (_TEXT_WIDTH,))
        byte_slots(document, width)[commas[-1] + 1] = rows
        commas.append(commas[-1] + 1 + lengths)
    commas.pop()
    byte_slots(document, 20)[commas[0] + 1] = codes.view("V20")[:, 0]
    for name, run in zip(names, np.split(starts, np.cumsum(counts)[:-1])):
        if len(name):
            byte_slots(document, len(name))[run] = np.frombuffer(name, f"V{len(name)}")[0]
    document[np.concatenate(commas)] = ord(",")
    document[stops - 1] = ord("\n")
    return document[:end].tobytes().decode()


def write_measurements_csv(series: Mapping[str, TimeSeries]) -> str:
    """Serialize series to the measurements CSV format (reference producer)."""
    runs = list(series.values())
    return _csv(MEASUREMENT_HEADER, [s.sensor_id for s in runs], [len(s) for s in runs],
                np.concatenate([s.times for s in runs] or [np.empty(0, np.int64)]),
                [np.concatenate([s.values for s in runs] or [np.empty(0)])])


def write_weather_csv(histories: Mapping[str, WeatherHistory]) -> str:
    """Serialize weather histories to the weather CSV format."""
    runs = list(histories.values())
    return _csv(WEATHER_HEADER, list(histories), [len(h) for h in runs],
                np.concatenate([h.times for h in runs] or [np.empty(0, np.int64)]),
                [np.concatenate([getattr(h, name) for h in runs] or [np.empty(0)])
                 for name in ("outdoor_temp", "wind_speed", "cloud_cover")])


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
        (out_path / "catalog.json").write_text(catalog_to_json(catalog), encoding="utf-8")
        (out_path / "weather.csv").write_text(write_weather_csv(weather), encoding="utf-8")
        (out_path / "ground_truth.json").write_text(truth.to_json(), encoding="utf-8")
        for site_spec in spec.sites:
            site_series = {
                m.sensor_id: series[m.sensor_id]
                for m in metas if m.site_id == site_spec.site_id
            }
            (out_path / "measurements" / f"{site_spec.site_id}.csv").write_text(
                write_measurements_csv(site_series), encoding="utf-8")

    return GeneratedScenario(
        catalog=catalog, series=series, weather=weather,
        ground_truth=truth, out_dir=out_path,
    )
