from __future__ import annotations

import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import schoolsense
from schoolsense import cli, performance
from schoolsense.ingest import WeatherHistory
from schoolsense.model import (
    DAY_SECONDS,
    ORIENTATION_TEMPLATE,
    Orientation,
    Site,
    TimeSeries,
    orientation_gain,
)
from schoolsense.performance import (
    UNSHADED_MIN_R,
    CorrelationReport,
    CorrelationUndefined,
    DailySwing,
    SwingReport,
    detect_occupant_events,
    poor_insulation_days,
    solar_gain_correlation,
    weekend_daily_swings,
)
from schoolsense.quality import flag_outliers
from schoolsense.synthgen import GAIN_TIME_CONSTANT_S, _thermal_lag

import test_cli
from conftest import constants, series_at, utc
from performance_oracles import oracle_detect_occupant_events


def _scalar_gain(hour: float, orientation: Orientation) -> float:
    """Half-sine template evaluated one hour at a time."""
    peak, amplitude = ORIENTATION_TEMPLATE[orientation]
    phase = (hour - (peak - 6.0)) / 12.0
    if not 0.0 <= phase <= 1.0:
        return 0.0
    return amplitude * math.sin(math.pi * phase)


@pytest.mark.parametrize("orientation", list(Orientation))
def test_orientation_gain_matches_scalar_half_sine(orientation):
    peak, _ = ORIENTATION_TEMPLATE[orientation]
    # the half-hours solar_gain_correlation uses, phase 0 and 1, and just outside
    hours = np.concatenate((
        np.arange(24) + 0.5,
        [peak - 6.0, peak + 6.0, peak - 6.0 - 1e-9, peak + 6.0 + 1e-9, peak]))
    got = orientation_gain(hours, orientation)
    assert got.tolist() == [_scalar_gain(h, orientation) for h in hours.tolist()]


@pytest.mark.parametrize("rate", [60, 600])
def test_thermal_lag_matches_lfilter(rate):
    signal = pytest.importorskip("scipy.signal")
    x = np.random.default_rng(rate).uniform(0.0, 4.0, 3000)
    alpha = float(np.exp(-rate / GAIN_TIME_CONSTANT_S))
    expected = signal.lfilter([1.0 - alpha], [1.0, -alpha], x)
    expected += alpha * x[0] * alpha ** np.arange(len(x))
    assert np.array_equal(_thermal_lag(x, rate), expected)


def test_thermal_lag_empty_input():
    assert len(_thermal_lag(np.empty(0), 600)) == 0


def test_cli_import_does_not_load_scipy(tmp_path):
    src = str(Path(schoolsense.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    (tmp_path / "spec.json").write_text(json.dumps(test_cli.SPEC))
    assert cli.main(["synth", str(tmp_path / "spec.json"), "--out", str(tmp_path / "inputs")]) == 0
    config = test_cli._write_config(tmp_path)
    # hashlib loads OpenSSL, about 3.6 MB of RSS per command; the store uses zlib.crc32.
    # numpy.ma costs about 12 ms per command. Under numpy 2.4.6 np.percentile and
    # np.quantile load it, and so does np.unique unless it returns indices or counts.
    # Only synth runs the generator, and each analysis module loads in the commands
    # that run it (quality and performance share the orderstat kernel); synth loads
    # none of them, and its hashlib comes with numpy.random (through secrets).
    # Building a dataclass costs about 1 ms a class, so only synthgen defines any.
    watched = ("numpy.ma", "dataclasses", "schoolsense.synthgen", "schoolsense.quality",
               "schoolsense.performance", "schoolsense.comfort", "schoolsense.orderstat")
    code = ("import sys, schoolsense.cli; "
            "code = schoolsense.cli.main(sys.argv[1:]) if sys.argv[1:] else 0; "
            "print(code, sorted(m for m in sys.modules "
            f"if m.split('.')[0] in ('scipy', 'hashlib') or m in {watched!r}))")
    for command, loaded in (
        ([], []),
        (["synth", str(tmp_path / "spec.json"), "--out", str(tmp_path / "again")],
         ["dataclasses", "hashlib", "schoolsense.synthgen"]),
        (["ingest", *config], []),
        (["quality", *config], ["schoolsense.orderstat", "schoolsense.quality"]),
        (["comfort", *test_cli.COMFORT, *config], ["schoolsense.comfort"]),
        (["perf", *config], ["schoolsense.orderstat", "schoolsense.performance"]),
    ):
        out = subprocess.run([sys.executable, "-c", code, *command], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout
        assert out.splitlines()[-1] == f"0 {loaded}", command


def test_analysis_modules_leave_local_time_to_the_site_clock():
    # Site.local and Site.utc are the only conversions between UTC and local time,
    # so a change of the clock (summer time, say) is made in one class
    package = Path(schoolsense.__file__).resolve().parent
    for module in ("cli", "comfort", "performance", "quality", "orderstat"):
        source = (package / f"{module}.py").read_text(encoding="utf-8")
        assert "tz_offset_minutes" not in source, module


@pytest.mark.parametrize("detector", [flag_outliers, weekend_daily_swings, poor_insulation_days,
                                      solar_gain_correlation, detect_occupant_events],
                         ids=lambda detector: detector.__name__)
def test_detectors_take_no_settings_but_the_sensor_kind(detector):
    # every building is judged by the same rules, so thresholds and windows are
    # module constants; only flag_outliers' kind and zero_implausible vary by sensor
    settings = {p.name for p in inspect.signature(detector).parameters.values()
                if p.default is not p.empty or p.kind is p.KEYWORD_ONLY}
    assert settings <= {"kind", "zero_implausible"}


# ---------------------------------------------------------------- detectors

SATURDAY = utc(2017, 9, 9)  # 2017-09-04 is a Monday
FIVE_MIN = 300


def _site(tz_offset_minutes: int = 0) -> Site:
    return Site("s", 38.0, 23.7, 0, tz_offset_minutes=tz_offset_minutes)


@pytest.mark.parametrize("values, events", [
    # a window opens: 2.5 degC down in ten minutes, back up within the next ten
    ([22.0] * 10 + [20.5, 19.5, 19.7, 21.0, 21.8] + [22.0] * 10, [(11, 2.5)]),
    # a weather front: 3 degC over three hours is never 2 degC within 30 minutes
    (list(np.linspace(22.0, 19.0, 37)), []),
    # cooling that persists never recovers half of the fall
    ([22.0] * 10 + [20.5] + [19.5] * 30, []),
    # one glitched sample: nothing else near the trough sits below half depth
    ([22.0] * 10 + [19.0] + [22.0] * 10, []),
    # a second dip before the first one recovers belongs to the first event
    ([22.0, 19.0, 19.0] + [20.0] * 4 + [17.0, 17.0, 20.0, 22.0], [(1, 3.0)]),
])
def test_detect_occupant_events(values, events):
    series = series_at("t", utc(2017, 9, 4, 9), FIVE_MIN, values)
    found = detect_occupant_events(series)
    assert [(e.time, e.fall) for e in found] == [
        (int(series.times[i]), pytest.approx(fall)) for i, fall in events]


# sampling steps, jittered steps and outage gaps
event_steps = st.one_of(st.sampled_from((60, 120, 300, 300, 600, 3600, 7200)),
                        st.integers(1, 1200))
# plateaus, half-degree steps (so troughs tie), and dips that fall and recover
level_changes = st.one_of(
    st.sampled_from(((0.0,), (0.0, 0.0, 0.0), (0.5,), (-0.5,), (1.0,), (-1.0,), (-2.0,),
                     (-2.5, 0.0, 2.5), (-3.0, -0.5, 0.0, 1.5, 2.0), (-2.0, 0.5, -0.5, 2.0))),
    st.tuples(st.floats(-4.0, 4.0)))


@st.composite
def indoor_series(draw):
    gaps = draw(st.lists(event_steps, max_size=120))
    changes = [c for run in draw(st.lists(level_changes, min_size=len(gaps), max_size=len(gaps)))
               for c in run][:len(gaps)]
    times = utc(2017, 9, 4) + np.cumsum(np.array([0, *gaps], dtype=np.int64))[:len(gaps)]
    return TimeSeries("t", times, 21.0 + np.cumsum(np.array(changes, dtype=np.float64)))


EVENT_OPTIONS = dict(
    drop=st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.0)),
    within_minutes=st.sampled_from((0.5, 5.0, 10.0, 30.0, 45.0, 90.0)),
    recovery_fraction=st.sampled_from((0.0, 0.5, 1.0)),
    recovery_minutes=st.sampled_from((10.0, 120.0)),
    sustain_minutes=st.sampled_from((0.0, 10.0, 30.0)),
)
# the `performance` constant that each of the oracle's keywords stands for
EVENT_CONSTANTS = dict(drop="EVENT_DROP_C", within_minutes="EVENT_WITHIN_S",
                       recovery_fraction="EVENT_RECOVERY_FRACTION",
                       recovery_minutes="EVENT_RECOVERY_S", sustain_minutes="EVENT_SUSTAIN_S")


@settings(deadline=None, max_examples=300)
@given(indoor_series(), st.fixed_dictionaries(EVENT_OPTIONS))
@example(TimeSeries.empty("t"), {})
@example(series_at("t", SATURDAY, 60, [22.0]), {"drop": 0.0})
@example(series_at("t", SATURDAY, 60, [22.0, 19.0]), {})
@example(series_at("t", SATURDAY, 60, [22.0, 22.0]), {"drop": 0.0})
def test_detect_occupant_events_matches_loop(series, options):
    # the constants hold seconds where the oracle takes minutes
    with constants(performance, **{EVENT_CONSTANTS[name]: int(value * 60)
                                   if name.endswith("_minutes") else value
                                   for name, value in options.items()}):
        got = detect_occupant_events(series)
    want = oracle_detect_occupant_events(series, **options)
    assert [(e.time, repr(e.fall)) for e in got] == [(e.time, repr(e.fall)) for e in want]


def test_weekend_daily_swings_skips_days_with_too_few_samples():
    saturday = series_at("t", SATURDAY, 3600, 20.0 + np.arange(24) / 4)
    sunday = series_at("t", SATURDAY + DAY_SECONDS, 3600, [20.0] * 11)
    series = TimeSeries("t", np.concatenate((saturday.times, sunday.times)),
                        np.concatenate((saturday.values, sunday.values)))
    report = weekend_daily_swings(series, _site())
    assert [(s.day, s.swing, s.rise_hours) for s in report.swings] == [
        (SATURDAY // DAY_SECONDS, 23 / 4, 23.0)]
    assert report.skipped_days == (SATURDAY // DAY_SECONDS + 1,)


def test_weekend_daily_swings_keeps_a_day_of_min_samples():
    series = series_at("t", SATURDAY, 3600, 20.0 + np.arange(12))
    with constants(performance, SWING_MIN_SAMPLES=12):
        report = weekend_daily_swings(series, _site())
    assert [(s.day, s.swing) for s in report.swings] == [(SATURDAY // DAY_SECONDS, 11.0)]
    with constants(performance, SWING_MIN_SAMPLES=13):
        report = weekend_daily_swings(series, _site())
    assert report.skipped_days == (SATURDAY // DAY_SECONDS,)


def test_weekend_daily_swings_uses_local_days():
    # Friday 22:00 UTC is Saturday 00:00 at UTC+2, so the cold first sample
    # belongs to the local Saturday
    values = [10.0] + [20.0] * 22 + [25.0]
    series = series_at("t", SATURDAY - 2 * 3600, 3600, values)
    local = weekend_daily_swings(series, _site(120)).swings
    assert [(s.day, s.min_t, s.max_t) for s in local] == [
        (SATURDAY // DAY_SECONDS, 10.0, 25.0)]
    utc_days = weekend_daily_swings(series, _site(0)).swings
    assert [(s.day, s.min_t, s.max_t) for s in utc_days] == [
        (SATURDAY // DAY_SECONDS, 20.0, 25.0)]


def _swing(day: int, swing: float) -> DailySwing:
    return DailySwing(day, 18.0, 18.0 + swing, swing, 6.0)


@pytest.mark.parametrize("min_days, flagged", [(2, True), (3, False)])
def test_poor_insulation_days_needs_min_days(min_days, flagged):
    report = SwingReport((_swing(1, 9.0), _swing(2, 3.0), _swing(3, 8.0)), ())
    with constants(performance, POOR_MIN_DAYS=min_days):
        hits = poor_insulation_days(report)
    assert [(s.day, s.swing) for s in hits] == ([(1, 9.0), (3, 8.0)] if flagged else [])


def _weekend_weather(days: int = 2, cloud=None) -> WeatherHistory:
    times = SATURDAY + 3600 * np.arange(days * 24, dtype=np.int64)
    rng = np.random.default_rng(7)
    cloud = rng.uniform(0.0, 1.0, len(times)) if cloud is None else np.full(len(times), cloud)
    return WeatherHistory(times, np.full(len(times), 15.0), np.zeros(len(times)), cloud)


def _weekend_indoor(days: int = 2, start: int = SATURDAY, flat: bool = False) -> TimeSeries:
    n = days * 24 * 6
    values = np.full(n, 21.0) if flat else 21.0 + np.random.default_rng(3).normal(0, 0.5, n)
    return series_at("t", start, 600, values)


@pytest.mark.parametrize("indoor, weather, message", [
    (_weekend_indoor(start=utc(2017, 9, 5)), _weekend_weather(), "no weekend samples"),
    (_weekend_indoor(days=1), _weekend_weather(days=1), "only 12 overlapping hours"),
    (_weekend_indoor(flat=True), _weekend_weather(), "zero-variance"),
    (_weekend_indoor(), _weekend_weather(cloud=1.0), "zero-variance"),
])
def test_solar_gain_correlation_undefined(indoor, weather, message):
    with pytest.raises(CorrelationUndefined, match=message):
        solar_gain_correlation(indoor, weather, Orientation.S, _site())


def test_solar_gain_correlation_skips_hours_without_weather():
    weather = _weekend_weather()
    # Saturday 10:00 to 12:59 UTC is missing, and the record ends Sunday 15:00
    keep = np.ones(len(weather), dtype=bool)
    keep[10:13] = False
    keep[39:] = False
    gappy = WeatherHistory(weather.times[keep], weather.outdoor_temp[keep],
                           weather.wind_speed[keep], weather.cloud_cover[keep])
    full = solar_gain_correlation(_weekend_indoor(), weather, Orientation.S, _site())
    with constants(performance, SOLAR_MIN_HOURS=1):
        gapped = solar_gain_correlation(_weekend_indoor(), gappy, Orientation.S, _site())
    assert gapped.hours == full.hours - 3 - 3


def test_unshaded_from_the_threshold_r_on():
    assert UNSHADED_MIN_R == 0.5
    assert CorrelationReport(r=0.5, hours=24, last_day=0).unshaded
    assert not CorrelationReport(r=float(np.nextafter(0.5, 0)), hours=24, last_day=0).unshaded
