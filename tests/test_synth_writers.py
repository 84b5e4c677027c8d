"""`synthgen`'s CSV writers: repr's digits in arrays, whole files in one buffer.

Every value must come out as ``repr`` writes it, whether the value kernel or
its repr() fallback writes it, and whole files as the retired line-by-line
writers wrote them. The bench workloads' inputs, written in-process, must
match `bench/inputs.lock.json`, so that a writer drift fails here and not
only as the bench's "inputs changed".
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from schoolsense.ingest import WeatherHistory
from schoolsense.model import TimeSeries
from schoolsense.synthgen import (
    ScenarioError,
    ScenarioSpec,
    _shortest,
    _value_text,
    generate,
    write_measurements_csv,
    write_weather_csv,
)

from synthgen_oracles import oracle_write_measurements_csv, oracle_write_weather_csv

BENCH = Path(__file__).resolve().parents[1] / "bench"
# The bench writes this file after synth, from synth's measurements.
BENCH_WRITTEN = "measurements/zz_resend.csv"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WORKLOADS


WORKLOADS = _load_workloads()


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def _texts(values: np.ndarray) -> list[str]:
    text, lengths = _value_text(values)
    return [row[:n].tobytes().decode() for row, n in zip(text, lengths.tolist())]


# Any double, and (far more often than by chance) one of the kernel's range.
_KERNEL_BITS = st.integers(_bits(1e-4) - 64, _bits(1e16) + 64)
_DOUBLES = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(_double),
    st.tuples(_KERNEL_BITS, st.sampled_from([0, 1 << 63])).map(lambda b: _double(b[0] | b[1])),
)
_EDGES = [x for k in (-4, 16) for x in (np.nextafter(10.0 ** k, 0.0), 10.0 ** k,
                                         np.nextafter(10.0 ** k, math.inf))]


@given(st.lists(_DOUBLES, min_size=1, max_size=64))
@example([0.0, -0.0])
@example([5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308])
@example([2.0 ** k for k in range(-14, 55)] + [-(2.0 ** k) for k in range(-14, 55)])
@example([float(x) for x in _EDGES])
@example([20.5, 0.95, -0.95, 500.0, 0.1, 0.3, 1e-4, 9999999999999998.0])
@example([0.125 * 10.0 ** k for k in range(-4, 17)])
@example([1000000000000000.25, 1000000000000000.75, -1000000000000000.25])
@example([math.inf, -math.inf, math.nan])
def test_every_double_is_written_as_repr_writes_it(values):
    assert _texts(np.array(values)) == [repr(v) for v in values]


def test_kernel_leaves_its_documented_cases_to_repr():
    # zero, values repr writes with an exponent or in words, powers of two, and
    # 17-digit ties (...02.5 and ...07.5 scaled)
    left = [0.0, -0.0, 5e-324, float(np.nextafter(1e-4, 0.0)), 1e16, math.inf, math.nan]
    left += [2.0 ** k for k in range(-13, 54)] + [-0.5]
    left += [1000000000000000.25, 1000000000000000.75]
    decided = [20.5, 0.95, -0.95, 1e-4, 9999999999999998.0, 1000000000000000.125]
    mask = _shortest(np.array(left + decided))[3]
    assert not mask[:len(left)].any()
    assert mask[len(left):].all()


_FIRST, _STOP = -62167219200, 253402300800  # 0000-01-01 and 10000-01-01
_FINITE = _DOUBLES.filter(math.isfinite)
_IDS = st.text(st.sampled_from("ab-_0é"), min_size=1, max_size=9)


@st.composite
def _run(draw, columns: int):
    size = draw(st.integers(0, 12))
    times = sorted(draw(st.sets(st.integers(_FIRST, _STOP - 1), min_size=size, max_size=size)))
    values = [draw(st.lists(_FINITE, min_size=size, max_size=size)) for _ in range(columns)]
    return np.array(times, np.int64), [np.array(v, np.float64) for v in values]


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(_IDS, _run(1), max_size=4))
def test_measurements_writer_matches_the_line_by_line_writer(runs):
    series = {sid: TimeSeries(sid, times, values) for sid, (times, [values]) in runs.items()}
    assert write_measurements_csv(series) == oracle_write_measurements_csv(series)


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(_IDS, _run(3), max_size=4))
def test_weather_writer_matches_the_line_by_line_writer(runs):
    histories = {site: WeatherHistory(times, *columns)
                 for site, (times, columns) in runs.items()}
    assert write_weather_csv(histories) == oracle_write_weather_csv(histories)


@pytest.mark.parametrize("stamp", [_FIRST - 1, _STOP])
def test_a_stamp_outside_the_written_years_is_refused(stamp):
    with pytest.raises(ScenarioError, match="0000 to 9999"):
        write_measurements_csv({"a": TimeSeries("a", np.array([stamp]), np.array([1.0]))})


# ---------------------------------------------------------------- bench workloads

@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    out = {}
    for name, workload in WORKLOADS.items():
        spec = ScenarioSpec.from_json(json.dumps(workload.spec()))
        out[name] = generate(spec, tmp_path_factory.mktemp(name))
    return out


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_generate_writes_the_locked_bench_inputs(generated, name):
    pinned = json.loads((BENCH / "inputs.lock.json").read_text())[name]
    out_dir = generated[name].out_dir
    written = sorted(str(p.relative_to(out_dir)) for p in out_dir.rglob("*") if p.is_file())
    assert written == sorted(set(pinned) - {BENCH_WRITTEN})
    for path in written:
        digest = hashlib.sha256((out_dir / path).read_bytes()).hexdigest()
        assert digest == pinned[path]["sha256"], path


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_kernel_writes_nearly_every_workload_value(generated, name):
    scenario = generated[name]
    values = np.concatenate(
        [s.values for s in scenario.series.values()]
        + [getattr(h, column) for h in scenario.weather.values()
           for column in ("outdoor_temp", "wind_speed", "cloud_cover")])
    decided = _shortest(values)[3] | (values == 0)  # the writer spells zero itself
    assert decided.mean() >= 0.99
