"""The bench tracer still finds every function it wraps and the arguments it counts.

`bench/tracing.py` skips a target that no longer exists and reports it
missing, so a renamed function or parameter would only drop its per-layer
metric. This test fails instead. A second test checks that the repair
counts it takes from the quality kernels' results mean what they say.
"""

from __future__ import annotations

import importlib.util
import inspect
import re
import sys
from pathlib import Path

import numpy as np

from schoolsense import quality
from schoolsense.model import SensorKind, SensorMeta, TimeSeries

from conftest import utc

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_and_counted_arguments_exist(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    tracer.install(tracing.TARGETS)
    read_anywhere = set()
    try:
        assert tracer.missing == []
        for target in tracing.TARGETS:
            if target.counts is None:
                continue
            read = re.findall(r'_arg\(bound, "(\w+)"\)', inspect.getsource(target.counts))
            wrapper = getattr(tracing._resolve(target.owner), target.attr)
            parameters = inspect.signature(wrapper).parameters
            for name in read:
                assert name in parameters, f"{target.name} has no parameter {name!r}"
            read_anywhere.update(read)
    finally:
        tracer.uninstall()
    assert read_anywhere == {"document", "series"}


def _traced(counts, function, *args, **kwargs):
    """`function`'s result and the tracer's `counts` of that call."""
    result = function(*args, **kwargs)
    return counts(inspect.signature(function).bind(*args, **kwargs), result), result


def test_repair_counts_add_up_on_a_series_with_every_flag_kind_and_a_gap(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    values = np.where(np.arange(120) % 2, 510.0, 500.0)  # quartiles 500 and 510
    # a zero with no sample before it, a power spike, and a sample just past
    # Q3 + 3 * IQR = 540 that jumps less than 10 deviations from the last survivor
    values[[0, 40, 60]] = 0.0, 5000.0, 545.0
    on = np.ones(120, dtype=bool)
    on[90:100] = False  # a 10-minute gap in the 60 s grid
    series = TimeSeries("p", utc(2017, 9, 4) + 60 * np.flatnonzero(on), values[on])

    flag, flags = _traced(tracing._flag, quality.flag_outliers, series, 3600,
                          kind=SensorKind.POWER_PHASE, zero_implausible=True, spike_sigma=10.0)
    assert sorted(flags["kind"].tolist()) == list(quality.FlagKind)
    assert flag["flags"] == len(set(flags["index"].tolist())) == 3

    replace, repair = _traced(tracing._replace, quality.replace_outliers, series,
                              flags["index"], 3600)
    assert replace["replaced"] + replace["dropped"] == flag["flags"]
    assert replace["dropped"] == 1
    repaired = repair.series
    assert len(repaired) == len(series) - replace["dropped"]

    meta = SensorMeta("p", "a", SensorKind.POWER_PHASE, 60)
    fill, _ = _traced(tracing._fill, quality.fill_missing, repaired, meta, 300)
    missing = (repaired.times[-1] - repaired.times[0]) // 60 + 1 - len(repaired)
    assert fill["filled"] + fill["unfilled"] == missing == 10
    assert fill["filled"] == 4  # those within 5 minutes of the last sample before the gap
