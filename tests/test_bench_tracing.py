"""The bench tracer still finds every function it wraps and the arguments it counts.

`bench/tracing.py` skips a target that no longer exists and reports it
missing, so a renamed function or parameter would only drop its per-layer
metric. This test fails instead.
"""

from __future__ import annotations

import importlib.util
import inspect
import re
import sys
from pathlib import Path

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
