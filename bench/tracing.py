"""Per-layer tracing: timing wrappers installed from outside the program.

Each wrapper sits on the module or class attribute through which the program
looks a public function up, records a span (start, end, parent) and counts
taken from the call's arguments and result.  A target that no longer exists
is skipped and reported missing, so only its metrics go absent.  Per-sample
functions are never wrapped.

Run as a script, this file is the traced child for one command:

    python bench/tracing.py RESULT.json -- <schoolsense cli arguments>

It imports `schoolsense.cli` (timing that import), installs the wrappers,
calls `cli.main(arguments)` in-process and writes spans and counts to
RESULT.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


def _arg(bound: inspect.BoundArguments, name: str):
    return bound.arguments[name]


def _generate(bound, result) -> dict:
    return {"samples": sum(len(s) for s in result.series.values())}


def _parse(bound, result) -> dict:
    rejected = sum(result.rejected.values())
    lines = _arg(bound, "document").count("\n") - 1
    return {"samples": sum(len(s) for s in result.series.values()),
            "accepted_rows": lines - rejected, "rejected": rejected}


def _save(bound, result) -> dict:
    return {"samples": len(_arg(bound, "series")), "partitions": int(result)}


def _load(bound, result) -> dict:
    return {"samples": len(result.series)}


def _flag(bound, result) -> dict:
    return {"samples": len(_arg(bound, "series")), "flags": len(result)}


def _replace(bound, result) -> dict:
    return {"samples": len(_arg(bound, "series")),
            "replaced": len(result.replaced), "dropped": len(result.dropped)}


def _fill(bound, result) -> dict:
    return {"samples": len(_arg(bound, "series")),
            "filled": len(result.filled), "unfilled": len(result.unfilled)}


def _comfort(bound, result) -> dict:
    return {"room_days_scored": sum(len(s) for s in result.room_scores.values()),
            "room_days_skipped": result.days_skipped}


def _events(bound, result) -> dict:
    return {"samples": len(_arg(bound, "series")), "events": len(result)}


@dataclass(frozen=True)
class Target:
    """A function to wrap: metric name, owner (module or module:Class), attribute."""

    name: str
    owner: str
    attr: str
    counts: Callable | None = None
    # exception class names that end a call as a counted skip, not an error
    skips: tuple[str, ...] = ()


# Owners are where the program looks each function up: `cli` imports the
# ingest and synthgen functions by name, everything else goes through its
# module.
TARGETS = (
    Target("synthgen.generate", "schoolsense.cli", "generate", _generate),
    Target("ingest.parse_measurements", "schoolsense.cli", "parse_measurements", _parse),
    Target("ingest.SeriesStore.save", "schoolsense.ingest:SeriesStore", "save", _save),
    Target("ingest.SeriesStore.load", "schoolsense.ingest:SeriesStore", "load", _load),
    Target("ingest.load_weather", "schoolsense.cli", "load_weather"),
    Target("quality.availability_matrix", "schoolsense.quality", "availability_matrix"),
    Target("quality.repair_series", "schoolsense.quality", "repair_series"),
    Target("quality.flag_outliers", "schoolsense.quality", "flag_outliers", _flag),
    Target("quality.replace_outliers", "schoolsense.quality", "replace_outliers", _replace),
    Target("quality.fill_missing", "schoolsense.quality", "fill_missing", _fill),
    Target("quality.moving_average", "schoolsense.quality", "moving_average"),
    Target("comfort.site_comfort_summary", "schoolsense.comfort", "site_comfort_summary",
           _comfort),
    Target("performance.detect_occupant_events", "schoolsense.performance",
           "detect_occupant_events", _events),
    Target("performance.weekend_daily_swings", "schoolsense.performance",
           "weekend_daily_swings"),
    Target("performance.solar_gain_correlation", "schoolsense.performance",
           "solar_gain_correlation", skips=("CorrelationUndefined",)),
)


@dataclass
class Stat:
    calls: int = 0
    busy_s: float = 0.0
    child_s: float = 0.0  # time of wrapped spans nested inside this one
    counts: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.busy_s - self.child_s


class Tracer:
    """Keeps span totals in memory; nesting is tracked with a stack."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.missing: list[str] = []
        self.top_s = 0.0  # time of spans that have no wrapped parent
        self._stack: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self, targets) -> None:
        for target in targets:
            owner = _resolve(target.owner)
            original = getattr(owner, target.attr, None) if owner is not None else None
            if original is None or not callable(original):
                self.missing.append(target.name)
                continue
            self.stats[target.name] = Stat()
            self._restore.append((owner, target.attr, original))
            setattr(owner, target.attr, self._wrap(target, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        signature = inspect.signature(fn)
        stat = self.stats[target.name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            self._stack.append(target.name)
            t0 = time.perf_counter()
            skipped = False
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                skipped = type(exc).__name__ in target.skips
                raise
            finally:
                elapsed = time.perf_counter() - t0
                self._stack.pop()
                stat.calls += 1
                stat.busy_s += elapsed
                if parent is None:
                    self.top_s += elapsed
                else:
                    self.stats[parent].child_s += elapsed
                if skipped:
                    stat.counts["skipped"] = stat.counts.get("skipped", 0) + 1
            if target.counts is not None:
                for key, n in target.counts(signature.bind(*args, **kwargs), result).items():
                    stat.counts[key] = stat.counts.get(key, 0) + n
            return result

        return wrapper

    def as_dict(self) -> dict:
        return {
            "missing": self.missing,
            "top_s": self.top_s,
            "spans": {
                name: {"calls": s.calls, "busy_s": s.busy_s, "self_s": s.self_s,
                       "counts": s.counts}
                for name, s in self.stats.items()
            },
        }


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, class_name, None) if class_name else module


def traced_main(argv: list[str]) -> dict:
    """Import the CLI, run one command under the tracer, and return the record."""
    t0 = time.perf_counter()
    cli = importlib.import_module("schoolsense.cli")
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        t1 = time.perf_counter()
        returncode = cli.main(argv)
        command_s = time.perf_counter() - t1
    finally:
        tracer.uninstall()
    return {"import_s": import_s, "command_s": command_s, "returncode": returncode,
            **tracer.as_dict()}


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracing.py RESULT.json -- <cli arguments>", file=sys.stderr)
        return 2
    record = traced_main(argv[2:])
    with open(argv[0], "w") as fh:
        json.dump(record, fh, indent=2)
    return 0 if record["returncode"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
