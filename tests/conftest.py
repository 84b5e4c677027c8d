from __future__ import annotations

from contextlib import contextmanager
from datetime import date, datetime, timezone

import numpy as np
import pytest

from schoolsense.model import (
    Classroom,
    DeploymentCatalog,
    Orientation,
    SensorKind,
    SensorMeta,
    Site,
    TimeSeries,
    parse_iso8601_bytes,
    to_epoch,
)


def utc(year, month, day, hour=0, minute=0, second=0) -> int:
    return int(datetime(year, month, day, hour, minute, second,
                        tzinfo=timezone.utc).timestamp())


def parse_stamps(texts) -> np.ndarray:
    """Epoch seconds, as an int64 array, of a sequence of ISO-8601 stamps, decoded together
    by `model.parse_iso8601_bytes`; a bad one raises ModelError with its position as
    `index`."""
    texts = [text.encode("utf-8", "surrogatepass") for text in texts]
    sizes = np.array([len(text) for text in texts], np.int64)
    stops = np.cumsum(sizes)
    return parse_iso8601_bytes(np.frombuffer(b"".join(texts), np.uint8), stops - sizes, stops)


@contextmanager
def constants(module, **values):
    """Set the named constants of `module` for the body of a `with` block.

    The analysis modules read their thresholds and windows from module
    constants when called, so a test sets them here. Unlike the `monkeypatch`
    fixture, this works inside a Hypothesis `@given` body; a name the module
    lacks raises AttributeError."""
    with pytest.MonkeyPatch.context() as patch:
        for name, value in values.items():
            patch.setattr(module, name, value)
        yield


def series_at(sensor_id: str, start: int, rate: int, values) -> TimeSeries:
    values = np.asarray(values, dtype=float)
    times = start + rate * np.arange(len(values), dtype=np.int64)
    return TimeSeries(sensor_id, times, values)


@pytest.fixture
def tiny_site() -> Site:
    return Site(
        site_id="alpha",
        latitude=38.0,
        longitude=23.7,
        start_time=utc(2017, 9, 4),
        tz_offset_minutes=0,
        rooms=(
            Classroom("r1", Orientation.SW, "corner room"),
            Classroom("r2", Orientation.N),
        ),
    )


@pytest.fixture
def tiny_catalog(tiny_site) -> DeploymentCatalog:
    return DeploymentCatalog(
        sites=(tiny_site,),
        sensors=(
            SensorMeta("t1", "alpha", SensorKind.INDOOR_TEMPERATURE, 30, "r1"),
            SensorMeta("h1", "alpha", SensorKind.RELATIVE_HUMIDITY, 30, "r1"),
            SensorMeta("p1", "alpha", SensorKind.POWER_PHASE, 30),
        ),
    )
