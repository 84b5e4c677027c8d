"""Retired CSV writers of `synthgen`, kept as test oracles.

The measurement and weather writers lived in `ingest` and built each row as
an f-string, a value as ``repr`` and a stamp from ``np.datetime_as_string``.
Today's writers build each file in one byte buffer and must write the same
text. Apart from their names, the functions are the code as it was, except
that stamps come from ``np.datetime_as_string`` directly: `format_iso8601`,
which they called, now runs the stamp encoder under test.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from schoolsense.ingest import MEASUREMENT_HEADER, WEATHER_HEADER, WeatherHistory
from schoolsense.model import TimeSeries


def _stamps(times: np.ndarray) -> list[str]:
    text = np.datetime_as_string(np.asarray(times, dtype="datetime64[s]"), unit="s")
    return [f"{stamp}Z" for stamp in text.tolist()]


def oracle_write_measurements_csv(series: Mapping[str, TimeSeries]) -> str:
    out = [",".join(MEASUREMENT_HEADER)]
    for s in series.values():
        sid = s.sensor_id
        out.extend(f"{sid},{t},{v!r}" for t, v in zip(_stamps(s.times), s.values.tolist()))
    return "\n".join(out) + "\n"


def oracle_write_weather_csv(histories: Mapping[str, WeatherHistory]) -> str:
    out = [",".join(WEATHER_HEADER)]
    for site_id, h in histories.items():
        out.extend(
            f"{site_id},{t},{temp!r},{wind!r},{cloud!r}"
            for t, temp, wind, cloud in zip(
                _stamps(h.times), h.outdoor_temp.tolist(), h.wind_speed.tolist(),
                h.cloud_cover.tolist()))
    return "\n".join(out) + "\n"
