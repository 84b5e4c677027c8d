"""Retired readers and parsers of `ingest`, kept as test oracles.

`ingest._read_table` split its documents with `csv.reader`, then with
`str.split`, before it read their bytes with numpy. On documents without a
quote the `csv.reader` version must agree with today's reader: the same
fields, the same line numbers, and the same line in an error.

The `str.split` reader and the parsers built on it (`oracle_parse_measurements`,
`oracle_load_weather`) made a Python str per field and parsed each column with
`np.array(..., float64)`, falling back to float() entry by entry. Today's
parsers must give the same series bit for bit, the same rejects and the same
error text. Apart from their names, the functions are the code as it was,
except that stamps go through `parse_iso8601` one at a time: the sequence form
of it that they called became the byte decoder under test, whose contract is
to agree with it. And every error they raise is an IngestError, as `ingest`'s
are: they no longer take a subclass of it to raise.
"""

from __future__ import annotations

import csv
import io
from itertools import compress, repeat

import numpy as np

from schoolsense.ingest import (
    MEASUREMENT_HEADER,
    WEATHER_HEADER,
    IngestError,
    ParsedMeasurements,
    WeatherHistory,
    last_wins,
)
from schoolsense.model import DeploymentCatalog, ModelError, parse_iso8601


def oracle_read_table(document: str, header: list[str]):
    """The columns (tuples of str) of a CSV document below its header, and their line numbers.

    Blank lines are skipped; a wrong header or field count raises IngestError with its line.
    """
    rows = list(csv.reader(io.StringIO(document)))
    if not rows or rows[0] != header:
        raise IngestError(f"line 1: expected header {','.join(header)!r}, got {rows[:1]!r}")
    lines = [n for n, row in enumerate(rows[1:], start=2) if row]
    rows = [row for row in rows[1:] if row]
    if set(map(len, rows)) - {len(header)}:
        line, row = next((n, r) for n, r in zip(lines, rows) if len(r) != len(header))
        raise IngestError(f"line {line}: expected {len(header)} fields, got {len(row)}")
    return list(zip(*rows)) or [()] * len(header), lines


def oracle_split_table(document: str, header: list[str]):
    """The columns (lists of str) of a CSV document below its header, and their line numbers.

    The grammar is the module docstring's: a quote raises IngestError with its
    line, a trailing ``\r`` is dropped, and blank lines are skipped but keep
    their numbers. A wrong header or field count raises IngestError with its line.
    """
    if '"' in document:
        line = document.count("\n", 0, document.index('"')) + 1
        raise IngestError(f"line {line}: quoted fields are not supported")
    lines = document.split("\n")
    if "\r" in document:
        lines = [line[:-1] if line.endswith("\r") else line for line in lines]
    if lines[0] != ",".join(header):
        raise IngestError(f"line 1: expected header {','.join(header)!r}, got {lines[0]!r}")
    numbers = list(compress(range(2, len(lines) + 1), lines[1:]))
    body = list(filter(None, lines[1:]))
    width = len(header)
    commas = list(map(str.count, body, repeat(",")))
    if commas.count(width - 1) != len(commas):
        i = next(i for i, n in enumerate(commas) if n != width - 1)
        raise IngestError(f"line {numbers[i]}: expected {width} fields, got {commas[i] + 1}")
    cells = ",".join(body).split(",") if body else []
    return [cells[k::width] for k in range(width)], numbers


def oracle_group_rows(keys) -> dict[str, np.ndarray]:
    """Row indices of each distinct key in file order, keys sorted."""
    code_of = {key: code for code, key in enumerate(dict.fromkeys(keys))}
    codes = np.fromiter(map(code_of.__getitem__, keys), np.intp, len(keys))
    groups = np.split(np.argsort(codes, kind="stable"),
                      np.cumsum(np.bincount(codes, minlength=len(code_of)))[:-1])
    return {key: groups[code_of[key]] for key in sorted(code_of)}


def oracle_time_column(texts, lines) -> np.ndarray:
    out = np.empty(len(texts), np.int64)
    for i, text in enumerate(texts):
        try:
            out[i] = parse_iso8601(text)
        except ModelError as exc:
            raise IngestError(f"line {lines[i]}: {exc}") from None
    return out


def oracle_float_column(texts, lines) -> np.ndarray:
    """Float64 values of a text column; a bad or non-finite value raises IngestError."""
    try:
        values = np.array(texts, dtype=np.float64)
    except ValueError:
        values = np.empty(len(texts))
        for i, text in enumerate(texts):
            try:
                values[i] = float(text)
            except ValueError:
                raise IngestError(f"line {lines[i]}: bad value {text!r}") from None
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        i = int(bad[0])
        raise IngestError(f"line {lines[i]}: non-finite value {texts[i]!r}")
    return values


def oracle_parse_measurements(document: str, catalog: DeploymentCatalog) -> ParsedMeasurements:
    """Parse a measurements CSV into per-sensor series.

    Lines are grouped per sensor and sorted by timestamp; duplicate
    (sensor, timestamp) pairs collapse to the last occurrence in file order.
    Unknown sensor ids are quarantined, malformed lines are an error.
    """
    (ids, stamps, raw_values), lines = oracle_split_table(document, MEASUREMENT_HEADER)
    groups = oracle_group_rows(ids)
    rejected = {sid: len(idx) for sid, idx in groups.items() if not catalog.has_sensor(sid)}
    if rejected:
        keep = [i for i, sid in enumerate(ids) if sid not in rejected]
        ids, stamps, raw_values, lines = (
            [column[i] for i in keep] for column in (ids, stamps, raw_values, lines))
        groups = oracle_group_rows(ids)
    times = oracle_time_column(stamps, lines)
    values = oracle_float_column(raw_values, lines)
    series = {sid: last_wins(sid, times[idx], values[idx]) for sid, idx in groups.items()}
    return ParsedMeasurements(series, rejected)


def oracle_load_weather(document: str) -> dict[str, WeatherHistory]:
    """Parse an hourly weather CSV into per-site histories."""
    (site_ids, stamps, *measured), lines = oracle_split_table(document, WEATHER_HEADER)
    times = oracle_time_column(stamps, lines)
    temp, wind, cloud = (oracle_float_column(c, lines) for c in measured)
    for bad, message in ((times % 3600 != 0, "timestamp not on the hourly grid"),
                         ((cloud < 0.0) | (cloud > 1.0), "cloud cover outside [0, 1]"),
                         (wind < 0.0, "negative wind speed")):
        if bad.any():
            raise IngestError(f"line {lines[int(np.argmax(bad))]}: {message}")

    histories: dict[str, WeatherHistory] = {}
    for site_id, idx in oracle_group_rows(site_ids).items():
        if np.any(np.diff(times[idx]) <= 0):
            raise IngestError(f"site {site_id}: timestamps not strictly increasing")
        histories[site_id] = WeatherHistory(
            times=times[idx],
            outdoor_temp=temp[idx],
            wind_speed=wind[idx],
            cloud_cover=cloud[idx],
        )
    return histories
