"""The `csv.reader` table reader of `ingest`, kept as a test oracle.

`ingest._read_table` split its documents with `csv.reader` before it split
them with `str.split`. On documents without a quote the two must agree: the
same columns, the same line numbers, and the same line in an error. Apart
from its name, the function is the reader as it was.
"""

from __future__ import annotations

import csv
import io

from schoolsense.ingest import IngestError


def oracle_read_table(document: str, header: list[str], error: type[IngestError]):
    """The columns (tuples of str) of a CSV document below its header, and their line numbers.

    Blank lines are skipped; a wrong header or field count raises `error` with its line.
    """
    rows = list(csv.reader(io.StringIO(document)))
    if not rows or rows[0] != header:
        raise error(f"line 1: expected header {','.join(header)!r}, got {rows[:1]!r}")
    lines = [n for n, row in enumerate(rows[1:], start=2) if row]
    rows = [row for row in rows[1:] if row]
    if set(map(len, rows)) - {len(header)}:
        line, row = next((n, r) for n, r in zip(lines, rows) if len(r) != len(header))
        raise error(f"line {line}: expected {len(header)} fields, got {len(row)}")
    return list(zip(*rows)) or [()] * len(header), lines
