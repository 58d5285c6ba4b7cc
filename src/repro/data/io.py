"""CSV round-trip for :class:`~repro.data.table.TraceTable`.

Traces are exchanged as plain CSV with a header row.  Column dtypes are
reconstructed from the schema: categorical fields stay strings, everything
else is parsed as float/int.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from repro.data.schema import FieldKind, Schema
from repro.data.table import TraceTable


def write_csv(table: TraceTable, path: str | Path) -> None:
    """Write ``table`` to ``path`` as CSV with a header row (one :class:`CsvSink` chunk)."""
    from repro.data.sinks import CsvSink  # sinks imports this module's parser

    with CsvSink(path, table.schema) as sink:
        sink.write(table)


def read_csv(path: str | Path, schema: Schema) -> TraceTable:
    """Read a CSV written by :func:`write_csv` back into a table."""
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = list(reader)
    if tuple(header) != schema.names:
        raise ValueError(f"CSV header {header} does not match schema {list(schema.names)}")
    columns = {}
    for j, name in enumerate(schema.names):
        raw = [row[j] for row in rows]
        columns[name] = _parse_column(raw, schema[name])
    return TraceTable(schema, columns)


def _parse_column(raw: list, spec) -> np.ndarray:
    """Parse a list of CSV strings into a typed column."""
    if spec.kind is FieldKind.CATEGORICAL:
        sample = spec.categories[0] if spec.categories else ""
        if isinstance(sample, str):
            return np.array(raw, dtype=object)
        return np.array([int(v) for v in raw], dtype=np.int64)
    if spec.kind in (FieldKind.IP, FieldKind.PORT):
        return np.array([int(float(v)) for v in raw], dtype=np.int64)
    if spec.kind is FieldKind.TIMESTAMP:
        return np.array([float(v) for v in raw], dtype=np.float64)
    # NUMERIC
    if spec.integral:
        return np.array([int(float(v)) for v in raw], dtype=np.int64)
    return np.array([float(v) for v in raw], dtype=np.float64)
