"""Bounded-memory sink writers for streamed synthetic traces.

A :class:`TraceSink` consumes :class:`~repro.data.table.TraceTable` chunks as
they come off the streaming engine (``NetDPSyn.sample_to``) and appends them
to a file, so the full trace never has to exist in memory.  Formats:

- ``csv`` — the :mod:`repro.data.io` CSV dialect (header row, ``repr`` floats
  so values round-trip bit-exactly through :func:`~repro.data.io.read_csv`);
- ``jsonl`` — one JSON object per record (round-trips through
  :func:`read_jsonl`; JSON serializes floats via ``repr`` so they round-trip
  too);
- ``parquet`` — columnar chunks through :mod:`pyarrow` (one row group per
  chunk).  pyarrow is optional; constructing the sink without it raises a
  clear error;
- ``null`` — counts records and writes nothing (benchmark harnesses use it
  to probe the synthesis pipeline's memory behavior without disk noise).

Readers reconstruct dtypes from the schema exactly like the CSV reader, so a
round-tripped trace is digest-identical to the in-memory one.
"""

from __future__ import annotations

import abc
import csv
import json
from pathlib import Path

import numpy as np

from repro.data.io import _parse_column
from repro.data.schema import Schema
from repro.data.table import TraceTable

#: Supported sink format names.
SINK_FORMATS = ("csv", "jsonl", "parquet", "null")

_SUFFIX_FORMATS = {
    ".csv": "csv",
    ".jsonl": "jsonl",
    ".ndjson": "jsonl",
    ".parquet": "parquet",
    ".pq": "parquet",
}


class TraceSink(abc.ABC):
    """Append-only writer consuming trace chunks with bounded memory."""

    format: str = "abstract"

    def __init__(self, path, schema: Schema) -> None:
        self.path = Path(path)
        self.schema = schema
        self.rows_written = 0
        self.chunks_written = 0
        self._closed = False

    def write(self, table: TraceTable) -> None:
        """Append one chunk; the chunk's schema must match the sink's."""
        if self._closed:
            raise RuntimeError(f"sink {self.path} is closed")
        if table.schema.names != self.schema.names:
            raise ValueError(
                f"chunk columns {list(table.schema.names)} do not match sink "
                f"schema {list(self.schema.names)}"
            )
        self._write(table)
        self.rows_written += table.n_records
        self.chunks_written += 1

    @abc.abstractmethod
    def _write(self, table: TraceTable) -> None: ...

    def close(self) -> None:
        if not self._closed:
            self._close()
            self._closed = True

    def _close(self) -> None:
        pass

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _render(value) -> str:
    """Render one cell for CSV output (``repr`` floats round-trip bit-exactly)."""
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    if isinstance(value, (np.integer, int)):
        return str(int(value))
    return str(value)


def _csv_quote(text: str) -> str:
    """``text`` as a field of a multi-field ``csv`` row (``QUOTE_MINIMAL``)."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _render_column(col: np.ndarray, floats, other) -> list:
    """Every cell of ``col`` as output text, rendered a column at a time.

    Float and integer columns go through ``tolist()`` in bulk (``floats``
    renders the list of floats); any other dtype renders each distinct
    value once with ``other`` and looks the rest up.
    """
    if col.dtype.kind == "f":
        return floats(col.tolist())
    if col.dtype.kind in "iu":
        return list(map(int.__repr__, col.tolist()))
    rendered: dict = {}
    out = []
    for value in col:
        key = (type(value), value)
        text = rendered.get(key)
        if text is None:
            text = rendered[key] = other(value)
        out.append(text)
    return out


class CsvSink(TraceSink):
    """Stream chunks into one CSV file (header written once, on open)."""

    format = "csv"

    def __init__(self, path, schema: Schema) -> None:
        super().__init__(path, schema)
        self._handle = self.path.open("w", newline="")
        csv.writer(self._handle).writerow(schema.names)

    def _write(self, table: TraceTable) -> None:
        if table.n_records == 0:
            return
        cols = [
            _render_column(
                table.column(n),
                lambda values: list(map(float.__repr__, values)),
                lambda value: _csv_quote(_render(value)),
            )
            for n in self.schema.names
        ]
        if len(cols) == 1:  # csv quotes a row's lone empty field
            cols[0] = ['""' if text == "" else text for text in cols[0]]
        self._handle.write("\r\n".join(map(",".join, zip(*cols))) + "\r\n")

    def _close(self) -> None:
        self._handle.close()


def _json_cell(value):
    """One cell as a JSON-serializable scalar (numpy -> python)."""
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    return str(value)


def _json_floats(values: list) -> list:
    """``json`` spellings of floats, ``NaN``/``Infinity`` included."""
    return json.dumps(values)[1:-1].split(", ") if values else []


class JsonlSink(TraceSink):
    """Stream chunks as one JSON object per record."""

    format = "jsonl"

    def __init__(self, path, schema: Schema) -> None:
        super().__init__(path, schema)
        self._handle = self.path.open("w")

    def _write(self, table: TraceTable) -> None:
        if table.n_records == 0:
            return
        cols = []
        for j, name in enumerate(self.schema.names):
            key = ("{" if j == 0 else ", ") + json.dumps(name) + ": "
            values = _render_column(
                table.column(name), _json_floats, lambda v: json.dumps(_json_cell(v))
            )
            cols.append(list(map(key.__add__, values)))
        self._handle.write("}\n".join(map("".join, zip(*cols))) + "}\n")

    def _close(self) -> None:
        self._handle.close()


class NullSink(TraceSink):
    """Count records, write nothing (benchmarking / dry runs)."""

    format = "null"

    def _write(self, table: TraceTable) -> None:
        pass


class ParquetSink(TraceSink):
    """Stream chunks as parquet row groups via pyarrow (optional dependency)."""

    format = "parquet"

    def __init__(self, path, schema: Schema) -> None:
        super().__init__(path, schema)
        try:
            import pyarrow
            import pyarrow.parquet
        except ImportError as exc:  # pragma: no cover - depends on environment
            raise RuntimeError(
                "the parquet sink requires pyarrow; install it or use "
                "format='csv' / 'jsonl'"
            ) from exc
        self._pa = pyarrow
        self._pq = pyarrow.parquet
        self._writer = None

    def _wrap_column(self, col: np.ndarray):
        """An Arrow array over ``col``'s buffer — no copy for numeric dtypes.

        Streamed chunks arrive as views over one contiguous arena
        (:meth:`TraceTable.concat_all` stitching), so wrapping the buffer
        in place (``Array.from_buffers`` over a ``py_buffer``) hands the
        parquet encoder the very bytes the decode shards produced.  Dtypes
        Arrow cannot represent primitively (strings, bools-as-bits
        mismatches) fall back to the copying constructor.
        """
        pa = self._pa
        if col.dtype == object:
            return pa.array([str(v) for v in col])
        try:
            arrow_type = pa.from_numpy_dtype(col.dtype)
            if not pa.types.is_primitive(arrow_type) or col.dtype == np.bool_:
                raise pa.ArrowNotImplementedError("non-primitive")
            col = np.ascontiguousarray(col)
            return pa.Array.from_buffers(
                arrow_type, len(col), [None, pa.py_buffer(col)]
            )
        except (pa.ArrowNotImplementedError, pa.ArrowTypeError):
            return pa.array(col)

    def _arrow_chunk(self, table: TraceTable):
        return self._pa.table(
            {name: self._wrap_column(table.column(name)) for name in self.schema.names}
        )

    def _write(self, table: TraceTable) -> None:
        batch = self._arrow_chunk(table)
        if self._writer is None:
            self._writer = self._pq.ParquetWriter(self.path, batch.schema)
        self._writer.write_table(batch)

    def _close(self) -> None:
        if self._writer is not None:
            self._writer.close()


_SINK_CLASSES = {
    CsvSink.format: CsvSink,
    JsonlSink.format: JsonlSink,
    ParquetSink.format: ParquetSink,
    NullSink.format: NullSink,
}


def open_sink(path, schema: Schema, format: str | None = None) -> TraceSink:
    """Open a sink for ``path``, inferring the format from the suffix.

    ``format`` overrides inference (and is required for suffixes the table
    above does not know, e.g. the ``null`` sink).
    """
    if format is None:
        format = _SUFFIX_FORMATS.get(Path(path).suffix.lower())
        if format is None:
            raise ValueError(
                f"cannot infer sink format from {str(path)!r}; pass "
                f"format= (one of {SINK_FORMATS})"
            )
    if format not in _SINK_CLASSES:
        raise ValueError(f"format must be one of {SINK_FORMATS}, got {format!r}")
    return _SINK_CLASSES[format](path, schema)


def read_jsonl(path, schema: Schema) -> TraceTable:
    """Read a JSONL trace written by :class:`JsonlSink` back into a table.

    Column dtypes are reconstructed from the schema exactly like
    :func:`repro.data.io.read_csv`, so round-tripped tables are
    digest-identical.
    """
    path = Path(path)
    rows = []
    with path.open() as handle:
        for line in handle:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    columns = {}
    for name in schema.names:
        raw = [row[name] for row in rows]
        columns[name] = _parse_column(raw, schema[name])
    return TraceTable(schema, columns)


def read_parquet(path, schema: Schema) -> TraceTable:
    """Read a parquet trace written by :class:`ParquetSink` (needs pyarrow)."""
    try:
        import pyarrow.parquet as pq
    except ImportError as exc:  # pragma: no cover - depends on environment
        raise RuntimeError("reading parquet requires pyarrow") from exc
    table = pq.read_table(str(path))
    columns = {}
    for name in schema.names:
        raw = table.column(name).to_pylist()
        columns[name] = _parse_column(raw, schema[name])
    return TraceTable(schema, columns)
