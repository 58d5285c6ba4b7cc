"""TraceTable: a numpy column-store for network traces.

A :class:`TraceTable` couples a :class:`~repro.data.schema.Schema` with one
numpy array per column.  It supports the handful of relational operations the
pipeline needs (select, filter, sort, group-by) without pulling in pandas.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.data.schema import FieldKind, Schema


class TraceTable:
    """Immutable-ish columnar table of trace records.

    Columns are stored as numpy arrays keyed by field name.  Mutating methods
    return new tables; the underlying arrays are shared where safe.
    """

    def __init__(self, schema: Schema, columns: Mapping[str, np.ndarray]) -> None:
        missing = [n for n in schema.names if n not in columns]
        if missing:
            raise ValueError(f"columns missing for fields: {missing}")
        extra = [n for n in columns if n not in schema.names]
        if extra:
            raise ValueError(f"columns not in schema: {extra}")
        lengths = {n: len(columns[n]) for n in schema.names}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"ragged columns: {lengths}")
        self.schema = schema
        self._columns = {n: np.asarray(columns[n]) for n in schema.names}
        self._capsule = None

    @classmethod
    def _from_trusted(
        cls, schema: Schema, columns: dict, capsule=None
    ) -> "TraceTable":
        """Wrap pre-validated columns without re-checking or re-wrapping them.

        The internal fast path for transforms (take/filter/sort/concat) and
        the arena data plane: ``columns`` must already be ndarrays keyed
        exactly by ``schema.names`` with equal lengths — the invariants the
        public constructor just established for the inputs these methods
        derive from.  ``capsule`` keeps an external buffer (e.g. a shared-
        memory segment) mapped for as long as this table is alive.
        """
        table = object.__new__(cls)
        table.schema = schema
        table._columns = columns
        table._capsule = capsule
        return table

    # ------------------------------------------------------------------ basic
    @property
    def n_records(self) -> int:
        """Number of records (rows)."""
        if not self._columns:
            return 0
        return len(next(iter(self._columns.values())))

    def __len__(self) -> int:
        return self.n_records

    def column(self, name: str) -> np.ndarray:
        """Return the column array for field ``name`` (shared, do not mutate)."""
        return self._columns[name]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name)

    def columns(self) -> dict:
        """Shallow copy of the column mapping."""
        return dict(self._columns)

    # ------------------------------------------------------------- transforms
    def with_column(self, name: str, values: np.ndarray, spec=None) -> "TraceTable":
        """Return a new table with column ``name`` added or replaced.

        When adding a new column, ``spec`` (a :class:`FieldSpec`) is required
        so the schema stays authoritative.
        """
        values = np.asarray(values)
        if len(values) != self.n_records:
            raise ValueError(
                f"column length {len(values)} != table length {self.n_records}"
            )
        if name in self.schema:
            cols = dict(self._columns)
            cols[name] = values
            return TraceTable._from_trusted(self.schema, cols)
        if spec is None:
            raise ValueError(f"new column {name!r} requires a FieldSpec")
        if spec.name != name:
            raise ValueError(f"spec name {spec.name!r} != column name {name!r}")
        schema = self.schema.with_field(spec)
        cols = dict(self._columns)
        cols[name] = values
        return TraceTable._from_trusted(schema, {n: cols[n] for n in schema.names})

    def without_column(self, name: str) -> "TraceTable":
        """Return a new table with column ``name`` dropped."""
        schema = self.schema.without_field(name)
        cols = {n: c for n, c in self._columns.items() if n != name}
        return TraceTable._from_trusted(schema, cols)

    def take(self, indices: np.ndarray) -> "TraceTable":
        """Row subset/permutation by integer indices (columns are copies)."""
        indices = np.asarray(indices)
        cols = {n: c[indices] for n, c in self._columns.items()}
        return TraceTable._from_trusted(self.schema, cols)

    def filter(self, mask: np.ndarray) -> "TraceTable":
        """Row subset by boolean mask."""
        mask = np.asarray(mask, dtype=bool)
        if len(mask) != self.n_records:
            raise ValueError("mask length mismatch")
        return self.take(np.nonzero(mask)[0])

    def head(self, n: int) -> "TraceTable":
        """First ``n`` rows."""
        return self.take(np.arange(min(n, self.n_records)))

    def sort_by(self, *names: str) -> "TraceTable":
        """Stable sort by one or more columns (last name is primary key)."""
        if not names:
            raise ValueError("sort_by requires at least one column")
        order = np.lexsort(tuple(self._columns[n] for n in names))
        return self.take(order)

    def shuffle(self, rng: np.random.Generator) -> "TraceTable":
        """Random row permutation."""
        return self.take(rng.permutation(self.n_records))

    def concat(self, other: "TraceTable") -> "TraceTable":
        """Vertically stack two tables with identical schemas."""
        return TraceTable.concat_all([self, other])

    @staticmethod
    def concat_all(tables: "list[TraceTable]") -> "TraceTable":
        """Vertically stack many tables by view-stitching into one arena.

        Unlike chaining :meth:`concat`, which re-copies every earlier row for
        each appended table, this copies each column exactly once — straight
        into a single contiguous arena allocation, so the result's columns
        are views over one buffer (the merge primitive behind sharded
        decoding and chunk re-slicing).  Object columns, and columns whose
        dtype differs across inputs, fall back to a plain ``concatenate``.
        """
        from repro.data.arena import _align, copy_stats, track_arena

        if not tables:
            raise ValueError("concat_all requires at least one table")
        first = tables[0]
        if len(tables) == 1:
            return first
        for other in tables[1:]:
            if other.schema.names != first.schema.names:
                raise ValueError("schema mismatch in concat")
        n_total = sum(t.n_records for t in tables)
        # Plan one arena slot per stitchable column (shared dtype, non-object).
        plan = {}
        offset = 0
        for name in first.schema.names:
            dtype = first._columns[name].dtype
            if dtype == object or any(
                t._columns[name].dtype != dtype for t in tables[1:]
            ):
                continue
            offset = _align(offset)
            plan[name] = (dtype, offset)
            offset += dtype.itemsize * n_total
        buffer = np.empty(offset, dtype=np.uint8) if plan else None
        if buffer is not None:
            track_arena(buffer, buffer.nbytes)
        cols = {}
        for name in first.schema.names:
            parts = [t._columns[name] for t in tables]
            if name in plan:
                dtype, start = plan[name]
                out = np.ndarray((n_total,), dtype=dtype, buffer=buffer, offset=start)
                np.concatenate(parts, out=out)
                copy_stats.count_stitch(out.nbytes)
                cols[name] = out
            else:
                cols[name] = np.concatenate(parts)
        return TraceTable._from_trusted(first.schema, cols)

    # --------------------------------------------------------------- grouping
    def group_ids(self, names: Iterable[str]) -> np.ndarray:
        """Assign a dense integer group id to each row, keyed by ``names``.

        Rows sharing the same value tuple over ``names`` get the same id
        (e.g. the records of one flow).  Ids number the distinct tuples in
        lexicographic order (first name most significant) — timestamp
        reconstruction accumulates over groups in id order, so this
        numbering is part of the release contract.
        """
        names = list(names)
        if not names:
            raise ValueError("group_ids requires at least one column")
        return _dense_rank(fold_key([key_codes(self._columns[name]) for name in names]))

    def content_digest(self) -> str:
        """SHA-256 over column names, dtypes, lengths, and values, in schema order.

        A stable content fingerprint: equal digests mean bit-identical tables
        (same columns, dtypes, row counts, and values; object columns hash
        length-prefixed string renderings so values cannot alias separators).
        Used by the engine's reproducibility tests and benchmarks to compare
        synthesis outputs across backends.
        """
        import hashlib

        h = hashlib.sha256()
        for name in self.schema.names:
            col = self._columns[name]
            h.update(f"{name}|{col.dtype.str}|{len(col)}|".encode())
            if col.dtype == object or col.dtype.kind in "US":
                for value in col:
                    rendered = str(value).encode()
                    h.update(f"{len(rendered)}:".encode())
                    h.update(rendered)
            else:
                h.update(np.ascontiguousarray(col).tobytes())
        return h.hexdigest()

    # ------------------------------------------------------------- conversion
    def to_arena(self):
        """Flatten into a :class:`~repro.data.arena.TableArena` (one buffer).

        The arena's ``(slots, buffer, extras)`` triple is the table's
        explicit buffer layout — what the process backend ships as a
        single shm segment and the Arrow sink wraps without copying.
        """
        from repro.data.arena import TableArena

        return TableArena.from_table(self)

    @classmethod
    def from_arena(cls, arena) -> "TraceTable":
        """Reconstruct a table from an arena; raw columns are views."""
        return arena.to_table()

    def to_records(self) -> list[dict]:
        """Materialize as a list of per-row dicts (small tables only)."""
        names = self.schema.names
        cols = [self._columns[n] for n in names]
        return [
            {n: col[i].item() if hasattr(col[i], "item") else col[i] for n, col in zip(names, cols)}
            for i in range(self.n_records)
        ]

    def feature_matrix(self, exclude: Iterable[str] = ()) -> tuple:
        """Return ``(X, names)`` — a float matrix of all non-excluded columns.

        Categorical string columns are integer-coded by their schema category
        order.  Used to feed the ML substrate.
        """
        exclude = set(exclude)
        names = [n for n in self.schema.names if n not in exclude]
        parts = []
        for name in names:
            spec = self.schema[name]
            col = self._columns[name]
            if spec.kind is FieldKind.CATEGORICAL and not np.issubdtype(
                np.asarray(col).dtype, np.number
            ):
                lookup = {c: i for i, c in enumerate(spec.categories)}
                col = np.array([lookup[v] for v in col], dtype=np.float64)
            parts.append(np.asarray(col, dtype=np.float64))
        if not parts:
            return np.empty((self.n_records, 0)), []
        return np.stack(parts, axis=1), names

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceTable(kind={self.schema.kind!r}, n={self.n_records}, fields={list(self.schema.names)})"


def key_codes(column: np.ndarray) -> tuple:
    """``(codes, size)``: injective, order-preserving int64 codes of ``column``.

    An integer column whose value span is no wider than its length is
    shifted by its minimum (in int64, with no sort); any other column is
    dense-ranked.
    """
    if column.dtype.kind in "iu" and len(column):
        low, high = int(column.min()), int(column.max())
        if high - low <= len(column):
            shifted = np.subtract(column, column.dtype.type(low), dtype=np.int64, casting="unsafe")
            return shifted, high - low + 1
    rank = _dense_rank(column)
    return rank, int(rank.max(initial=-1)) + 1


def fold_key(parts) -> np.ndarray:
    """One int64 key per row from per-column ``(codes, size)`` parts.

    Mixed radix, first part most significant: equal keys are equal codes,
    and key order is their lexicographic order.  The key is densified early
    only when the next fold could overflow.
    """
    parts = iter(parts)
    codes, bound = next(parts)
    key = np.asarray(codes, dtype=np.int64)
    for codes, size in parts:
        if bound * size >= 2**63:
            key = _dense_rank(key)
            bound = int(key.max()) + 1
        key = key * size + codes
        bound *= size
    return key


def _dense_rank(column: np.ndarray) -> np.ndarray:
    """Rank of each value among the column's sorted distinct values.

    The same codes as ``np.unique(column, return_inverse=True)``; object
    columns are factorised with a dict first, so only their distinct keys
    are sorted with Python comparisons instead of every row.
    """
    if column.dtype != object:
        return np.unique(column, return_inverse=True)[1].astype(np.int64, copy=False)
    index: dict = {}
    codes = np.fromiter(
        (index.setdefault(value, len(index)) for value in column),
        dtype=np.int64,
        count=len(column),
    )
    keys = list(index)
    rank_of_code = np.empty(len(keys), dtype=np.int64)
    rank_of_code[sorted(range(len(keys)), key=keys.__getitem__)] = np.arange(len(keys))
    return rank_of_code[codes]
