"""Contiguous columnar arenas: one buffer behind every TraceTable column.

A :class:`TableArena` flattens a :class:`~repro.data.table.TraceTable` into a
single contiguous byte buffer plus a tuple of :class:`ArenaSlot` descriptors
(name, kind, dtype, offset, count).  The slot tuple is the *wire form* of the
table's buffer layout: ship the descriptors plus the buffer (or the path of
a ``/dev/shm`` file holding it) and the receiver reconstructs every
column as a **view** — no per-column pickling, no per-column copies.  The
same layout backs :meth:`TraceTable.concat_all`'s single-allocation stitch,
the process backend's one-file-per-table transport
(:mod:`repro.engine.shm`), and the Arrow sink's buffer wrapping.

Slot kinds:

- ``raw`` — any non-object dtype (ints, floats, bools, fixed-width strings):
  the column's bytes live in the arena verbatim and reconstruct as a
  zero-copy view;
- ``dict`` — object columns (decoded categorical strings): ``int32`` codes
  live in the arena and the (small, deduplicated) value dictionary rides in
  :attr:`TableArena.extras`, like the schema does.  Per-row payload is four
  bytes regardless of string length;
- ``pickle`` — the fallback for object columns that cannot be dictionary-
  encoded (unorderable mixed types): the column itself rides in ``extras``
  and its pickled size is charged to the :data:`copy_stats` ledger, so the
  ``bytes_copied_per_record`` benchmark probe surfaces any regression to
  pickled column bytes.

:data:`copy_stats` is the process-wide ledger of data-plane byte movement:
pickled column bytes, stitch (concatenation) bytes, and the arena allocation
high-water mark (``arena_bytes``) that benchmarks record next to peak RSS so
memory gates can distinguish copies from working set.
"""

from __future__ import annotations

import os
import pickle
import threading
import weakref
from dataclasses import dataclass

import numpy as np

#: Slot alignment in bytes: every column starts on a cache-line boundary so
#: views over the arena are as SIMD-friendly as freshly allocated arrays.
ARENA_ALIGN = 64

SLOT_RAW = "raw"
SLOT_DICT = "dict"
SLOT_PICKLE = "pickle"

#: Dtype of dictionary-encoded categorical codes.
_DICT_DTYPE = np.dtype("<i4")


class CopyStats:
    """Thread-safe ledger of data-plane byte movement in this process.

    ``pickled_array_bytes`` counts column payloads that traveled through
    pickle (the thing the zero-copy plane exists to eliminate);
    ``stitch_bytes`` counts the one copy per column that concatenation into a
    fresh arena still pays; ``arena_bytes_peak`` is the high-water mark of
    live arena allocations (decremented by finalizers as arenas die).
    """

    __slots__ = (
        "pickled_array_bytes",
        "stitch_bytes",
        "arena_bytes_in_use",
        "arena_bytes_peak",
        "_lock",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.pickled_array_bytes = 0
        self.stitch_bytes = 0
        self.arena_bytes_in_use = 0
        self.arena_bytes_peak = 0

    def reset(self) -> None:
        """Zero the movement counters; the peak restarts from live arenas."""
        with self._lock:
            self.pickled_array_bytes = 0
            self.stitch_bytes = 0
            self.arena_bytes_peak = self.arena_bytes_in_use

    def count_pickled(self, nbytes: int) -> None:
        with self._lock:
            self.pickled_array_bytes += int(nbytes)

    def count_stitch(self, nbytes: int) -> None:
        with self._lock:
            self.stitch_bytes += int(nbytes)

    def on_alloc(self, nbytes: int) -> None:
        with self._lock:
            self.arena_bytes_in_use += int(nbytes)
            if self.arena_bytes_in_use > self.arena_bytes_peak:
                self.arena_bytes_peak = self.arena_bytes_in_use

    def on_free(self, nbytes: int) -> None:
        with self._lock:
            self.arena_bytes_in_use -= int(nbytes)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "pickled_array_bytes": self.pickled_array_bytes,
                "stitch_bytes": self.stitch_bytes,
                "arena_bytes_in_use": self.arena_bytes_in_use,
                "arena_bytes_peak": self.arena_bytes_peak,
            }


#: The process-wide ledger (benchmarks reset/snapshot it around probes).
copy_stats = CopyStats()

# A cluster forks a replacement worker from its dispatcher thread while other
# threads may be charging the ledger.  A fork that caught ``_lock`` held would
# leave the child's copy locked for good, so every fork waits for the lock
# and holds it across.
os.register_at_fork(
    before=copy_stats._lock.acquire,
    after_in_parent=copy_stats._lock.release,
    after_in_child=copy_stats._lock.release,
)


def track_arena(owner, nbytes: int) -> None:
    """Charge ``nbytes`` of arena to the ledger until ``owner`` is collected."""
    if nbytes <= 0:
        return
    copy_stats.on_alloc(nbytes)
    weakref.finalize(owner, copy_stats.on_free, nbytes)


@dataclass(frozen=True)
class ArenaSlot:
    """Wire-form description of one column inside an arena buffer."""

    name: str
    kind: str
    dtype: str
    offset: int
    count: int


def _align(offset: int) -> int:
    return (offset + ARENA_ALIGN - 1) & ~(ARENA_ALIGN - 1)


def _dict_encode(col: np.ndarray):
    """``(values, int32 codes)`` of an object column, or ``None``.

    Dictionary order is the sorted unique-value order (deterministic), so
    identical columns always produce identical slots.  Columns whose values
    do not admit a total order (mixed types) fall back to the pickle slot.
    """
    try:
        values, codes = np.unique(col, return_inverse=True)
    except TypeError:
        return None
    if len(values) >= np.iinfo(_DICT_DTYPE).max:  # pragma: no cover - 2^31 uniques
        return None
    return values, codes.astype(_DICT_DTYPE)


def pickled_nbytes(value) -> int:
    """Size of ``value``'s pickle stream (the copy-probe unit of account)."""
    return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


def plan_layout(table) -> tuple:
    """Plan ``(slots, nbytes, arrays, extras)`` for one table.

    ``arrays`` holds, slot-aligned with ``slots``, the array to write into
    each arena slot (``None`` for pickle slots); ``extras`` the out-of-band
    payloads (dictionaries for ``dict`` slots, whole columns for ``pickle``
    slots).  Splitting planning from writing lets the shm exporter size a
    file first and then build the arena directly inside it — the column
    bytes are copied exactly once, straight to their final home.
    """
    slots, arrays, extras = [], [], {}
    offset = 0
    for name in table.schema.names:
        col = table.column(name)
        if col.dtype == object:
            encoded = _dict_encode(col)
            if encoded is None:
                slots.append(ArenaSlot(name, SLOT_PICKLE, "|O", 0, len(col)))
                arrays.append(None)
                extras[name] = col
                continue
            values, codes = encoded
            offset = _align(offset)
            slots.append(ArenaSlot(name, SLOT_DICT, _DICT_DTYPE.str, offset, len(col)))
            arrays.append(codes)
            extras[name] = values
            offset += codes.nbytes
        else:
            col = np.ascontiguousarray(col)
            offset = _align(offset)
            slots.append(ArenaSlot(name, SLOT_RAW, col.dtype.str, offset, len(col)))
            arrays.append(col)
            offset += col.nbytes
    return tuple(slots), offset, arrays, extras


def write_layout(slots, arrays, buffer) -> None:
    """Copy each planned column into its slot of a writable ``buffer``."""
    for slot, arr in zip(slots, arrays):
        if arr is None:
            continue
        view = np.ndarray(
            (slot.count,), dtype=np.dtype(slot.dtype), buffer=buffer, offset=slot.offset
        )
        view[...] = arr


class TableArena:
    """A table flattened into one contiguous buffer plus slot descriptors.

    ``buffer`` is anything exposing the buffer protocol over at least
    ``nbytes`` bytes — a local ``uint8`` ndarray, or the ``mmap`` of a
    result file.  ``owner`` (optional) is the object that keeps an external
    buffer mapped; tables built by :meth:`to_table` hold it so the mapping
    outlives every column view.
    """

    __slots__ = ("schema", "slots", "buffer", "extras", "nbytes", "owner", "__weakref__")

    def __init__(self, schema, slots, buffer, extras, nbytes, owner=None) -> None:
        self.schema = schema
        self.slots = tuple(slots)
        self.buffer = buffer
        self.extras = extras
        self.nbytes = int(nbytes)
        self.owner = owner

    @classmethod
    def from_table(cls, table) -> "TableArena":
        """Flatten ``table`` into a freshly allocated local arena."""
        slots, nbytes, arrays, extras = plan_layout(table)
        buffer = np.zeros(nbytes, dtype=np.uint8)  # zeroed padding: stable bytes
        track_arena(buffer, nbytes)
        write_layout(slots, arrays, buffer)
        return cls(table.schema, slots, buffer, extras, nbytes)

    def to_table(self):
        """Reconstruct the table; raw columns are zero-copy arena views."""
        from repro.data.table import TraceTable

        columns = {}
        for slot in self.slots:
            if slot.kind == SLOT_PICKLE:
                columns[slot.name] = np.asarray(self.extras[slot.name], dtype=object)
                continue
            view = np.ndarray(
                (slot.count,),
                dtype=np.dtype(slot.dtype),
                buffer=self.buffer,
                offset=slot.offset,
            )
            if slot.kind == SLOT_DICT:
                values = np.asarray(self.extras[slot.name], dtype=object)
                columns[slot.name] = values[view]
            else:
                columns[slot.name] = view
        return TraceTable._from_trusted(self.schema, columns, capsule=self.owner)

    def pickled_column_bytes(self) -> int:
        """Bytes of column payload that must travel through pickle."""
        return sum(
            pickled_nbytes(self.extras[slot.name])
            for slot in self.slots
            if slot.kind == SLOT_PICKLE
        )
