"""File transport for ndarray-bearing task results.

A process pool that pickles every task result pays one pickle + pipe round
trip per result; for large results (a shard's decoded
:class:`~repro.data.table.TraceTable`, the fit pipeline's count arrays) that
serialization dominates the IPC cost.  The cluster's workers instead park
large results in plain files under ``/dev/shm`` (tmpfs: the pages are
memory) and ship only path-sized descriptors through the pipe:

- a bare numeric ndarray travels as a :class:`ShmArrayRef` (one file, one
  worker-side copy; the parent reads it back with one copy and unlinks it);
- a whole :class:`TraceTable` travels as a :class:`ShmTableArenaRef` — the
  worker lays the table out as a single contiguous
  :mod:`~repro.data.arena` arena built **directly inside** the mapped file
  (columns are copied exactly once, straight to their final home) and the
  descriptor carries only ``(path, slots, dictionaries)``.  The parent maps
  the file read/write, unlinks it at once and reconstructs every raw column
  as a zero-copy view: **zero pickled column bytes** cross the pipe, and
  nothing is copied on import at all.

Ownership protocol: a worker creates each file (``O_CREAT|O_EXCL``) and
never unlinks one it handed over; the parent unlinks it on import.  An
unlinked file's mapping stays valid and nobody else can open it, so writes
through the column views stay private, and the ``mmap`` object is the
arena's owner: the pages are freed when the last view of them is collected.

The cluster names the files: each worker writes under the prefix
``nds{coordinator pid:x}-{cluster token}-{worker id}-`` it was given,
followed by its own sequence number.  A file whose descriptor never reaches
the parent — its worker was killed between export and hand-over, or the
descriptor did not unpickle — is still under that prefix: the cluster
unlinks a lost worker's prefix with :func:`unlink_prefix` once the process
is killed and joined, and its own prefix on ``close()``.  Worker ids are
never reused inside a cluster, so a prefix never names a live worker's
files after its loss.

Only values of at least :data:`SHM_MIN_BYTES` travel as files; small
arrays and tables, plus every other value, pickle into the result message as usual
(the parent charges those bytes to the :data:`~repro.data.arena.copy_stats`
ledger, which is how the ``bytes_copied_per_record`` benchmark probe keeps
the zero-pickled-column-bytes invariant honest), so results round-trip
unchanged for arbitrary task functions.
"""

from __future__ import annotations

import contextlib
import glob
import itertools
import mmap
import os
from dataclasses import dataclass, replace

import numpy as np

from repro.data.arena import (
    SLOT_PICKLE,
    TableArena,
    copy_stats,
    pickled_nbytes,
    plan_layout,
    track_arena,
    write_layout,
)
from repro.data.table import TraceTable

#: Values smaller than this (bytes) are pickled instead of exported: below a
#: few pipe buffers the file setup costs more than the copy it saves.
SHM_MIN_BYTES = 1 << 16

#: Per-process sequence appended to the caller's prefix.
_SEQ = itertools.count()


@dataclass
class ShmArrayRef:
    """A pickle-sized handle to one ndarray parked in a file."""

    path: str
    dtype: str
    shape: tuple


@dataclass
class ShmTableArenaRef:
    """A :class:`TraceTable` parked in one file as an arena.

    ``slots`` is the arena's wire-form layout (offsets + dtypes into the
    file); ``extras`` carries the out-of-band payloads (dictionary values
    for dict slots, whole columns for pickle slots).  ``pickled_bytes`` is
    the worker-computed pickle size of the pickle-slot payloads — the only
    column bytes that did not travel zero-copy — which the importing parent
    charges to the copy ledger.
    """

    path: str
    schema: object
    slots: tuple
    extras: dict
    nbytes: int
    pickled_bytes: int = 0


def _create(prefix: str, nbytes: int) -> tuple[str, mmap.mmap]:
    """Create the next ``prefix`` file, ``nbytes`` long; return it mapped."""
    path = f"{prefix}{next(_SEQ):x}"
    fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o600)
    try:
        os.ftruncate(fd, nbytes)
        return path, mmap.mmap(fd, nbytes)
    finally:
        os.close(fd)


def unlink_prefix(prefix: str) -> None:
    """Unlink every result file whose path starts with ``prefix``."""
    for path in glob.glob(glob.escape(prefix) + "*"):
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)


def export_array(arr: np.ndarray, prefix: str) -> ShmArrayRef:
    """Copy ``arr`` into a fresh file under ``prefix`` and return its handle."""
    arr = np.ascontiguousarray(arr)
    path, mapped = _create(prefix, arr.nbytes)
    with mapped:
        np.ndarray(arr.shape, dtype=arr.dtype, buffer=mapped)[...] = arr
    return ShmArrayRef(path=path, dtype=arr.dtype.str, shape=arr.shape)


def import_array(ref: ShmArrayRef) -> np.ndarray:
    """Read the array behind ``ref`` and unlink its file."""
    out = np.fromfile(ref.path, dtype=np.dtype(ref.dtype)).reshape(ref.shape)
    os.unlink(ref.path)
    return out


def export_table(table: TraceTable, prefix: str):
    """Park a table in one file under ``prefix`` as an arena; return its ref.

    The arena is laid out **directly inside the mapped file** — plan first,
    then write each column straight to its final offset — so export costs
    exactly one copy per column and the descriptor that crosses the pipe
    carries no array bytes at all (dictionary values and un-encodable object
    columns ride in ``extras``; the latter are measured into
    ``pickled_bytes``).

    Tables whose arena would be smaller than :data:`SHM_MIN_BYTES` are
    returned unchanged and pickle through the pipe whole.
    """
    slots, nbytes, arrays, extras = plan_layout(table)
    if nbytes < SHM_MIN_BYTES:
        return table
    path, mapped = _create(prefix, nbytes)
    with mapped:
        write_layout(slots, arrays, mapped)
    return ShmTableArenaRef(
        path=path,
        schema=table.schema,
        slots=slots,
        extras=extras,
        nbytes=nbytes,
        pickled_bytes=sum(
            pickled_nbytes(extras[slot.name]) for slot in slots if slot.kind == SLOT_PICKLE
        ),
    )


def import_table(ref: ShmTableArenaRef) -> TraceTable:
    """Map the arena behind ``ref`` and unlink its file.

    Every raw column is a zero-copy view of the mapping, which lives as long
    as the last table or column that views it.
    """
    fd = os.open(ref.path, os.O_RDWR)
    try:
        mapped = mmap.mmap(fd, ref.nbytes)
    finally:
        os.close(fd)
        os.unlink(ref.path)
    track_arena(mapped, ref.nbytes)
    if ref.pickled_bytes:
        copy_stats.count_pickled(ref.pickled_bytes)
    arena = TableArena(ref.schema, ref.slots, mapped, ref.extras, ref.nbytes, owner=mapped)
    return arena.to_table()


def _exportable(value) -> bool:
    return (
        isinstance(value, np.ndarray)
        and value.dtype != object
        and value.nbytes >= SHM_MIN_BYTES
    )


def export_result(obj, prefix: str):
    """Recursively swap large payloads in a task result for file handles.

    Understands the engine's result shapes — bare arrays, whole
    :class:`TraceTable` results (which travel as single-file arenas) and
    the tables inside ``ShardResult`` — plus plain dict/list/tuple
    containers.  Everything else passes through untouched (and is pickled by
    the transport as usual).  Every file is named ``prefix`` plus a sequence
    number.
    """
    from repro.engine.plan import ShardResult

    if _exportable(obj):
        return export_array(obj, prefix)
    if isinstance(obj, TraceTable):
        return export_table(obj, prefix)
    if isinstance(obj, ShardResult):
        return replace(obj, table=export_result(obj.table, prefix))
    if isinstance(obj, dict):
        return {key: export_result(value, prefix) for key, value in obj.items()}
    if isinstance(obj, list):
        return [export_result(value, prefix) for value in obj]
    if isinstance(obj, tuple):
        return tuple(export_result(value, prefix) for value in obj)
    return obj


def _charge_pickled_table(table: TraceTable) -> None:
    """Charge a pipe-pickled table's array payload to the copy ledger."""
    for name in table.schema.names:
        col = table.column(name)
        if isinstance(col, np.ndarray) and col.dtype != object:
            copy_stats.count_pickled(col.nbytes)


def import_result(obj):
    """Inverse of :func:`export_result`: reattach views, account stragglers.

    Payloads that arrive *without* a handle went through pickle; their array
    bytes are charged to :data:`~repro.data.arena.copy_stats` here, on the
    importing side, so the benchmark copy probe observes every byte that
    crossed the pipe regardless of which branch it took.
    """
    from repro.engine.plan import ShardResult

    if isinstance(obj, ShmArrayRef):
        return import_array(obj)
    if isinstance(obj, ShmTableArenaRef):
        return import_table(obj)
    if isinstance(obj, TraceTable):
        _charge_pickled_table(obj)
        return obj
    if isinstance(obj, np.ndarray):
        if obj.dtype != object:
            copy_stats.count_pickled(obj.nbytes)
        return obj
    if isinstance(obj, ShardResult):
        return replace(obj, table=import_result(obj.table))
    if isinstance(obj, dict):
        return {key: import_result(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [import_result(value) for value in obj]
    if isinstance(obj, tuple):
        return tuple(import_result(value) for value in obj)
    return obj


def release_result(obj) -> None:
    """Unlink every file in an exported result that won't be imported."""
    from repro.engine.plan import ShardResult

    if isinstance(obj, (ShmArrayRef, ShmTableArenaRef)):
        with contextlib.suppress(FileNotFoundError):
            os.unlink(obj.path)
    elif isinstance(obj, ShardResult):
        release_result(obj.table)
    elif isinstance(obj, dict):
        for value in obj.values():
            release_result(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            release_result(value)
