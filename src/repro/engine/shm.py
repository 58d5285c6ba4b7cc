"""Shared-memory transport for ndarray-bearing task results.

A process pool that pickles every task result pays one pickle + pipe round
trip per result; for large results (a shard's decoded
:class:`~repro.data.table.TraceTable`, the fit pipeline's count arrays) that
serialization dominates the IPC cost.  The multi-process backends instead
have the **worker** park large results in :mod:`multiprocessing.shared_memory`
segments and ship only name-sized handles through the pipe:

- a bare numeric ndarray travels as a :class:`ShmArrayRef` (one segment, one
  worker-side memcpy, parent materializes and unlinks);
- a whole :class:`TraceTable` travels as a :class:`ShmTableArenaRef` — the
  worker lays the table out as a single contiguous
  :mod:`~repro.data.arena` arena built **directly inside** the segment
  (columns are copied exactly once, straight to their final home) and the
  descriptor carries only ``(segment name, slots, dictionaries)``.  The
  parent maps the segment and reconstructs every raw column as a zero-copy
  view: **zero pickled column bytes** cross the pipe, and nothing is copied
  on import at all.

Ownership protocol (POSIX): the creating worker unregisters the segment from
its resource tracker right away and never unlinks.  For arrays the parent
attaches, copies, and unlinks within the round trip.  For table arenas the
parent's column views alias the mapping, so the unlink is *deferred*: the
imported table holds a capsule whose finalizer closes the mapping and
unlinks the segment when the last table using it is collected (an unlink
only removes the name — live mappings stay valid).  Every segment is still
unlinked exactly once, by the parent.

Segments carry deterministic names —
``nds{parent:x}-{worker:x}-{token}-{seq:x}``, where ``token`` is the
worker's boot-unique incarnation token (its ``/proc`` start time) — so the
parent can *sweep* leftovers: if a worker dies between exporting a segment
and the parent importing it, the handle is lost but the name is
reconstructable.  :func:`sweep_orphan_segments` scans ``/dev/shm`` for this
parent's prefix and unlinks segments whose creating worker *incarnation* no
longer exists — a recycled pid with a different start-time token does not
pin a dead worker's segments (pid liveness alone once did exactly that);
the cluster runtime runs it after every lost worker and on ``close()``, so
a killed worker cannot leak ``/dev/shm`` space past the run that lost it.

Only values of at least :data:`SHM_MIN_BYTES` travel through segments; small
arrays and tables, plus every other value, pickle into the result message as usual
(the parent charges those bytes to the :data:`~repro.data.arena.copy_stats`
ledger, which is how the ``bytes_copied_per_record`` benchmark probe keeps
the zero-pickled-column-bytes invariant honest), so results round-trip
unchanged for arbitrary task functions.
"""

from __future__ import annotations

import itertools
import os
import weakref
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
#: few pipe buffers the segment setup costs more than the copy it saves.
SHM_MIN_BYTES = 1 << 16

#: Where POSIX shared memory is visible as files (the sweep scans it).
_SHM_DIR = "/dev/shm"

#: Per-process sequence for deterministic segment names.
_SEQ = itertools.count()

#: (pid, token) of the last :func:`_boot_token` computation; recomputed after
#: a fork (the pid changes), so children never inherit the parent's token.
_TOKEN_CACHE: tuple[int, str] | None = None


@dataclass
class ShmArrayRef:
    """A pickle-sized handle to one ndarray parked in shared memory."""

    name: str
    dtype: str
    shape: tuple


@dataclass
class ShmTableArenaRef:
    """A :class:`TraceTable` parked in shared memory as one arena segment.

    ``slots`` is the arena's wire-form layout (offsets + dtypes into the
    segment); ``extras`` carries the out-of-band payloads (dictionary values
    for dict slots, whole columns for pickle slots).  ``pickled_bytes`` is
    the worker-computed pickle size of the pickle-slot payloads — the only
    column bytes that did not travel zero-copy — which the importing parent
    charges to the copy ledger.
    """

    name: str
    schema: object
    slots: tuple
    extras: dict
    nbytes: int
    pickled_bytes: int = 0


def _fork_locks() -> tuple:
    """Locks a worker's export takes that other parent threads take too.

    A fork while another thread held one (attaching or unlinking a segment,
    charging the ledger) would leave the child's copy locked for good, so
    every fork waits for both to be free and holds them across it.
    """
    from multiprocessing import resource_tracker

    return (resource_tracker._resource_tracker._lock, copy_stats._lock)


def _release_fork_locks() -> None:
    for lock in reversed(_fork_locks()):
        lock.release()


os.register_at_fork(
    before=lambda: [lock.acquire() for lock in _fork_locks()],
    after_in_parent=_release_fork_locks,
    after_in_child=_release_fork_locks,
)


def _unregister(name: str) -> None:
    """Drop this process's resource-tracker claim on segment ``name``.

    Safe to call for names the tracker does not know (unregister is a cache
    discard); no-op on platforms without the POSIX tracker.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(name, "shared_memory")
    except Exception:
        pass


def _proc_start_token(pid: int) -> str | None:
    """A boot-unique incarnation token for ``pid``: its kernel start time.

    Field 22 of ``/proc/<pid>/stat`` (``starttime``, clock ticks since boot)
    changes every time a pid is handed to a new process, which is exactly
    the property pid liveness alone lacks: two incarnations of the same pid
    get different tokens.  ``None`` when the pid is gone or ``/proc`` is not
    available (non-Linux hosts).
    """
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            stat = fh.read()
        # The comm field is parenthesised and may contain spaces/digits;
        # everything after the *last* ')' is fixed-position.
        fields = stat[stat.rindex(b")") + 2 :].split()
        return f"{int(fields[19]):x}"
    except (OSError, ValueError, IndexError):
        return None


def _boot_token() -> str:
    """This process's own incarnation token (cached per pid).

    Falls back to a random token when ``/proc`` is unavailable — still
    unique per incarnation, just not verifiable by the sweep (which then
    treats the segment's worker pid-liveness as the best available signal,
    the pre-token behaviour).
    """
    global _TOKEN_CACHE
    pid = os.getpid()
    if _TOKEN_CACHE is not None and _TOKEN_CACHE[0] == pid:
        return _TOKEN_CACHE[1]
    token = _proc_start_token(pid)
    if token is None:  # pragma: no cover - non-Linux host
        token = os.urandom(8).hex()
    _TOKEN_CACHE = (pid, token)
    return token


def _segment_name(seq: int) -> str:
    """Deterministic segment name: parent pid, this pid + its boot-unique
    incarnation token, per-process sequence.

    The token is what makes the name safe against pid reuse: a recycled pid
    cannot collide with (or be mistaken for the owner of) a previous
    incarnation's segments.
    """
    return f"nds{os.getppid():x}-{os.getpid():x}-{_boot_token()}-{seq:x}"


def _create_segment(size: int):
    """Create a fresh segment under this process's deterministic name series.

    Skips over names that already exist (a previous incarnation of this pid
    may have leaked one mid-crash) instead of failing.
    """
    from multiprocessing import shared_memory

    for seq in _SEQ:
        try:
            return shared_memory.SharedMemory(
                name=_segment_name(seq), create=True, size=size
            )
        except FileExistsError:  # pragma: no cover - stale name from a crash
            continue
    raise RuntimeError("unreachable")  # pragma: no cover


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid recycled by another user
        return True
    return True


def sweep_orphan_segments() -> int:
    """Unlink segments created for this process by workers that have died.

    Scans :data:`_SHM_DIR` for ``nds{this pid:x}-`` names, parses the
    creating worker's pid **and incarnation token** out of the name, and
    unlinks the segment when that worker incarnation no longer exists —
    either the pid is gone, or the pid is alive but its current start-time
    token differs from the one baked into the name (the pid was recycled by
    an unrelated process, which must not keep a dead worker's segment
    pinned).  Segments of live, token-matching workers are left alone — they
    are either in flight (the parent will import and unlink them) or about
    to be handed over — and so are segments a live imported table still
    maps, whatever became of their worker.  A token the sweep cannot
    recompute (no ``/proc``) falls back to pid liveness alone.  Returns the
    number of segments removed.
    """
    if not os.path.isdir(_SHM_DIR):  # pragma: no cover - non-POSIX host
        return 0
    prefix = f"nds{os.getpid():x}-"
    swept = 0
    for entry in os.listdir(_SHM_DIR):
        if not entry.startswith(prefix) or entry in _MAPPED:
            continue
        parts = entry[len(prefix) :].split("-")
        try:
            worker, token = int(parts[0], 16), parts[1]
        except (ValueError, IndexError):  # pragma: no cover - foreign name
            continue
        if _pid_alive(worker):
            live_token = _proc_start_token(worker)
            if live_token is None or live_token == token:
                # Same incarnation (or unverifiable): genuinely in use.
                continue
            # Alive pid, different start time: the name's owner is dead and
            # the pid was recycled — the segment is an orphan.
        try:
            os.unlink(os.path.join(_SHM_DIR, entry))
            swept += 1
        except FileNotFoundError:  # pragma: no cover - concurrent sweep
            pass
    return swept


#: Segments mapped by live imported tables.  Their workers may be gone, but
#: they are not orphans: :func:`sweep_orphan_segments` leaves them to the
#: capsule finalizer, which unlinks them when the last table dies.
_MAPPED: set[str] = set()


class _ArenaCapsule:
    """Keeps a parent-side segment mapping alive for the tables viewing it."""

    __slots__ = ("name", "__weakref__")

    def __init__(self, name: str) -> None:
        self.name = name


def _release_mapped(shm) -> None:
    """Finalizer for an imported arena segment: close the mapping, unlink.

    ``close()`` raises ``BufferError`` when column views torn from the table
    still alias the mapping (they do not hold the capsule); the mapping then
    simply stays alive until the process exits, while ``unlink()`` still
    removes the name so the segment cannot outlive this run on disk.
    """
    _MAPPED.discard(shm.name)
    try:
        shm.close()
    except BufferError:
        pass
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - swept or double-unlink
        pass


def export_array(arr: np.ndarray) -> ShmArrayRef:
    """Copy ``arr`` into a fresh shared-memory segment and return its handle.

    The caller-side mapping is closed before returning; the segment itself
    stays alive (the importer unlinks it).
    """
    arr = np.ascontiguousarray(arr)
    shm = _create_segment(arr.nbytes)
    try:
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
        view[...] = arr
        ref = ShmArrayRef(name=shm.name, dtype=arr.dtype.str, shape=arr.shape)
        del view
    finally:
        # Hand ownership to the importer: this process must neither unlink
        # the segment nor let its tracker believe it still owns it.
        registered = getattr(shm, "_name", shm.name)
        shm.close()
        _unregister(registered)
    return ref


def import_array(ref: ShmArrayRef) -> np.ndarray:
    """Materialize the array behind ``ref`` and destroy the segment."""
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=ref.name)
    try:
        view = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype), buffer=shm.buf)
        out = view.copy()
        del view
    finally:
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double-unlink race
            pass
    return out


def release_array(ref) -> None:
    """Destroy the segment behind a ref without materializing it.

    Used when an exported result will never be imported (a consumer abandoned
    the stream, or a sibling task failed): attaching and unlinking keeps the
    register/unregister ledger balanced exactly like :func:`import_array`.
    """
    from multiprocessing import shared_memory

    try:
        shm = shared_memory.SharedMemory(name=ref.name)
    except FileNotFoundError:
        return
    shm.close()
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - double-unlink race
        pass


def export_table(table: TraceTable):
    """Park a table in one shm segment as a contiguous arena; return its ref.

    The arena is laid out **directly inside the segment** — plan first, then
    write each column straight to its final offset — so export costs exactly
    one copy per column and the descriptor that crosses the pipe carries no
    array bytes at all (dictionary values and un-encodable object columns
    ride in ``extras``; the latter are measured into ``pickled_bytes``).

    Tables whose arena would be smaller than :data:`SHM_MIN_BYTES` are
    returned unchanged and pickle through the pipe whole.
    """
    slots, nbytes, arrays, extras = plan_layout(table)
    if nbytes < SHM_MIN_BYTES:
        return table
    shm = _create_segment(nbytes)
    try:
        write_layout(slots, arrays, shm.buf)
        ref = ShmTableArenaRef(
            name=shm.name,
            schema=table.schema,
            slots=slots,
            extras=extras,
            nbytes=nbytes,
            pickled_bytes=sum(
                pickled_nbytes(extras[slot.name])
                for slot in slots
                if slot.kind == SLOT_PICKLE
            ),
        )
    finally:
        registered = getattr(shm, "_name", shm.name)
        shm.close()
        _unregister(registered)
    return ref


def import_table(ref: ShmTableArenaRef) -> TraceTable:
    """Map the arena behind ``ref``; every raw column is a zero-copy view.

    The returned table's capsule owns the mapping: the segment is unlinked
    by the capsule's finalizer once the table (and every table sharing the
    capsule) is garbage, not eagerly — see :func:`_release_mapped`.
    """
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=ref.name)
    _MAPPED.add(shm.name)
    capsule = _ArenaCapsule(shm.name)
    weakref.finalize(capsule, _release_mapped, shm)
    track_arena(capsule, ref.nbytes)
    if ref.pickled_bytes:
        copy_stats.count_pickled(ref.pickled_bytes)
    arena = TableArena(
        ref.schema, ref.slots, shm.buf, ref.extras, ref.nbytes, owner=capsule
    )
    return arena.to_table()


def _exportable(value) -> bool:
    return (
        isinstance(value, np.ndarray)
        and value.dtype != object
        and value.nbytes >= SHM_MIN_BYTES
    )


def export_result(obj):
    """Recursively swap large payloads in a task result for shm handles.

    Understands the engine's result shapes — bare arrays, whole
    :class:`TraceTable` results (which travel as single-segment arenas) and
    the tables inside ``ShardResult`` — plus plain dict/list/tuple
    containers.  Everything else passes through untouched (and is pickled by
    the transport as usual).
    """
    from repro.engine.plan import ShardResult

    if _exportable(obj):
        return export_array(obj)
    if isinstance(obj, TraceTable):
        return export_table(obj)
    if isinstance(obj, ShardResult):
        return replace(obj, table=export_result(obj.table))
    if isinstance(obj, dict):
        return {key: export_result(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [export_result(value) for value in obj]
    if isinstance(obj, tuple):
        return tuple(export_result(value) for value in obj)
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
    """Destroy every segment in an exported result that won't be imported."""
    from repro.engine.plan import ShardResult

    if isinstance(obj, (ShmArrayRef, ShmTableArenaRef)):
        release_array(obj)
    elif isinstance(obj, ShardResult):
        release_result(obj.table)
    elif isinstance(obj, dict):
        for value in obj.values():
            release_result(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            release_result(value)
