"""Streaming execution plane: every shard decodes where it runs.

One generator, :func:`_run_shards`, drives every release: it runs
:func:`~repro.engine.backends._run_shard_task` over ``Backend.imap_tasks``
(tasks from :func:`~repro.engine.executor.shard_tasks`), yields each shard's
finished :class:`~repro.data.table.TraceTable` in shard order, and merges
the shards' metadata into one :class:`~repro.synthesis.gum.GumResult`.
Encoded matrices never leave the shards.  The result is exposed two ways:

- :func:`execute_plan_decoded` — the in-memory path ``sample()`` uses: the
  shard tables are concatenated in shard order;
- :func:`execute_plan_stream` — a generator of decoded chunks with a
  bounded number of shards in flight, so a loaded model can emit
  arbitrarily many records at bounded RSS.

For a given ``(seed, shards)`` both paths synthesize identical rows;
``shards=1`` is the golden single stream on every backend.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.data.table import TraceTable
from repro.engine.backends import Backend, _run_shard_task
from repro.engine.config import EngineConfig
from repro.engine.executor import (
    _merge_errors,
    backend_for,
    resolve_record_count,
    shard_tasks,
)
from repro.engine.plan import SynthesisPlan
from repro.synthesis.gum import GumResult
from repro.utils.timer import Timer

#: Default rows per streamed chunk (and per auto-derived shard).
DEFAULT_CHUNK = 100_000


@dataclass
class DecodedResult:
    """A fully decoded engine run: the trace plus the merged GUM metadata."""

    table: TraceTable
    gum: GumResult


class _ChunkBuffer:
    """Re-slice decoded shard tables into exact chunk-sized tables.

    Holds at most ``chunk + max_shard_size`` rows at a time: shards are
    pushed as they complete and popped row-exactly, preserving shard order,
    so the stream's concatenation is identical to the in-memory merge.

    A row offset into the head shard marks what was handed out, so each row
    is copied at most once.  Popped chunks are fresh copies (``take``, then
    ``concat_all``), never views over the shard tables, so a shard table
    pushed here dies — and with it the mapping of its ``/dev/shm`` file,
    unlinked when it was imported — as soon as its last row is popped,
    keeping the stream's ``/dev/shm`` footprint bounded by the in-flight
    window exactly like its RSS.
    """

    def __init__(self) -> None:
        self._parts: deque[TraceTable] = deque()
        #: Rows of the head shard already popped.
        self._offset = 0
        self.rows = 0

    def push(self, table: TraceTable) -> None:
        if table.n_records:
            self._parts.append(table)
            self.rows += table.n_records

    def pop(self, k: int) -> TraceTable:
        """The next ``min(k, rows)`` buffered rows as one table."""
        take: list[TraceTable] = []
        need = min(k, self.rows)
        self.rows -= need
        while need:
            head = self._parts[0]
            stop = min(self._offset + need, head.n_records)
            if self._offset == 0 and stop == head.n_records:
                take.append(head)
            else:
                take.append(head.take(np.arange(self._offset, stop)))
            need -= stop - self._offset
            if stop == head.n_records:
                self._parts.popleft()
                self._offset = 0
            else:
                self._offset = stop
        return TraceTable.concat_all(take)


def _run_shards(
    plan: SynthesisPlan,
    config: EngineConfig,
    n: int,
    rng,
    backend: Backend | None,
    window: int | None,
    on_complete,
):
    """Yield each shard's decoded table in shard order.

    Once the last shard has arrived, ``on_complete`` (if given) receives the
    merged :class:`~repro.synthesis.gum.GumResult`.  A backend created here is
    closed here.
    """
    own_backend = backend is None
    if own_backend:
        backend = backend_for(config)
    tasks, sizes = shard_tasks(plan, config, n, rng)
    timer = Timer()
    timer.start()
    metas = []
    try:
        for shard in backend.imap_tasks(_run_shard_task, tasks, shared=plan, window=window):
            if shard.rng is not None and isinstance(rng, np.random.Generator):
                # A worker advanced a pickled copy of the caller's generator;
                # fold its state back so every backend mutates it alike.
                rng.bit_generator.state = shard.rng.bit_generator.state
            metas.append(shard.meta())
            yield shard.table
    finally:
        if own_backend:
            backend.close()
    if on_complete is None:
        return
    on_complete(
        GumResult(
            data=None,
            errors=_merge_errors(metas, sizes),
            iterations_run=max((m.iterations_run for m in metas), default=0),
            seconds=timer.stop(),
            backend=config.backend,
            shards=config.shards,
            shard_results=metas,
            n_records=n,
        )
    )


def execute_plan_decoded(
    plan: SynthesisPlan,
    config: EngineConfig | None = None,
    n: int | None = None,
    rng=None,
    backend: Backend | None = None,
) -> DecodedResult:
    """Synthesize and decode ``n`` records; shard tables concatenate in order.

    All shards are in flight at once.  ``shards=1`` is the golden single
    stream.  The merged encoded matrix is never materialized
    (``gum.data is None``).
    """
    config = config or EngineConfig()
    n = resolve_record_count(plan, n)
    merged: list[GumResult] = []
    tables = list(_run_shards(plan, config, n, rng, backend, config.shards, merged.append))
    return DecodedResult(table=TraceTable.concat_all(tables), gum=merged[0])


def execute_plan_stream(
    plan: SynthesisPlan,
    config: EngineConfig | None = None,
    n: int | None = None,
    rng=None,
    chunk: int = DEFAULT_CHUNK,
    backend: Backend | None = None,
    window: int | None = None,
    on_complete=None,
):
    """Yield the decoded trace as chunks of exactly ``chunk`` rows.

    The concatenation of the yielded chunks is digest-identical to
    :func:`execute_plan_decoded` for the same ``(n, rng, shards)`` —
    chunking only re-slices the shard stream, it never changes content.  At
    most ``window`` shards (default: worker count + 1) are in flight, so
    peak memory is bounded by the shard and chunk sizes, not by ``n``.
    ``on_complete`` (if given) receives the merged
    :class:`~repro.synthesis.gum.GumResult` once the last shard has arrived.

    Arguments are validated eagerly, at call time: a bad ``n`` or ``chunk``
    raises here, not at the first ``next()`` on the returned generator.
    """
    config = config or EngineConfig()
    n = resolve_record_count(plan, n)
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    return _stream_chunks(plan, config, n, rng, chunk, backend, window, on_complete)


def _stream_chunks(plan, config, n, rng, chunk, backend, window, on_complete):
    buffer = _ChunkBuffer()
    shards = _run_shards(plan, config, n, rng, backend, window, on_complete)
    try:
        for table in shards:
            buffer.push(table)
            while buffer.rows >= chunk:
                yield buffer.pop(chunk)
        while buffer.rows:
            yield buffer.pop(chunk)
    finally:
        # An abandoned stream stops its shards now: in-flight results are
        # reaped and an own backend closes, not at garbage collection.
        shards.close()
