"""Streaming execution plane: decode in the shards, emit bounded-size chunks.

Sharded runs push :meth:`SynthesisPlan.finalize` into the shards — each
shard decodes its own rows with its own spawned decode stream
(``SeedSequence`` children ``shards..2*shards-1``), so encoded matrices never
leave the workers — and expose the result two ways:

- :func:`execute_plan_decoded` — the in-memory path ``sample()`` uses for
  sharded runs: decoded shard tables are concatenated in shard order, the
  encoded matrices never leave the workers;
- :func:`execute_plan_stream` — a generator of decoded
  :class:`~repro.data.table.TraceTable` chunks with a bounded number of
  shards in flight (``Backend.imap_tasks``), so a loaded model can emit
  arbitrarily many records at bounded RSS.

For a given ``(seed, shards)`` both paths synthesize identical rows.
``shards=1`` keeps the legacy single-stream synthesize-then-decode behavior
bit for bit (:func:`~repro.engine.executor.execute_plan`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.table import TraceTable
from repro.engine.backends import Backend, _run_decoded_shard_task
from repro.engine.config import EngineConfig
from repro.engine.executor import (
    _derive_streams,
    _merge_errors,
    backend_for,
    execute_plan,
    resolve_record_count,
    resolve_run_kernel,
)
from repro.engine.plan import SynthesisPlan, shard_sizes
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

    Popped chunks are stitched into fresh arenas (``concat_all``), never
    views over the shard tables, so a shard table pushed here dies — and its
    shm arena capsule unlinks the backing segment — as soon as its last row
    is popped, keeping the stream's ``/dev/shm`` footprint bounded by the
    in-flight window exactly like its RSS.
    """

    def __init__(self) -> None:
        self._parts: list[TraceTable] = []
        self.rows = 0

    def push(self, table: TraceTable) -> None:
        if table.n_records:
            self._parts.append(table)
            self.rows += table.n_records

    def pop(self, k: int) -> TraceTable:
        """The next ``min(k, rows)`` buffered rows as one table."""
        take: list[TraceTable] = []
        need = min(k, self.rows)
        taken = need
        while need:
            head = self._parts[0]
            if head.n_records <= need:
                take.append(self._parts.pop(0))
                need -= head.n_records
            else:
                take.append(head.take(np.arange(need)))
                self._parts[0] = head.take(np.arange(need, head.n_records))
                need = 0
        self.rows -= taken
        return TraceTable.concat_all(take)


@dataclass
class _ShardAccumulator:
    """Collects per-shard metadata while tables stream past."""

    sizes: list
    kernel: str = ""
    metas: list = field(default_factory=list)

    def add(self, decoded) -> TraceTable:
        self.metas.append(decoded.meta())
        return decoded.table

    def merged(self, config: EngineConfig, seconds: float, n: int) -> GumResult:
        return GumResult(
            data=None,
            errors=_merge_errors(self.metas, self.sizes),
            iterations_run=max((m.iterations_run for m in self.metas), default=0),
            seconds=seconds,
            backend=config.backend,
            shards=config.shards,
            kernel=self.kernel,
            shard_results=self.metas,
            n_records=n,
        )


def _decoded_tasks(plan: SynthesisPlan, config: EngineConfig, n: int, rng):
    """The per-shard (task list, sizes) for an in-shard-decode run."""
    sizes = shard_sizes(n, config.shards)
    kernel = resolve_run_kernel(plan, config)
    shard_rngs, decode_rngs = _derive_streams(rng, config.shards)
    tasks = [
        (size, shard_rng, decode_rng, index, kernel)
        for index, (size, shard_rng, decode_rng) in enumerate(
            zip(sizes, shard_rngs, decode_rngs)
        )
    ]
    return tasks, sizes, kernel


def _legacy_decoded(
    plan: SynthesisPlan,
    config: EngineConfig,
    n: int,
    rng,
    backend: Backend | None,
) -> DecodedResult:
    """``shards=1``: the golden synthesize-then-decode single stream."""
    out = execute_plan(plan, config, n=n, rng=rng, backend=backend)
    table = plan.finalize(out.gum.data, out.decode_rng)
    return DecodedResult(table=table, gum=out.gum)


def execute_plan_decoded(
    plan: SynthesisPlan,
    config: EngineConfig | None = None,
    n: int | None = None,
    rng=None,
    backend: Backend | None = None,
) -> DecodedResult:
    """Synthesize and decode ``n`` records, decoding inside the shards.

    For ``shards=1`` this is exactly the legacy path (same golden digests);
    for sharded runs each worker returns a finished trace slice and the
    slices are concatenated in shard order — the merged encoded matrix is
    never materialized (``gum.data is None``).
    """
    config = config or EngineConfig()
    n = resolve_record_count(plan, n)
    if config.shards == 1:
        return _legacy_decoded(plan, config, n, rng, backend)
    if backend is None:
        backend = backend_for(config)
    tasks, sizes, kernel = _decoded_tasks(plan, config, n, rng)
    timer = Timer()
    timer.start()
    acc = _ShardAccumulator(sizes=sizes, kernel=kernel)
    tables = [
        acc.add(decoded)
        for decoded in backend.run_tasks(_run_decoded_shard_task, tasks, shared=plan)
    ]
    table = TraceTable.concat_all(tables)
    return DecodedResult(table=table, gum=acc.merged(config, timer.stop(), n))


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
    :func:`execute_plan_decoded` (and, for ``shards=1``, to the legacy
    ``sample()``) for the same ``(n, rng, shards)`` — chunking only re-slices
    the shard stream, it never changes content.  At most ``window`` shards
    (default: worker count + 1) are in flight, so peak memory is bounded by
    the shard and chunk sizes, not by ``n``.  ``on_complete`` (if given)
    receives the merged :class:`~repro.synthesis.gum.GumResult` after the
    last chunk is yielded.

    Arguments are validated eagerly, at call time: a bad ``n`` or ``chunk``
    raises here, not at the first ``next()`` on the returned generator.
    """
    config = config or EngineConfig()
    n = resolve_record_count(plan, n)
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    return _stream_chunks(plan, config, n, rng, chunk, backend, window, on_complete)


def _stream_chunks(
    plan: SynthesisPlan,
    config: EngineConfig,
    n: int,
    rng,
    chunk: int,
    backend: Backend | None,
    window: int | None,
    on_complete,
):
    if config.shards == 1:
        out = _legacy_decoded(plan, config, n, rng, backend)
        for start in range(0, n, chunk):
            yield out.table.take(np.arange(start, min(start + chunk, n)))
        if on_complete is not None:
            on_complete(out.gum)
        return

    own_backend = backend is None
    if own_backend:
        backend = backend_for(config)
    tasks, sizes, kernel = _decoded_tasks(plan, config, n, rng)
    timer = Timer()
    timer.start()
    acc = _ShardAccumulator(sizes=sizes, kernel=kernel)
    buffer = _ChunkBuffer()
    try:
        for decoded in backend.imap_tasks(
            _run_decoded_shard_task, tasks, shared=plan, window=window
        ):
            buffer.push(acc.add(decoded))
            while buffer.rows >= chunk:
                yield buffer.pop(chunk)
        while buffer.rows:
            yield buffer.pop(chunk)
    finally:
        if own_backend:
            backend.close()
    if on_complete is not None:
        on_complete(acc.merged(config, timer.stop(), n))
