"""The engine executor: shard the record budget, run backends, merge results.

RNG policy (reproducibility contract):

- ``shards=1``: the caller's generator is used directly for initialization,
  GUM, and (continuing the same stream) decoding — with the serial backend
  and the reference GUM update this reproduces the pre-engine ``sample()``
  bit for bit.
- ``shards>1``: per-shard streams are spawned from a
  :class:`numpy.random.SeedSequence`.  GUM shards use children
  ``0..shards-1``; decoding uses children ``shards..2*shards-1`` (one decode
  stream per shard, for in-shard decoding) — the merged-decode child
  ``shards`` of the legacy encoded path is shard 0's decode stream.  Either
  way shard outputs are independent of the backend and of each other.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.engine.backends import Backend, get_backend
from repro.engine.config import EngineConfig
from repro.engine.plan import ShardResult, SynthesisPlan, shard_sizes
from repro.synthesis.gum import GumResult
from repro.synthesis.kernels import get_kernel
from repro.utils.rng import ensure_rng
from repro.utils.timer import Timer


@dataclass
class ExecutionResult:
    """Merged engine output: the aggregate GumResult plus the decode stream."""

    gum: GumResult
    decode_rng: np.random.Generator


def _root_sequence(rng) -> np.random.SeedSequence:
    """The seed-sequence root of a sharded run's RNG tree."""
    if isinstance(rng, np.random.SeedSequence):
        return rng
    if rng is None:
        return np.random.SeedSequence()
    if isinstance(rng, (int, np.integer)):
        return np.random.SeedSequence(int(rng))
    # A caller-owned generator: draw one entropy word (deterministic in
    # the generator's state) to root the shard tree.
    return np.random.SeedSequence(int(ensure_rng(rng).integers(0, 2**63 - 1)))


def _derive_streams(
    rng, shards: int, decode_per_shard: bool = False
) -> tuple[list[np.random.Generator], object]:
    """Per-shard generators plus the decode generator(s).

    Returns ``decode=None`` for single-shard runs: the shard's generator
    itself (after synthesis) continues into decoding, preserving the legacy
    single-stream behavior.  For sharded runs, ``decode`` is one generator
    (child ``shards``, the legacy merged-decode stream) or — with
    ``decode_per_shard`` — a list of ``shards`` generators (children
    ``shards..2*shards-1``).  The GUM children ``0..shards-1`` are identical
    in both modes, so the encoded shard outputs never depend on the decode
    layout.
    """
    if shards == 1:
        if isinstance(rng, np.random.SeedSequence):
            return [np.random.default_rng(rng)], None
        return [ensure_rng(rng)], None
    seq = _root_sequence(rng)
    children = seq.spawn(2 * shards if decode_per_shard else shards + 1)
    shard_rngs = [np.random.default_rng(child) for child in children[:shards]]
    if decode_per_shard:
        return shard_rngs, [np.random.default_rng(child) for child in children[shards:]]
    return shard_rngs, np.random.default_rng(children[shards])


def _merge_errors(results: list, sizes: list[int]) -> list[float]:
    """Record-weighted mean error curve; shorter shards hold their last value.

    Vectorized: curves are edge-padded into one ``(shards, longest)`` matrix
    and reduced with a single weighted matrix-vector product instead of the
    former per-iteration/per-shard Python loops.  Shards with no error curve
    contribute zero to the numerator but their records still count in the
    denominator, matching the reference semantics.
    """
    curves = [np.asarray(r.errors, dtype=np.float64) for r in results]
    longest = max((c.size for c in curves), default=0)
    if longest == 0:
        return []
    total = float(sum(sizes))
    if total <= 0:
        return [0.0] * longest
    padded = np.zeros((len(curves), longest), dtype=np.float64)
    weights = np.zeros(len(curves), dtype=np.float64)
    for i, (curve, size) in enumerate(zip(curves, sizes)):
        if curve.size:
            padded[i] = np.pad(curve, (0, longest - curve.size), mode="edge")
            weights[i] = size
    return list(weights @ padded / total)


def _strip_payloads(results: list[ShardResult]) -> list[ShardResult]:
    """Payload-free copies: keep timings/errors/iterations, drop the arrays.

    The merged matrix already holds every row, so keeping the per-shard
    ``data`` references alive inside ``GumResult.shard_results`` would double
    peak RSS for the lifetime of the result object.
    """
    return [replace(r, data=None, rng=None) for r in results]


def resolve_run_kernel(plan: SynthesisPlan, config: EngineConfig) -> str:
    """The concrete kernel name one engine run ships to every shard.

    An explicit per-call/engine ``config.kernel`` beats the plan's frozen
    preference; ``"auto"`` then names ``fused``.  Resolution happens once,
    in the parent, so every shard of a run executes the same kernel —
    though either kernel would produce the same bytes.
    """
    name = config.kernel
    if name == "auto":
        name = plan.kernel
    return get_kernel(name).name


def resolve_record_count(plan: SynthesisPlan, n: int | None) -> int:
    """Validate and default the record budget of one engine run."""
    if n is None:
        n = plan.default_n
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return int(n)


def execute_plan(
    plan: SynthesisPlan,
    config: EngineConfig | None = None,
    n: int | None = None,
    rng=None,
    backend: Backend | None = None,
) -> ExecutionResult:
    """Synthesize ``n`` encoded records under ``config``.

    The returned :class:`ExecutionResult` carries the merged
    :class:`~repro.synthesis.gum.GumResult` (shard rows concatenated in shard
    order, payload-free per-shard results attached, wall-clock timings filled
    in) and the generator the caller should decode with.  ``backend`` may be
    a pre-built (possibly pool-holding) instance; by default one is created
    from the config per call.
    """
    config = config or EngineConfig()
    n = resolve_record_count(plan, n)
    sizes = shard_sizes(n, config.shards)
    # Every kernel consumes the stream identically (bit-exact parity is
    # pinned by the golden digests), so even the legacy single-shard path is
    # free to run the fastest kernel available.
    kernel = resolve_run_kernel(plan, config)

    shard_rngs, decode_rng = _derive_streams(rng, config.shards)
    if backend is None:
        backend = get_backend(
            config.backend,
            config.max_workers,
            task_timeout=config.task_timeout,
            retry=config.max_task_retries,
        )

    timer = Timer()
    timer.start()
    results = backend.run(plan, sizes, shard_rngs, kernel)
    data = (
        results[0].data
        if len(results) == 1
        else np.concatenate([r.data for r in results], axis=0)
    )
    if decode_rng is None:
        # Continue the single shard's stream (round-tripped through pickling
        # for the process backends, so the state is exactly the post-GUM one).
        decode_rng = results[0].rng
        if isinstance(rng, np.random.Generator) and decode_rng is not rng:
            # Process backend advanced a pickled copy; fold the state back
            # into the caller's generator so every backend mutates it
            # identically (callers may keep drawing from it afterwards).
            rng.bit_generator.state = decode_rng.bit_generator.state
            decode_rng = rng
    merged = GumResult(
        data=data,
        errors=_merge_errors(results, sizes),
        iterations_run=max((r.iterations_run for r in results), default=0),
        seconds=timer.stop(),
        backend=config.backend,
        shards=config.shards,
        kernel=kernel,
        shard_results=_strip_payloads(results),
        n_records=int(data.shape[0]),
    )
    return ExecutionResult(gum=merged, decode_rng=decode_rng)
