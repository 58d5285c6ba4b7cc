"""The engine executor: the single-shard run and the helpers sharded runs share.

RNG policy (reproducibility contract):

- ``shards=1``: the caller's generator is used directly for initialization,
  GUM, and (continuing the same stream) decoding — with the serial backend
  and the reference GUM update this reproduces the pre-engine ``sample()``
  bit for bit.  :func:`execute_plan` runs this path.
- ``shards>1``: per-shard streams are spawned from a
  :class:`numpy.random.SeedSequence`.  GUM shards use children
  ``0..shards-1``; decoding uses children ``shards..2*shards-1`` (one decode
  stream per shard, decoded inside the shard — see
  :mod:`repro.engine.streaming`).  Shard outputs are independent of the
  backend and of each other.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.engine.backends import Backend, _run_shard_task, get_backend
from repro.engine.config import EngineConfig
from repro.engine.plan import SynthesisPlan
from repro.synthesis.gum import GumResult
from repro.synthesis.kernels import get_kernel
from repro.utils.rng import ensure_rng
from repro.utils.timer import Timer


@dataclass
class ExecutionResult:
    """Single-shard engine output: the GumResult plus the decode stream."""

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
    rng, shards: int
) -> tuple[list[np.random.Generator], list[np.random.Generator]]:
    """Per-shard GUM generators plus per-shard decode generators.

    Children ``0..shards-1`` of the run's seed-sequence root drive GUM and
    children ``shards..2*shards-1`` drive decoding, one of each per shard.
    """
    children = _root_sequence(rng).spawn(2 * shards)
    return (
        [np.random.default_rng(child) for child in children[:shards]],
        [np.random.default_rng(child) for child in children[shards:]],
    )


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


def backend_for(config: EngineConfig) -> Backend:
    """A fresh backend instance configured by ``config``."""
    return get_backend(
        config.backend,
        config.max_workers,
        task_timeout=config.task_timeout,
        retry=config.max_task_retries,
    )


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
    """Synthesize ``n`` encoded records on one shard: the golden single stream.

    The returned :class:`ExecutionResult` carries the
    :class:`~repro.synthesis.gum.GumResult` (the encoded matrix, a
    payload-free copy of the shard result, wall-clock timings) and the
    generator the caller decodes with — the shard's own stream, continued.
    ``backend`` may be a pre-built (possibly pool-holding) instance; by
    default one is created from the config per call.  Sharded runs decode
    inside their shards and go through
    :func:`~repro.engine.streaming.execute_plan_decoded` instead.
    """
    config = config or EngineConfig()
    if config.shards != 1:
        raise ValueError(
            f"execute_plan runs one shard, got shards={config.shards}; "
            "use execute_plan_decoded for sharded runs"
        )
    n = resolve_record_count(plan, n)
    # Every kernel consumes the stream identically (bit-exact parity is
    # pinned by the golden digests), so even the golden path is free to run
    # the fastest kernel available.
    kernel = resolve_run_kernel(plan, config)
    if isinstance(rng, np.random.SeedSequence):
        shard_rng = np.random.default_rng(rng)
    else:
        shard_rng = ensure_rng(rng)
    if backend is None:
        backend = backend_for(config)

    timer = Timer()
    timer.start()
    (result,) = backend.run_tasks(
        _run_shard_task, [(n, shard_rng, 0, kernel)], shared=plan
    )
    # Continue the shard's stream into decoding (round-tripped through
    # pickling on the process backend, so the state is exactly the post-GUM
    # one).
    decode_rng = result.rng
    if isinstance(rng, np.random.Generator) and decode_rng is not rng:
        # The process backend advanced a pickled copy; fold the state back
        # into the caller's generator so every backend mutates it
        # identically (callers may keep drawing from it afterwards).
        rng.bit_generator.state = decode_rng.bit_generator.state
        decode_rng = rng
    gum = GumResult(
        data=result.data,
        errors=_merge_errors([result], [n]),
        iterations_run=result.iterations_run,
        seconds=timer.stop(),
        backend=config.backend,
        shards=1,
        kernel=kernel,
        # The matrix lives in ``data``; the shard copy keeps only metadata.
        shard_results=[replace(result, data=None, rng=None)],
        n_records=int(result.data.shape[0]),
    )
    return ExecutionResult(gum=gum, decode_rng=decode_rng)
