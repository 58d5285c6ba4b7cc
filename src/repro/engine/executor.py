"""The engine executor: how one release is cut into shard tasks.

Every release runs the same task — :func:`~repro.engine.backends._run_shard_task`,
which synthesizes *and decodes* one shard where it runs.  The shard count
only decides which generators go into the task tuples (reproducibility
contract):

- ``shards=1``: the caller's generator drives initialization, GUM, and —
  continuing the same stream (``decode_rng=None``) — decoding.  With any
  backend this reproduces the pre-engine ``sample()`` bit for bit.
- ``shards>1``: per-shard streams are spawned from a
  :class:`numpy.random.SeedSequence`.  GUM shards use children
  ``0..shards-1``; decoding uses children ``shards..2*shards-1`` (one decode
  stream per shard).  Shard outputs are independent of the backend and of
  each other.
"""

from __future__ import annotations

import numpy as np

from repro.engine.backends import Backend, get_backend
from repro.engine.config import EngineConfig
from repro.engine.plan import SynthesisPlan, shard_sizes
from repro.utils.rng import ensure_rng


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
    """Always ``"fused"``, the kernel every release runs (perfbench reads it)."""
    return "fused"


def backend_for(config: EngineConfig, max_workers: int | None = None) -> Backend:
    """A fresh backend instance configured by ``config``.

    ``max_workers``, when given, replaces ``config.max_workers``.
    """
    return get_backend(
        config.backend,
        config.max_workers if max_workers is None else max_workers,
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


def shard_tasks(
    plan: SynthesisPlan, config: EngineConfig, n: int, rng
) -> tuple[list[tuple], list[int]]:
    """The ``(tasks, sizes)`` of one release of ``n`` records.

    Each task is the argument tuple ``(n, rng, decode_rng, index)`` of
    :func:`~repro.engine.backends._run_shard_task`.  One shard runs on the
    caller's own stream (a seed or ``SeedSequence`` becomes a fresh
    generator, a ``Generator`` is used as is); sharded runs derive their
    streams with :func:`_derive_streams`.
    """
    sizes = shard_sizes(n, config.shards)
    if config.shards == 1:
        return [(n, ensure_rng(rng), None, 0)], sizes
    shard_rngs, decode_rngs = _derive_streams(rng, config.shards)
    tasks = [
        (size, shard_rng, decode_rng, index)
        for index, (size, shard_rng, decode_rng) in enumerate(
            zip(sizes, shard_rngs, decode_rngs)
        )
    ]
    return tasks, sizes
