"""The sampling engine: pluggable execution for the post-fit synthesis phase.

Record synthesis (paper §3.4, Algorithm 1 steps 9-11) is pure
post-processing of the published noisy marginals, so it can be sharded and
parallelized freely without touching the DP accounting.  This package
provides:

- :class:`SynthesisPlan` — a picklable capture of everything ``sample()``
  needs after ``fit()``;
- serial and multi-process :mod:`backends <repro.engine.backends>`
  exposing a generic map-style
  :meth:`~repro.engine.backends.Backend.run_tasks` (used by the fit
  pipeline's exact-count fan-out) and the streaming
  :meth:`~repro.engine.backends.Backend.imap_tasks` (every shard run); the
  multi-process ones run on a :class:`repro.fleet.LocalCluster` and return
  large results through ``/dev/shm`` files;
- :func:`execute_plan_decoded` / :func:`execute_plan_stream` — the
  execution plane (:mod:`repro.engine.streaming`): one shard task that
  synthesizes and decodes where it runs, one generator over
  :meth:`~repro.engine.backends.Backend.imap_tasks`, and results that
  arrive as finished trace tables, in bulk or as bounded-memory chunks.
  :mod:`repro.engine.executor` cuts the record budget into shard tasks: one
  shard runs the golden single stream on the caller's generator, more
  shards get independent ``SeedSequence``-spawned streams.
"""

from repro.engine.backends import (
    Backend,
    ClusterBackend,
    SerialBackend,
    get_backend,
    scatter_map,
)
from repro.engine.config import (
    ALL_BACKENDS,
    BACKENDS,
    DISTRIBUTED_BACKENDS,
    EngineConfig,
)
from repro.engine.plan import ShardResult, SynthesisPlan, shard_sizes
from repro.engine.streaming import (
    DEFAULT_CHUNK,
    DecodedResult,
    execute_plan_decoded,
    execute_plan_stream,
)
from repro.reliability import ShardTaskError

__all__ = [
    "ALL_BACKENDS",
    "BACKENDS",
    "Backend",
    "ClusterBackend",
    "DISTRIBUTED_BACKENDS",
    "DEFAULT_CHUNK",
    "DecodedResult",
    "EngineConfig",
    "SerialBackend",
    "ShardResult",
    "ShardTaskError",
    "SynthesisPlan",
    "execute_plan_decoded",
    "execute_plan_stream",
    "get_backend",
    "scatter_map",
    "shard_sizes",
]
