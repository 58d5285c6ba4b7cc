"""Reliability policy layer: retry, deadlines, breakers, fault injection.

Sampling and query answering are pure post-processing of the published
noisy marginals, so retrying a crashed shard or resubmitting a timed-out
query costs **zero extra privacy budget** — the only thing a retry must
preserve is determinism, and it does: a resubmitted shard re-runs on its
original ``SeedSequence`` child, so recovered runs are bit-identical to
fault-free ones (proven by the chaos suite's digest assertions).

The layer is deliberately dependency-light (stdlib + numpy) and split by
concern:

- :mod:`~repro.reliability.errors` — the typed failure taxonomy.
- :mod:`~repro.reliability.policy` — :class:`RetryPolicy` (backoff from a
  dedicated non-privacy seed stream) and :class:`Deadline` propagation.
- :mod:`~repro.reliability.breaker` — :class:`CircuitBreaker` for the
  serving tier's graceful degradation.
- :mod:`~repro.reliability.faults` — the deterministic
  :class:`FaultInjector` chaos harness.
"""

from repro.reliability.breaker import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    CircuitBreaker,
)
from repro.reliability.errors import (
    DeadlineExceeded,
    FaultError,
    ReliabilityError,
    ShardTaskError,
)
from repro.reliability.faults import (
    FAULT_KINDS,
    KIND_CORRUPT_MODEL,
    KIND_DELAY,
    KIND_DROP_SHM,
    KIND_ERROR,
    KIND_KILL,
    SITE_MODEL_LOAD,
    SITE_QUERY,
    SITE_SHARD,
    SITE_SHM_EXPORT,
    FaultInjector,
    FaultSpec,
    inject,
    install,
    installed,
    maybe_fire,
)
from repro.reliability.policy import (
    FAULT_SEED_ENV,
    Deadline,
    RetryPolicy,
    reliability_seed,
)

__all__ = [
    "FAULT_KINDS",
    "FAULT_SEED_ENV",
    "KIND_CORRUPT_MODEL",
    "KIND_DELAY",
    "KIND_DROP_SHM",
    "KIND_ERROR",
    "KIND_KILL",
    "SITE_MODEL_LOAD",
    "SITE_QUERY",
    "SITE_SHARD",
    "SITE_SHM_EXPORT",
    "STATE_CLOSED",
    "STATE_HALF_OPEN",
    "STATE_OPEN",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceeded",
    "FaultError",
    "FaultInjector",
    "FaultSpec",
    "ReliabilityError",
    "RetryPolicy",
    "ShardTaskError",
    "inject",
    "install",
    "installed",
    "maybe_fire",
    "reliability_seed",
]
