"""Multi-node fleet: fit once, sample and serve anywhere.

Synthesis in this codebase is *fit once, sample forever*: the fitted model
is a frozen set of noisy marginals, and sampling is pure post-processing —
free under DP and embarrassingly parallel.  This package turns that into a
fleet: a coordinator (:class:`LocalCluster`) registers workers over an
authenticated :mod:`multiprocessing.connection` channel with heartbeats and
monotonic liveness expiry (:class:`WorkerRegistry`), fans one release's
shard tasks across them (:class:`ShardQueue` — deterministic
``SeedSequence`` shard assignment, so a multi-node release is digest-equal
to single-node), and fronts replicated HTTP query workers with round-robin
dispatch and per-replica circuit breakers
(:class:`ReplicatedQueryClient`).  The cluster is also the engine's one
multi-process runtime: ``backend="fleet"`` runs on the active cluster, and
``backend="process"`` on a private one (:meth:`LocalCluster.private`)::

    with LocalCluster(workers=4):
        table = synth.sample(200_000, rng=7, shards=8, backend="fleet")

Failure handling reuses :mod:`repro.reliability` wholesale: a worker killed
mid-release (or mid-heartbeat) is expired and its unfinished shards re-run
on their original seed children, bounded by the backend's
:class:`~repro.reliability.RetryPolicy` — see ``docs/fleet.md`` for the
protocol, envelope schema, determinism contract, and failure matrix.
"""

from repro.fleet.cluster import FleetError, LocalCluster, current_cluster
from repro.fleet.messaging import (
    FLEET_SCHEMA_VERSION,
    MESSAGE_TYPES,
    Envelope,
    EnvelopeError,
    decode_envelope,
    encode_envelope,
    seed_from_spec,
    seed_spec,
)
from repro.fleet.queue import ShardQueue, release_seed_specs
from repro.fleet.registry import (
    STATE_ALIVE,
    STATE_EVICTED,
    STATE_EXPIRED,
    WorkerRecord,
    WorkerRegistry,
)
from repro.fleet.serving import NoReplicaAvailableError, ReplicatedQueryClient
from repro.fleet.worker import worker_main

__all__ = [
    "FLEET_SCHEMA_VERSION",
    "MESSAGE_TYPES",
    "STATE_ALIVE",
    "STATE_EVICTED",
    "STATE_EXPIRED",
    "Envelope",
    "EnvelopeError",
    "FleetError",
    "LocalCluster",
    "NoReplicaAvailableError",
    "ReplicatedQueryClient",
    "ShardQueue",
    "WorkerRecord",
    "WorkerRegistry",
    "current_cluster",
    "decode_envelope",
    "encode_envelope",
    "release_seed_specs",
    "seed_from_spec",
    "seed_spec",
    "worker_main",
]
