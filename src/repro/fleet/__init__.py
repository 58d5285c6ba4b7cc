"""Multi-node fleet: fit once, sample and serve anywhere.

Synthesis in this codebase is *fit once, sample forever*: the fitted model
is a frozen set of noisy marginals, and sampling is pure post-processing —
free under DP and embarrassingly parallel.  This package turns that into a
fleet: a coordinator (:class:`LocalCluster`) registers workers over an
authenticated :mod:`multiprocessing.connection` channel — every message a
pickled ``(type, payload)`` tuple (:mod:`repro.fleet.messaging`) — with
heartbeats and monotonic liveness expiry (:class:`WorkerRegistry`), fans
one release's shard tasks across them (:class:`ShardQueue` — deterministic
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
protocol, message types, determinism contract, and failure matrix.
"""

from repro.fleet.cluster import FleetError, LocalCluster, current_cluster
from repro.fleet.queue import ShardQueue
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
    "STATE_ALIVE",
    "STATE_EVICTED",
    "STATE_EXPIRED",
    "FleetError",
    "LocalCluster",
    "NoReplicaAvailableError",
    "ReplicatedQueryClient",
    "ShardQueue",
    "WorkerRecord",
    "WorkerRegistry",
    "current_cluster",
    "worker_main",
]
