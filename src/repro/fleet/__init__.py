"""Worker fleet: fit once, sample anywhere.

Synthesis in this codebase is *fit once, sample forever*: the fitted model
is a frozen set of noisy marginals, and sampling is pure post-processing —
free under DP and embarrassingly parallel.  This package turns that into a
fleet: a coordinator (:class:`LocalCluster`) starts its workers as
children, each on its own :func:`multiprocessing.Pipe` — every message a
pickled ``(type, payload)`` tuple (:mod:`repro.fleet.messaging`), one
:class:`WorkerRecord` per live worker — and fans one release's shard tasks
across them (:class:`ShardQueue` — deterministic ``SeedSequence`` shard
assignment, so a fleet release is digest-equal to a serial one).  Running
shards is the fleet's one job: a release is post-processing of the
published noisy marginals, and serving DP queries is one query service's
job, not a tier of fleet-hosted replicas.  The cluster is also the
engine's one multi-process runtime: ``backend="fleet"`` runs on the active
cluster, and ``backend="process"`` on a private one (:meth:`LocalCluster.private`)::

    with LocalCluster(workers=4):
        table = synth.sample(200_000, rng=7, shards=8, backend="fleet")

Failure handling reuses :mod:`repro.reliability` wholesale: a worker whose
connection ends, or whose shard overruns ``task_timeout``, is killed and
replaced, and its unfinished shards re-run on their original seed
children, bounded by the backend's :class:`~repro.reliability.RetryPolicy`
— see ``docs/fleet.md`` for the protocol, message types, determinism
contract, and failure matrix.
"""

from repro.fleet.cluster import FleetError, LocalCluster, WorkerRecord, current_cluster
from repro.fleet.queue import ShardQueue
from repro.fleet.worker import worker_main

__all__ = [
    "FleetError",
    "LocalCluster",
    "ShardQueue",
    "WorkerRecord",
    "current_cluster",
    "worker_main",
]
