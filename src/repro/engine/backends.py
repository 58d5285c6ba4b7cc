"""Execution backends: a generic map-style task executor, serial or multi-process.

Every backend implements the streaming :meth:`Backend.imap_tasks` — run a
module-level function over a list of argument tuples, yielding results in
task order with a bounded window of tasks in flight (the memory bound
behind the streaming synthesis API) — and :meth:`Backend.run_tasks`, the
same with every task in the window.  Because every task result is a pure
function of its inputs, all backends produce identical results for the
same inputs; the only thing that changes is where the work runs and how
results travel back.

A ``shared`` payload (e.g. the encoded data matrix, or the synthesis plan)
is passed to every task as its first argument.  The multi-process backends
run on one runtime, a :class:`repro.fleet.LocalCluster`: ``process`` owns
private clusters whose workers fork carrying the payload (so it is never
pickled), and :meth:`Backend.open` binds a persistent one to a payload for
many calls; ``fleet`` runs on the active cluster.  Large ndarray results
come back as ``/dev/shm`` files that the worker writes under a prefix its
cluster names and the parent maps and unlinks on import (see
:mod:`repro.engine.shm`), instead of being pickled.
"""

from __future__ import annotations

import abc
import os
from typing import TYPE_CHECKING

import numpy as np

from repro.engine.config import canonical_backend
from repro.reliability import RetryPolicy
from repro.reliability.faults import SITE_SHARD, maybe_fire

if TYPE_CHECKING:  # import would cycle through plan -> synthesis -> marginals
    from repro.engine.plan import ShardResult, SynthesisPlan


def default_workers() -> int:
    """The worker count used when none is configured: one per CPU.

    ``os.cpu_count()`` may return ``None`` (``multiprocessing.cpu_count()``
    raises instead), so the ``or 1`` fallback is reachable.
    """
    return os.cpu_count() or 1


def _run_shard_task(
    plan: SynthesisPlan,
    n: int,
    rng: np.random.Generator,
    decode_rng: np.random.Generator | None,
    index: int,
) -> ShardResult:
    """One shard's synthesis *and decode* as a task; ``shared`` is the plan."""
    maybe_fire(SITE_SHARD, index=index)
    return plan.run_shard(n, rng, decode_rng, index=index)


class Backend(abc.ABC):
    """A strategy for running independent, order-indexed jobs.

    ``task_timeout`` bounds how long the caller waits on any one task
    result; ``retry`` is the :class:`~repro.reliability.RetryPolicy`
    governing resubmission after *transient* faults (worker death, task
    timeout, vanished result file).  Because every task is a pure function
    of its arguments — engine shard tasks carry their own pre-spawned
    ``SeedSequence``-child generator in the task tuple — a resubmitted task
    reproduces its original result bit-for-bit, so retrying never changes
    what a run computes, only whether it survives.  Both knobs only bind on
    the multi-process backends; the serial backend has no worker to lose.
    """

    name: str = "abstract"

    def __init__(
        self,
        max_workers: int | None = None,
        task_timeout: float | None = None,
        retry: "RetryPolicy | int | None" = None,
    ) -> None:
        self.max_workers = max_workers
        self.task_timeout = task_timeout
        self.retry = RetryPolicy.coerce(retry)

    @abc.abstractmethod
    def imap_tasks(self, fn, tasks: list[tuple], shared=None, window: int | None = None):
        """Yield ``fn(shared, *task)`` results lazily, in task order.

        ``fn`` must be a module-level (picklable) callable and every task a
        tuple of picklable arguments.  ``shared`` is a read-only payload each
        task receives as its first argument.  At most ``window`` tasks are
        in flight at once (default: worker count plus one), so a consumer
        that processes results as they arrive keeps bounded memory
        regardless of the task count.
        """

    def run_tasks(self, fn, tasks: list[tuple], shared=None) -> list:
        """Map ``fn(shared, *task)`` over ``tasks``; results in task order."""
        tasks = list(tasks)
        return list(self.imap_tasks(fn, tasks, shared=shared, window=len(tasks)))

    def open(self, shared=None) -> None:
        """Bind a persistent worker pool to ``shared`` (optional).

        Subsequent ``run_tasks(..., shared=<the same object>)`` calls reuse
        the pool instead of paying startup per call; other payloads still get
        a per-call pool.  Callers that ``open()`` must ``close()`` (the fit
        pipeline and ``NetDPSyn.pool()`` do both).  No-op for in-process
        backends.
        """

    def close(self) -> None:
        """Tear down the persistent pool opened by :meth:`open`, if any."""

    def _workers(self, n_tasks: int) -> int:
        # Default: one worker per task, but no more than one per CPU — extra
        # processes only time-slice the same cores and slow every shard.
        limit = self.max_workers or min(n_tasks, default_workers())
        return max(1, min(limit, n_tasks))

    def _window(self, window: int | None) -> int:
        if window is not None:
            return max(1, int(window))
        return (self.max_workers or default_workers()) + 1


class SerialBackend(Backend):
    """Run every task in the calling thread, one after another."""

    name = "serial"

    def imap_tasks(self, fn, tasks, shared=None, window=None):
        # Fully lazy: one task runs per result consumed, so a streaming
        # consumer holds at most one task output at a time.
        for task in tasks:
            yield fn(shared, *task)


class ClusterBackend(Backend):
    """Run tasks on the worker processes of a :class:`repro.fleet.LocalCluster`.

    With ``cluster=None`` (``process``) the backend owns its clusters
    (:meth:`repro.fleet.LocalCluster.private`): :meth:`open` starts a
    persistent one whose workers carry the payload, and any other call runs
    on one sized by :meth:`_workers` and closed after it.  Otherwise
    ``cluster`` is the cluster to run on, or a function returning it at run
    time (``fleet`` passes :func:`repro.fleet.current_cluster`); explicit
    ``task_timeout``/``retry`` then override that cluster's defaults per
    release.  Either way the cluster streams results in task order, re-runs
    a lost worker's shards on their original seed children and reaps what
    an abandoned stream left running.
    """

    def __init__(
        self,
        name: str = "process",
        max_workers: int | None = None,
        task_timeout: float | None = None,
        retry: "RetryPolicy | int | None" = None,
        cluster=None,
    ) -> None:
        super().__init__(max_workers, task_timeout=task_timeout, retry=retry)
        self.name = name
        self._cluster = cluster
        # Only a cluster this backend does not own takes per-release
        # overrides; an owned one is built with these settings.
        self._overrides = (
            {}
            if cluster is None
            else {"task_timeout": task_timeout, "retry": None if retry is None else self.retry}
        )
        self._pool = None
        self._pool_shared = None

    def _make_cluster(self, workers: int, shared):
        """A private cluster whose workers fork now, carrying ``shared``."""
        from repro.fleet.cluster import LocalCluster

        return LocalCluster.private(workers, shared, self.task_timeout, self.retry)

    def open(self, shared=None) -> None:
        self.close()
        if self._cluster is None:
            self._pool = self._make_cluster(self.max_workers or default_workers(), shared)
            self._pool_shared = shared

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = self._pool_shared = None

    def _cluster_for(self, shared, n_tasks: int):
        """``(cluster, owned_by_this_call)`` to run ``n_tasks`` tasks on."""
        if self._cluster is not None:
            cluster = self._cluster() if callable(self._cluster) else self._cluster
            if cluster is None:
                raise RuntimeError(
                    f"backend {self.name!r} needs an active cluster: enter a "
                    "repro.fleet.LocalCluster(...) context (or pass cluster=) first"
                )
            return cluster, False
        if self._pool is not None and shared is self._pool_shared:
            return self._pool, False
        return self._make_cluster(self._workers(n_tasks), shared), True

    def imap_tasks(self, fn, tasks, shared=None, window=None):
        tasks = list(tasks)
        if not tasks:
            return
        cluster, owned = self._cluster_for(shared, len(tasks))
        try:
            yield from cluster.imap_tasks(
                fn, tasks, shared=shared, window=self._window(window), **self._overrides
            )
        finally:
            if owned:
                cluster.close()


def scatter_map(
    executor: Backend | None, fn, items: list, shared=None, n_chunks=None
) -> list:
    """Chunked map: run ``fn(shared, chunk)`` per chunk, return per-item results.

    Items are dealt round-robin into ``n_chunks`` chunks (default: one per
    executor worker, falling back to the core count when the executor has no
    worker cap), so heterogeneous per-item costs spread evenly.  ``fn``
    receives a list of items and must return one result per item, in order;
    the per-item results are reassembled into the original item order.
    ``executor=None`` runs ``fn`` once over all items, in-process.
    """
    if not items:
        return []
    if executor is None:
        return fn(shared, list(items))
    if n_chunks is None:
        n_chunks = executor.max_workers or default_workers()
    k = max(1, min(int(n_chunks), len(items)))
    chunks = [items[i::k] for i in range(k)]
    chunk_results = executor.run_tasks(fn, [(chunk,) for chunk in chunks], shared=shared)
    out = [None] * len(items)
    for i, results in enumerate(chunk_results):
        if len(results) != len(chunks[i]):
            raise RuntimeError(
                f"task returned {len(results)} results for {len(chunks[i])} items"
            )
        for j, value in enumerate(results):
            out[i + j * k] = value
    return out


def get_backend(
    name: str,
    max_workers: int | None = None,
    *,
    task_timeout: float | None = None,
    retry: "RetryPolicy | int | None" = None,
) -> Backend:
    """Instantiate a backend by name (``serial``, ``process``, ``fleet``;
    ``shared`` is an accepted spelling of ``process``).

    ``task_timeout`` bounds the wait on any single task result;
    ``retry`` (a :class:`~repro.reliability.RetryPolicy`, or an int for
    ``max_retries``) governs re-running a shard after transient worker
    faults.  ``fleet`` dispatches to the active
    :class:`repro.fleet.LocalCluster` context.
    """
    name = canonical_backend(name)
    if name == "serial":
        return SerialBackend(max_workers, task_timeout=task_timeout, retry=retry)
    cluster = None
    if name == "fleet":
        from repro.fleet.cluster import current_cluster

        cluster = current_cluster
    return ClusterBackend(name, max_workers, task_timeout=task_timeout, retry=retry, cluster=cluster)
