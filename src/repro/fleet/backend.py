"""FleetBackend: the engine backend that fans shard tasks across a fleet.

``get_backend("fleet")`` returns this class, which makes the fleet a
drop-in peer of ``serial``/``process``::

    with LocalCluster(workers=4):
        table = synth.sample(200_000, rng=7, shards=8, backend="fleet")

:meth:`run_tasks` delegates to the installed
:class:`~repro.fleet.cluster.LocalCluster` (the innermost active context,
or one passed explicitly).  Determinism is inherited, not re-implemented:
the engine hands this backend the *same* task tuples — each carrying its
shard's pre-spawned ``SeedSequence``-child generators — that the serial
backend would run in a loop, and the engine's merge is by task order, so a
fleet release is digest-identical to single-node at the same shard count,
regardless of worker count, scheduling order, or mid-release worker death.

The backend's ``task_timeout`` and ``retry`` knobs (the standard
:class:`~repro.engine.backends.Backend` contract) override the cluster's
own defaults per release.
"""

from __future__ import annotations

from repro.engine.backends import Backend


class FleetBackend(Backend):
    """Run engine tasks on the current (or given) fleet cluster."""

    name = "fleet"

    def __init__(
        self,
        max_workers=None,
        task_timeout=None,
        retry=None,
        cluster=None,
    ) -> None:
        super().__init__(
            max_workers=max_workers, task_timeout=task_timeout, retry=retry
        )
        self._cluster = cluster
        self._explicit_timeout = task_timeout is not None
        self._explicit_retry = retry is not None

    def _resolve(self):
        from repro.fleet.cluster import current_cluster

        cluster = self._cluster if self._cluster is not None else current_cluster()
        if cluster is None:
            raise RuntimeError(
                "backend 'fleet' needs an active cluster: enter a "
                "repro.fleet.LocalCluster(...) context (or pass cluster=) first"
            )
        return cluster

    def run_tasks(self, fn, tasks, shared=None):
        cluster = self._resolve()
        # Per-backend overrides travel with the release; the cluster's own
        # defaults stay untouched (it may be shared across backends).
        return cluster.run_tasks(
            fn,
            tasks,
            shared=shared,
            task_timeout=self.task_timeout if self._explicit_timeout else None,
            retry=self.retry if self._explicit_retry else None,
        )

    # imap_tasks: the inherited eager default is correct — the fleet already
    # bounds in-flight work to one shard per worker, and results spool to
    # disk rather than accumulating in worker memory.
