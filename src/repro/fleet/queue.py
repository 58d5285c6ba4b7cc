"""ShardQueue: the work-queue fanning one release across the fleet.

One release = one list of shard tasks, fixed *before* any worker sees them:
each task tuple already carries its shard's pre-spawned ``SeedSequence``
child generators (the engine's ``shard_tasks`` derivation — GUM children
``0..shards-1``, decode children ``shards..2*shards-1``).  The queue only
decides *where* a shard runs, never *what* it computes, which is the whole
digest-equality argument:

- **Deterministic assignment.**  A shard's seeds are a function of the
  release's root ``SeedSequence`` and the shard index alone, so scheduling
  order, worker count, and worker identity are all invisible to the output.
- **Seed-preserving reassignment.**  :meth:`ShardQueue.release_worker`
  returns a dead worker's unfinished shards to the pending queue *unchanged*
  — the retried shard re-runs on its original seed children, so a release
  that survives a worker kill is bit-identical to a fault-free one.

The queue is plain bookkeeping (pending deque, leases, done set); the
coordinator's dispatcher thread is its only caller, so it needs no lock.
"""

from __future__ import annotations

import math
import time
from collections import deque


class ShardQueue:
    """Pending/leased/done bookkeeping for one release's shard tasks."""

    def __init__(self, n_tasks: int) -> None:
        if n_tasks < 0:
            raise ValueError(f"n_tasks must be >= 0, got {n_tasks}")
        self.n_tasks = int(n_tasks)
        self._pending: deque[int] = deque(range(n_tasks))
        #: shard index -> (worker id running it, monotonic lease time).
        self._leases: dict[int, tuple[str, float]] = {}
        self._done: set[int] = set()
        #: shard index -> times it has been handed out (1 = first run).
        self.attempts: dict[int, int] = dict.fromkeys(range(n_tasks), 0)
        #: requeued shard index -> monotonic time it may be leased again.
        self._held: dict[int, float] = {}

    # ------------------------------------------------------------ scheduling
    def lease(self, worker_id: str, limit: int | None = None) -> int | None:
        """Hand the next pending shard to ``worker_id`` (``None`` when idle).

        A never-leased shard at or past ``limit`` (a streaming consumer's
        window) stays pending; requeued shards lead the queue and lie below
        it, as they were leased under a smaller one.  A shard still
        :meth:`hold`-ing is skipped.
        """
        now = time.monotonic()
        for position, index in enumerate(self._pending):
            if self._held.get(index, now) > now:
                continue
            if limit is not None and index >= limit:
                return None
            del self._pending[position]
            self._held.pop(index, None)
            self._leases[index] = (worker_id, now)
            self.attempts[index] += 1
            return index
        return None

    def complete(self, index: int, worker_id: str | None = None) -> bool:
        """Mark a shard finished; ``False`` for stale completions.

        A completion is *stale* when the shard is no longer leased to the
        reporting worker — e.g. it was reassigned after the worker was
        expired, then the original worker's late result arrived anyway.
        Stale results are discarded (the reassigned run produces identical
        bytes, so dropping either copy is safe; keeping both would
        double-count).
        """
        if index in self._done:
            return False
        holder = self.lease_holders().get(index)
        if holder is None or (worker_id is not None and holder != worker_id):
            return False
        del self._leases[index]
        self._done.add(index)
        return True

    def release_worker(self, worker_id: str) -> list[int]:
        """Requeue every shard leased to a dead worker, seeds untouched.

        Requeued shards go to the *front* of the pending queue so recovery
        latency stays one shard deep, not one release deep.
        """
        lost = sorted(
            index for index, (holder, _) in self._leases.items() if holder == worker_id
        )
        for index in reversed(lost):
            del self._leases[index]
            self._pending.appendleft(index)
        return lost

    def requeue(self, index: int) -> None:
        """Run a finished (or leased) shard again, seeds untouched.

        For a result lost after completion, e.g. a shared-memory segment
        that vanished before the coordinator imported it.
        """
        self._done.discard(index)
        self._leases.pop(index, None)
        self._pending.appendleft(index)

    def hold(self, index: int, seconds: float) -> None:
        """Keep pending shard ``index`` from being leased for ``seconds``."""
        self._held[index] = time.monotonic() + seconds

    def cancel(self) -> None:
        """Lease nothing more; shards already leased finish or get lost."""
        self._pending.clear()
        self._held.clear()

    # --------------------------------------------------------------- queries
    @property
    def done(self) -> bool:
        return len(self._done) == self.n_tasks

    @property
    def pending(self) -> int:
        return len(self._pending)

    @property
    def leased(self) -> int:
        return len(self._leases)

    def lease_holders(self) -> dict[int, str]:
        return {index: holder for index, (holder, _) in self._leases.items()}

    def overdue(self, timeout: float) -> set[str]:
        """Workers holding a lease for longer than ``timeout`` seconds."""
        now = time.monotonic()
        return {holder for holder, since in self._leases.values() if now - since > timeout}

    def held_for(self) -> float:
        """Seconds until the next held shard may be leased (``inf``: none waits)."""
        now = time.monotonic()
        return min((until - now for until in self._held.values() if until > now), default=math.inf)

    def max_attempts(self) -> int:
        """The most times any one shard has been handed out so far."""
        return max(self.attempts.values(), default=0)
