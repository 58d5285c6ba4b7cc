"""WorkerRegistry: fleet membership with heartbeats and liveness expiry.

The coordinator's authoritative view of who is in the fleet.  A worker
joins with :meth:`~WorkerRegistry.register`, stays alive by heartbeating
every ``heartbeat_interval`` seconds, and is *expired* — reported by
:meth:`~WorkerRegistry.expire` exactly once — when
``liveness_factor * heartbeat_interval`` elapses without one.  All deadlines
live on the **monotonic clock** (injectable for unit tests), consistent with
the rest of the reliability layer: a wall-clock step must never evict a
healthy worker or resurrect a dead one.

Re-registration is first-class: a worker that crashed and restarted (or was
expired during a network partition and reconnected) registers again under
its id and resumes as a fresh, alive member — the record keeps a
``registrations`` count so the chaos suite can assert the resume actually
happened.  The registry tracks membership only; requeueing the shards an
evicted worker held is the work-queue's job (:mod:`repro.fleet.queue`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

STATE_ALIVE = "alive"
STATE_EXPIRED = "expired"
STATE_EVICTED = "evicted"


@dataclass
class WorkerRecord:
    """One fleet member as the coordinator sees it."""

    worker_id: str
    pid: int
    meta: dict = field(default_factory=dict)
    state: str = STATE_ALIVE
    registered_at: float = 0.0
    last_heartbeat: float = 0.0
    heartbeats: int = 0
    #: How many times this id has registered (>1 means it came back).
    registrations: int = 1


class WorkerRegistry:
    """Membership, heartbeats, and liveness expiry on a monotonic clock."""

    def __init__(
        self,
        heartbeat_interval: float = 0.5,
        liveness_factor: float = 3.0,
        clock=time.monotonic,
    ) -> None:
        if heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be > 0, got {heartbeat_interval}"
            )
        if liveness_factor < 1:
            raise ValueError(f"liveness_factor must be >= 1, got {liveness_factor}")
        self.heartbeat_interval = float(heartbeat_interval)
        self.liveness_factor = float(liveness_factor)
        self._clock = clock
        self._workers: dict[str, WorkerRecord] = {}

    @property
    def liveness_timeout(self) -> float:
        """Seconds of heartbeat silence after which a worker is expired."""
        return self.heartbeat_interval * self.liveness_factor

    # ------------------------------------------------------------ membership
    def register(self, worker_id: str, pid: int, meta=None):
        """Admit (or re-admit) a worker; returns its record.

        Registering an id that already exists resets it to alive with a
        fresh heartbeat deadline — that is how a restarted worker resumes.
        """
        now = self._clock()
        record = self._workers.get(worker_id)
        if record is None:
            record = WorkerRecord(
                worker_id=worker_id,
                pid=int(pid),
                meta=dict(meta or {}),
                registered_at=now,
                last_heartbeat=now,
            )
            self._workers[worker_id] = record
        else:
            record.pid = int(pid)
            record.meta = dict(meta or {})
            record.state = STATE_ALIVE
            record.last_heartbeat = now
            record.registrations += 1
        return record

    def heartbeat(self, worker_id: str) -> bool:
        """Record one heartbeat; ``False`` for unknown/evicted workers (the
        sender should re-register)."""
        record = self._workers.get(worker_id)
        if record is None or record.state == STATE_EVICTED:
            return False
        record.last_heartbeat = self._clock()
        record.heartbeats += 1
        if record.state == STATE_EXPIRED:
            # A late heartbeat after expiry does not resurrect the worker —
            # its shards were already reassigned; it must re-register.
            return False
        return True

    def expire(self) -> list[str]:
        """Mark overdue workers expired; return the *newly* expired ids."""
        now = self._clock()
        cutoff = self.liveness_timeout
        newly: list[str] = []
        for record in self._workers.values():
            if record.state != STATE_ALIVE:
                continue
            if now - record.last_heartbeat > cutoff:
                record.state = STATE_EXPIRED
                newly.append(record.worker_id)
        return newly

    def evict(self, worker_id: str) -> None:
        """Remove a worker for good (dead connection, shutdown)."""
        record = self._workers.get(worker_id)
        if record is not None:
            record.state = STATE_EVICTED

    # --------------------------------------------------------------- queries
    def get(self, worker_id: str) -> WorkerRecord | None:
        return self._workers.get(worker_id)

    def alive(self) -> list[WorkerRecord]:
        """Live members, registration order."""
        return [record for record in self._workers.values() if record.state == STATE_ALIVE]

    def stats(self) -> dict:
        by_state: dict[str, int] = {}
        for record in self._workers.values():
            by_state[record.state] = by_state.get(record.state, 0) + 1
        return {
            "workers": len(self._workers),
            "by_state": by_state,
            "heartbeat_interval": self.heartbeat_interval,
            "liveness_timeout": self.liveness_timeout,
        }
