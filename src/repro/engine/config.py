"""Execution configuration of the sampling engine."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

#: Names of the self-contained in-process execution backends — usable with
#: no setup beyond ``EngineConfig``; generic parity suites iterate these.
BACKENDS = ("serial", "process")

#: Backends that need external infrastructure before they can run: ``fleet``
#: dispatches shards to the active :class:`repro.fleet.LocalCluster`
#: (multi-worker, crash-tolerant) and fails fast without one.
DISTRIBUTED_BACKENDS = ("fleet",)

#: Every backend name ``EngineConfig``/``get_backend`` accept.
ALL_BACKENDS = BACKENDS + DISTRIBUTED_BACKENDS

#: Older spellings still accepted, mapped to the backend that runs them now.
#: ``shared`` named a process pool returning large arrays through shared
#: memory, which is what every ``process`` pool does.
BACKEND_ALIASES = {"shared": "process"}


def canonical_backend(name: str) -> str:
    """``name`` with any alias resolved; ``ValueError`` for unknown names."""
    canonical = BACKEND_ALIASES.get(name, name)
    if canonical not in ALL_BACKENDS:
        raise ValueError(f"backend must be one of {ALL_BACKENDS}, got {name!r}")
    return canonical


def _positive_int(name: str, value) -> int:
    """Validate an engine count parameter eagerly, with a usable message.

    Rejecting bad values here — instead of letting ``shards=0`` surface as an
    opaque failure deep inside ``shard_sizes`` on a worker — is the contract
    ``EngineConfig.__post_init__`` (and thus ``override`` and every
    ``sample(shards=...)`` call) relies on.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(
            f"{name} must be an integer >= 1, got {value!r} ({type(value).__name__})"
        )
    value = int(value)
    if value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value}")
    return value


@dataclass
class EngineConfig:
    """How the post-fit sampling phase executes.

    Record synthesis is pure post-processing (paper §3.4): once the noisy
    marginals are published, no additional privacy budget is spent, so the
    ``n``-record budget can be split into shards and generated on parallel
    workers without touching the DP accounting.
    """

    #: ``"serial"`` (in-process loop) or ``"process"`` (worker processes of
    #: a private ``LocalCluster`` returning large arrays through
    #: ``/dev/shm`` files); ``"shared"`` is read as
    #: ``"process"``.
    backend: str = "serial"
    #: Number of independent GUM shards the record budget is split into.
    shards: int = 1
    #: Worker cap for the process backend (default: one per shard, at most
    #: one per CPU).
    max_workers: int | None = None
    #: Per-task result timeout (seconds) for the process backend; a
    #: shard that exceeds it is treated as a hung worker and resubmitted.
    #: ``None`` (default) waits indefinitely.
    task_timeout: float | None = None
    #: How many times a shard may be resubmitted after a *transient* fault
    #: (dead worker, task timeout, vanished result file).  Resubmission
    #: re-runs the shard on its original ``SeedSequence`` child, so retried
    #: runs stay bit-identical to fault-free ones.  ``0`` disables retry.
    max_task_retries: int = 2

    def __post_init__(self) -> None:
        self.backend = canonical_backend(self.backend)
        self.shards = _positive_int("shards", self.shards)
        if self.max_workers is not None:
            self.max_workers = _positive_int("max_workers", self.max_workers)
        if self.task_timeout is not None:
            timeout = float(self.task_timeout)
            if timeout <= 0:
                raise ValueError(f"task_timeout must be > 0, got {self.task_timeout}")
            self.task_timeout = timeout
        retries = self.max_task_retries
        if isinstance(retries, bool) or not isinstance(retries, numbers.Integral):
            raise ValueError(
                f"max_task_retries must be an integer >= 0, got {retries!r}"
            )
        self.max_task_retries = int(retries)
        if self.max_task_retries < 0:
            raise ValueError(
                f"max_task_retries must be an integer >= 0, got {retries}"
            )

    def override(
        self,
        shards: int | None = None,
        backend: str | None = None,
        max_workers: int | None = None,
        task_timeout: float | None = None,
        max_task_retries: int | None = None,
    ) -> "EngineConfig":
        """A validated copy with per-call overrides applied (``None`` keeps
        the field)."""
        return EngineConfig(
            backend=self.backend if backend is None else backend,
            shards=self.shards if shards is None else shards,
            max_workers=self.max_workers if max_workers is None else max_workers,
            task_timeout=self.task_timeout if task_timeout is None else task_timeout,
            max_task_retries=(
                self.max_task_retries if max_task_retries is None else max_task_retries
            ),
        )
