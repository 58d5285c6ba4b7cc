"""Typed failures of the reliability layer.

These are the *engine-facing* exception types: they say what went wrong in
execution terms (a shard task died, a deadline lapsed, a breaker is open)
and carry enough structure — shard index, attempt count, the remote
traceback text — for a caller to attribute and react.  The serving tier
maps them onto its own wire taxonomy (:mod:`repro.serving.errors`); nothing
here knows about HTTP.
"""

from __future__ import annotations


class ReliabilityError(RuntimeError):
    """Base of the reliability-layer failures."""


class FaultError(ReliabilityError):
    """An *injected* fault fired (see :mod:`repro.reliability.faults`).

    Raised by ``kind="error"`` fault specs at their trigger point.  Raised
    inside a task it is a deterministic failure on every backend, like any
    exception a task raises: the release fails with a
    :class:`ShardTaskError` (``transient=False``) and nothing is retried.
    Transient faults — the retry paths — are injected with
    ``kill_worker``, ``delay`` or ``drop_shm``.
    """


class DeadlineExceeded(ReliabilityError):
    """An operation ran past its :class:`~repro.reliability.policy.Deadline`."""

    def __init__(self, message: str, remaining: float = 0.0) -> None:
        super().__init__(message)
        self.remaining = float(remaining)


class ShardTaskError(ReliabilityError):
    """A backend task failed, with full shard attribution.

    Wraps every exception that crosses :meth:`Backend.run_tasks` /
    :meth:`Backend.imap_tasks` out of a worker: ``index`` is the failed
    task's position in the submitted task list (the shard index for engine
    runs), ``attempts`` how many times the task was tried, ``transient``
    whether the failure class was retryable (worker death, timeout, vanished
    result file) or deterministic (the task function raised).  The original
    exception chains as ``__cause__``; ``remote_traceback`` preserves the
    worker-side traceback text when one crossed the pipe, so a failure in a
    forked shard is as debuggable as an inline one.
    """

    def __init__(
        self,
        message: str,
        index: int | None = None,
        attempts: int = 1,
        transient: bool = False,
        remote_traceback: str | None = None,
    ) -> None:
        super().__init__(message)
        self.index = index
        self.attempts = int(attempts)
        self.transient = bool(transient)
        self.remote_traceback = remote_traceback
