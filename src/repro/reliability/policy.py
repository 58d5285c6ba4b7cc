"""Retry and deadline policy: the *when* of fault handling.

Two small value-ish objects every reliability-aware layer shares:

- :class:`RetryPolicy` — exponential backoff with jitter.  The jitter is
  drawn from a **dedicated non-privacy** :class:`numpy.random.SeedSequence`
  stream: backoff randomness must never consume from (or correlate with)
  the synthesis RNG tree, whose children are the reproducibility contract.
  Pinning ``REPRO_FAULT_SEED`` (or the ``seed`` argument) makes retry
  timing — and everything the fault-injection harness randomizes —
  bit-reproducible in CI.
- :class:`Deadline` — an absolute expiry on the monotonic clock, threaded
  *down* through layers (request -> batcher -> engine wait) so every
  blocking wait is bounded by the same budget instead of each layer
  inventing its own timeout.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.reliability.errors import DeadlineExceeded

#: Environment variable pinning every reliability-layer random stream
#: (retry jitter, harness randomization).  Unset = fresh entropy.
FAULT_SEED_ENV = "REPRO_FAULT_SEED"


def reliability_seed() -> int | None:
    """The pinned reliability seed, or ``None`` for fresh entropy."""
    raw = os.environ.get(FAULT_SEED_ENV)
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"{FAULT_SEED_ENV} must be an integer, got {raw!r}"
        ) from None


class RetryPolicy:
    """Exponential backoff with jitter for transient-fault resubmission.

    ``delay(attempt)`` for attempt 1, 2, ... grows as
    ``base_delay * multiplier**(attempt-1)`` capped at ``max_delay``, then
    stretched by a jitter factor in ``[1, 1 + jitter]`` drawn from this
    policy's own generator.  ``max_retries=0`` disables retrying (the first
    transient fault is final).

    The generator is rooted in a dedicated ``SeedSequence`` — **never** the
    synthesis stream — so retrying cannot perturb what is sampled, only when.
    """

    def __init__(
        self,
        max_retries: int = 2,
        base_delay: float = 0.05,
        multiplier: float = 2.0,
        max_delay: float = 2.0,
        jitter: float = 0.5,
        seed: int | None = None,
    ) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if base_delay < 0 or max_delay < 0:
            raise ValueError("delays must be non-negative")
        if multiplier < 1:
            raise ValueError(f"multiplier must be >= 1, got {multiplier}")
        if jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {jitter}")
        self.max_retries = int(max_retries)
        self.base_delay = float(base_delay)
        self.multiplier = float(multiplier)
        self.max_delay = float(max_delay)
        self.jitter = float(jitter)
        if seed is None:
            seed = reliability_seed()
        self._rng = np.random.default_rng(
            np.random.SeedSequence(seed) if seed is not None else None
        )

    @classmethod
    def coerce(cls, retry: "RetryPolicy | int | None") -> "RetryPolicy":
        """``retry`` as a policy: ``None`` is the default policy, an int its
        ``max_retries``, and a policy is returned as is."""
        if retry is None:
            return cls()
        if isinstance(retry, RetryPolicy):
            return retry
        return cls(max_retries=int(retry))

    def retryable(self, attempt: int) -> bool:
        """Whether a failure on attempt ``attempt`` (1-based) may be retried."""
        return attempt <= self.max_retries

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based), jitter applied."""
        base = min(self.base_delay * self.multiplier ** (attempt - 1), self.max_delay)
        if self.jitter and base > 0:
            base *= 1.0 + self.jitter * float(self._rng.random())
        return base


class Deadline:
    """An absolute expiry on the monotonic clock, propagated across layers.

    Built once at the outermost entry point (e.g. HTTP request arrival) and
    handed down; every blocking wait along the way clamps to
    :meth:`remaining` so the overall operation can never outlast its budget
    no matter how many layers it crosses.
    """

    __slots__ = ("budget", "_expires", "_clock")

    def __init__(self, seconds: float, clock=time.monotonic) -> None:
        if seconds < 0:
            raise ValueError(f"deadline seconds must be >= 0, got {seconds}")
        self.budget = float(seconds)
        self._clock = clock
        self._expires = clock() + self.budget

    @classmethod
    def after(cls, seconds: float | None, clock=time.monotonic) -> "Deadline | None":
        """A deadline ``seconds`` from now, or ``None`` when unbounded."""
        if seconds is None:
            return None
        return cls(seconds, clock=clock)

    def remaining(self) -> float:
        """Seconds left (never negative)."""
        return max(self._expires - self._clock(), 0.0)

    @property
    def expired(self) -> bool:
        return self._clock() >= self._expires

    def check(self, what: str = "operation") -> None:
        """Raise :class:`DeadlineExceeded` when the budget is spent."""
        if self.expired:
            raise DeadlineExceeded(
                f"{what} exceeded its {self.budget:.3f}s deadline"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(budget={self.budget:.3f}s, remaining={self.remaining():.3f}s)"
