"""The GUM kernel protocol and the per-marginal state every kernel steps on.

A *kernel* is the record-update hot path of the GUM loop: one call applies a
single marginal's free/refill step to the encoded matrix (PrivSyn §6, paper
§3.4).  Kernels are interchangeable compute strategies, not semantic
variants — a kernel must consume the caller's random stream identically to
:class:`~repro.synthesis.kernels.reference.ReferenceKernel` and write
identical bytes, so the engine's reproducibility contract (the pinned
``PRE_REFACTOR_GOLDEN`` digests, backend interchangeability, stream /
in-memory equality) holds no matter which kernel executes.  The parity
tests in ``tests/test_kernels.py`` enforce this bit for bit.

The RNG consumption order every kernel must reproduce per step:

1. ``rng.permutation(n)`` — the within-cell row order;
2. ``rng.multinomial(moves, p_over)`` — free quotas for over-full cells;
3. ``rng.shuffle(freed)`` — mix freed rows across source cells;
4. ``rng.multinomial(len(freed), p_under)`` — refill quotas;
5. one ``rng.integers(0, match, size=n_dup)`` per refilled cell that
   duplicates (ascending cell order, only when ``n_dup > 0``).

Steps 1-4 are single bulk draws, so kernels are free to restructure the
surrounding compute; step 5 is per-cell in the reference, and the fused
kernel reproduces its exact word consumption with one bounds-broadcast draw.
"""

from __future__ import annotations

import abc

import numpy as np


class _MarginalState:
    """One target marginal: its attribute columns, cell grid and target."""

    __slots__ = ("axes", "shape", "target")

    def __init__(self, axes: np.ndarray, shape: tuple, target: np.ndarray) -> None:
        self.axes = axes
        self.shape = shape
        self.target = target


class GumKernel(abc.ABC):
    """A compute strategy for the per-marginal GUM update step.

    :func:`~repro.synthesis.gum.run_gum` calls :meth:`prepare` once before
    the iteration loop, then :meth:`step` once per marginal per iteration.
    Every shard runs its own instance, so per-run scratch a kernel keeps on
    ``self`` never leaks between concurrent shards.
    """

    #: Key in :data:`~repro.synthesis.kernels.KERNELS`.
    name: str = "abstract"
    #: Whether :meth:`prepare` builds per-run caches (no shipped kernel
    #: does).  Informational only: ``run_gum`` calls :meth:`prepare`
    #: unconditionally.
    uses_cache: bool = False

    def prepare(self, data: np.ndarray, states: list) -> None:
        """Build per-run state before the iteration loop (default: none)."""

    @abc.abstractmethod
    def step(
        self,
        data: np.ndarray,
        states: list,
        k: int,
        alpha: float,
        config,
        rng: np.random.Generator,
    ) -> float:
        """Apply one update against marginal ``k``; return its pre-step error.

        ``data`` is modified in place.  ``config`` supplies
        ``duplicate_fraction``; ``states[k]`` the marginal being matched.
        """
