"""GUM: the Gradually Update Method record synthesizer (PrivSyn §6, paper §3.4).

GUM iteratively edits an encoded synthetic dataset so that its marginals
approach the published noisy targets.  For each target marginal it:

1. computes the current marginal and its signed gap to the target;
2. frees rows from over-represented cells (proportionally to their excess,
   damped by the update rate alpha);
3. refills the freed rows for under-represented cells — preferentially by
   *duplicating* an existing row that already matches the cell (preserving
   that row's joint distribution with the other attributes), otherwise by
   *replacing* just the marginal's attributes in the freed row.

The update rate decays geometrically so early iterations make large moves
and later ones fine-tune.

The per-marginal update step is executed by a
:class:`~repro.synthesis.kernels.GumKernel`: releases run ``fused``, which
is bit-identical to the ``reference`` oracle (see
:mod:`repro.synthesis.kernels`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.domain import Domain
from repro.synthesis.kernels import FusedKernel, GumKernel, _MarginalState
from repro.utils.rng import ensure_rng
from repro.utils.timer import Timer


@dataclass
class GumConfig:
    """Tuning knobs of the GUM loop."""

    iterations: int = 50
    alpha: float = 1.0
    alpha_decay: float = 0.98
    duplicate_fraction: float = 0.5
    #: Stop early when the mean marginal error improves by less than ``tol``
    #: for ``patience`` consecutive iterations.
    tol: float = 1e-4
    patience: int = 5


@dataclass
class GumResult:
    """Synthesized encoded rows plus the convergence trace and timings.

    Engine runs decode inside every shard and never materialize a merged
    encoded matrix: they carry ``data=None`` and record the row count in
    :attr:`n_records` instead.
    """

    data: np.ndarray | None
    errors: list = field(default_factory=list)
    iterations_run: int = 0
    #: Wall-clock seconds of the GUM loop; for engine runs this is the whole
    #: sampling phase (initialization + GUM + decode across all shards).
    seconds: float = 0.0
    #: Execution provenance (filled in by :mod:`repro.engine`).
    backend: str = "serial"
    shards: int = 1
    #: Per-shard metadata of an engine run (``ShardResult.meta()`` copies:
    #: timings, errors and iterations, no tables).
    shard_results: list = field(default_factory=list)
    #: Total synthesized rows; authoritative when ``data`` is ``None``.
    n_records: int | None = None

    @property
    def records_per_second(self) -> float:
        """Synthesis throughput (0 when the run was not timed)."""
        if self.seconds <= 0:
            return 0.0
        n = self.n_records
        if n is None:
            n = 0 if self.data is None else self.data.shape[0]
        return n / self.seconds


def run_gum(
    data: np.ndarray,
    targets: list,
    attrs: tuple,
    domain: Domain,
    config: GumConfig | None = None,
    rng: np.random.Generator | int | None = None,
    kernel: GumKernel | None = None,
) -> GumResult:
    """Run GUM starting from ``data`` (modified in place and returned).

    ``targets`` are post-processed noisy marginals; they are rescaled to the
    row count of ``data`` internally.  ``kernel`` is the update-step
    implementation; ``None`` means a fresh ``FusedKernel()``.
    """
    config = config or GumConfig()
    rng = ensure_rng(rng)
    data = np.asarray(data, dtype=np.int32)
    n = data.shape[0]
    if n == 0 or not targets:
        return GumResult(data=data, errors=[], iterations_run=0)
    if kernel is None:
        kernel = FusedKernel()
    elif not isinstance(kernel, GumKernel):
        raise TypeError(f"kernel must be a GumKernel instance, got {kernel!r}")

    timer = Timer()
    timer.start()
    states = []
    for m in targets:
        axes = np.array([attrs.index(a) for a in m.attrs])
        shape = domain.shape(m.attrs)
        flat_target = np.clip(m.flat(), 0.0, None)
        total = flat_target.sum()
        scale = n / total if total > 0 else 0.0
        states.append(_MarginalState(axes, shape, flat_target * scale))
    kernel.prepare(data, states)

    errors: list[float] = []
    stall = 0
    best = np.inf
    iterations_run = 0
    for t in range(config.iterations):
        alpha = config.alpha * config.alpha_decay**t
        order = rng.permutation(len(states))
        iter_errors = []
        for k in order:
            iter_errors.append(kernel.step(data, states, k, alpha, config, rng))
        mean_err = float(np.mean(iter_errors))
        errors.append(mean_err)
        iterations_run = t + 1
        if best - mean_err < config.tol:
            stall += 1
            if stall >= config.patience:
                break
        else:
            stall = 0
        best = min(best, mean_err)
    return GumResult(
        data=data,
        errors=errors,
        iterations_run=iterations_run,
        seconds=timer.stop(),
    )

