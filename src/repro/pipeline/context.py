"""FitContext and FitReport: explicit state threaded through the fit stages.

The private phase used to mutate ``NetDPSyn`` attributes inline; the staged
pipeline instead passes one :class:`FitContext` object from stage to stage so
every input and output of a stage is visible in one place — and so stages can
be tested, reordered, or replaced without touching the synthesizer class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:
    from repro.core.config import SynthesisConfig
    from repro.data.table import TraceTable
    from repro.dp.accountant import BudgetLedger
    from repro.engine.backends import Backend


@dataclass
class FitContext:
    """All state of one ``fit()`` run, threaded through the stages.

    ``rng`` is **the** fit noise stream: every Gaussian draw of the private
    phase happens on it, serially, in a fixed order (attribute order during
    binning, pair order during selection, publication order during publish).
    Exact-count work may run on ``executor`` because it is deterministic —
    that split is the pipeline's reproducibility contract.
    """

    table: "TraceTable"
    config: "SynthesisConfig"
    rng: np.random.Generator
    ledger: "BudgetLedger"
    #: Task executor for exact-count fan-out; ``None`` = the same kernel inline.
    executor: "Backend | None" = None
    #: Per-stage zCDP budgets (:func:`repro.dp.allocation.split_budget`).
    stage_budgets: dict = field(default_factory=dict)
    #: Per-stage wall-clock seconds, filled by :class:`FitPipeline`.
    timings: dict = field(default_factory=dict)

    # Stage outputs (filled in pipeline order).
    encoder: Any = None
    encoded: Any = None
    template: Any = None
    pairs: list | None = None
    indif: dict | None = None
    selection: Any = None
    attr_sets: list | None = None
    raw_published: list | None = None
    published: list | None = None
    rules: list | None = None
    key_attr: str | None = None
    _exact_payload: Any = None

    @property
    def original_schema(self):
        """The raw input schema synthesized records are restored to."""
        return self.table.schema

    def exact_payload(self):
        """The exact-count payload, built once per fit (a view of ``encoded``).

        On first use with a live executor this also :meth:`opens
        <repro.engine.backends.Backend.open>` a persistent worker pool bound
        to the payload, so the selection and publish stages share one worker
        startup; :class:`~repro.pipeline.runner.FitPipeline` closes it.
        """
        from repro.marginals.compute import exact_count_payload

        if self._exact_payload is None:
            self._exact_payload = exact_count_payload(self.encoded)
            if self.executor is not None:
                self.executor.open(self._exact_payload)
        return self._exact_payload


@dataclass(frozen=True)
class FitReport:
    """Per-stage instrumentation of one ``fit()`` run (pure observability)."""

    #: Stage name -> wall-clock seconds, in execution order.
    stage_seconds: dict
    #: End-to-end ``fit()`` wall-clock seconds (>= sum of the stages).
    total_seconds: float
    #: Executor backend name for exact-count work; ``None`` = inline serial.
    backend: str | None
    #: Executor worker count; ``None`` = inline serial.
    workers: int | None
    n_records: int
    n_pairs: int
    n_marginals: int

    def as_dict(self) -> dict:
        """Plain-dict rendering (JSON-friendly, used by benchmarks)."""
        return {
            "stage_seconds": dict(self.stage_seconds),
            "total_seconds": self.total_seconds,
            "backend": self.backend,
            "workers": self.workers,
            "n_records": self.n_records,
            "n_pairs": self.n_pairs,
            "n_marginals": self.n_marginals,
        }

    def lines(self) -> list[str]:
        """Human-readable per-stage breakdown (experiments verbose mode)."""
        where = "inline" if self.backend is None else f"{self.backend}x{self.workers}"
        out = [
            f"fit: {self.total_seconds:.3f}s total on {where} "
            f"({self.n_records} records, {self.n_pairs} pairs, "
            f"{self.n_marginals} marginals)"
        ]
        for name, seconds in self.stage_seconds.items():
            out.append(f"  {name:<12s} {seconds:8.3f}s")
        return out
