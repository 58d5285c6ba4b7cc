"""Timing wrappers around the public functions of the fit and release layers.

Nothing under ``src/`` is instrumented: every span here is recorded by the
benchmark around a call into the layer, either by handing the program a
wrapped object (fit stages to ``FitPipeline(stages=...)``, a kernel to
``run_gum(kernel=...)``) or by rebinding a layer function in the module that
calls it for the length of a traced run.
"""

from __future__ import annotations

import time
from contextlib import ExitStack, contextmanager

import numpy as np

import repro.core.synthesizer as synthesizer_module
import repro.engine.plan as plan_module
from repro.data.table import TraceTable
from repro.engine import EngineConfig
from repro.engine.executor import resolve_run_kernel
from repro.pipeline import FitPipeline, default_stages
from repro.synthesis.decode import decode_encoded
from repro.synthesis.gum import run_gum
from repro.synthesis.initialization import marginal_initialization
from repro.synthesis.kernels import GumKernel, get_kernel
from repro.synthesis.timestamps import TSDIFF, reconstruct_timestamps

from harness import Spans, patched

#: Names of the five fit stages, in pipeline order (spans are ``fit.<name>_s``).
FIT_STAGES = ("binning", "selection", "combine", "publish", "consistency")
#: Span names of the four release layers, in call order.
RELEASE_LAYERS = ("release.init_s", "release.gum_s", "release.decode_s", "release.timestamps_s")


class TimedStage:
    """A fit stage that records its ``run`` as a ``fit.<name>_s`` span."""

    def __init__(self, stage, spans: Spans) -> None:
        self.stage = stage
        self.name = stage.name
        self._spans = spans

    def run(self, ctx) -> None:
        with self._spans.span(f"fit.{self.name}_s"):
            self.stage.run(ctx)


@contextmanager
def timed_fit_stages(spans: Spans):
    """Make ``NetDPSyn.fit`` run the default stages wrapped in :class:`TimedStage`."""

    def pipeline():
        return FitPipeline(stages=[TimedStage(s, spans) for s in default_stages()])

    with patched(synthesizer_module, "FitPipeline", pipeline):
        yield


class TimedKernel(GumKernel):
    """Delegates to a resolved kernel and keeps each ``step``'s duration."""

    def __init__(self, inner: GumKernel) -> None:
        self.inner = inner
        self.name = inner.name
        self.uses_cache = inner.uses_cache
        self.step_seconds: list = []

    def prepare(self, data, states) -> None:
        self.inner.prepare(data, states)

    def step(self, data, states, k, alpha, config, rng) -> float:
        start = time.perf_counter()
        try:
            return self.inner.step(data, states, k, alpha, config, rng)
        finally:
            self.step_seconds.append(time.perf_counter() - start)


def timed_run_gum(spans: Spans, gum=run_gum):
    """``run_gum`` recording its span, iterations and every kernel step."""

    def traced(data, targets, attrs, domain, config=None, rng=None, kernel=None):
        if not isinstance(kernel, GumKernel):
            kernel = get_kernel(kernel if kernel is not None else config.update_mode)
        timed = TimedKernel(kernel)
        with spans.span("release.gum_s"):
            result = gum(data, targets, attrs, domain, config, rng, kernel=timed)
        spans.extend("gum.step_s", timed.step_seconds)
        spans.count("gum.iterations", result.iterations_run)
        spans.count("gum.runs")
        return result

    return traced


@contextmanager
def timed_release_layers(spans: Spans):
    """Rebind the release layers where ``SynthesisPlan`` calls them.

    Enter this before a worker pool opens: forked workers inherit the
    rebinding, so shard-side layers are timed too (their spans spool to
    files, see :class:`~harness.Spans`).
    """
    with ExitStack() as stack:
        for name, label in (
            ("marginal_initialization", "release.init_s"),
            ("decode_encoded", "release.decode_s"),
            ("reconstruct_timestamps", "release.timestamps_s"),
        ):
            stack.enter_context(
                patched(plan_module, name, spans.wrap(label, getattr(plan_module, name)))
            )
        stack.enter_context(patched(plan_module, "run_gum", timed_run_gum(spans)))
        yield


def decomposed_release(synth, n: int, seed: int, spans: Spans) -> TraceTable:
    """``synth.sample(n, rng=seed)`` as explicit layer calls on one rng.

    Mirrors the single-shard engine path — initialization, GUM, decode,
    timestamps, schema restore — so its digest must equal ``sample``'s; a
    mismatch means the decomposition no longer covers the release.
    """
    plan = synth.plan()
    rng = np.random.default_rng(seed)
    with spans.span("release.init_s"):
        data = marginal_initialization(
            plan.published,
            plan.one_way,
            plan.attrs,
            plan.domain,
            n,
            key_attr=plan.key_attr,
            n_init=plan.n_init_marginals,
            rng=rng,
        )
    kernel = get_kernel(resolve_run_kernel(plan, EngineConfig()))
    result = timed_run_gum(spans)(
        data, plan.published, plan.attrs, plan.domain, plan.gum, rng, kernel=kernel
    )
    with spans.span("release.decode_s"):
        table = decode_encoded(
            result.data, plan.attrs, plan.codecs, plan.schema, rng, rules=plan.rules
        )
    if TSDIFF in table.schema:
        with spans.span("release.timestamps_s"):
            table = reconstruct_timestamps(
                table,
                tsdiff_codes=result.data[:, plan.attrs.index(TSDIFF)],
                tsdiff_codec=plan.codecs[TSDIFF],
                rng=rng,
            )
    names = plan.original_schema.names
    return TraceTable(plan.original_schema, {name: table.column(name) for name in names})


def release_metrics(spans: Spans, releases: int) -> dict:
    """Synthesis-layer metrics: layer seconds per release, GUM per ``run_gum``."""
    steps = sorted(s * 1000.0 for s in spans.seconds("gum.step_s"))
    runs = max(spans.counts.get("gum.runs", 0.0), 1.0)
    out = {name: spans.total(name) / max(releases, 1) for name in RELEASE_LAYERS}
    out.update(
        {
            "gum.iterations": spans.counts.get("gum.iterations", 0.0) / runs,
            "gum.steps": len(steps) / runs,
            "gum.step_ms_p50": float(np.percentile(steps, 50)) if steps else 0.0,
            "gum.step_ms_p99": float(np.percentile(steps, 99)) if steps else 0.0,
        }
    )
    return out
