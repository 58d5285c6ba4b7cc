"""fit-ton: fit generated ToN flows at epsilon=2, then release serially in memory.

The one workload where the fit pipeline (and within it, binning) does most
of the work.  Each operation fits a fresh model on the same generated table
and releases ``N_RELEASE`` records with ``sample(n, rng=seed)``; every
release must reproduce the digest pinned before the timed loop.
"""

from __future__ import annotations

import statistics
import time

import inputs
from harness import Outcome, Spans, metric, peak_rss_mb, summarize_latencies
from layers import FIT_STAGES, RELEASE_LAYERS, decomposed_release, release_metrics
from layers import timed_fit_stages

N_FIT = 200_000
N_RELEASE = 20_000
#: Records of the warm-up fit + release that set-up ends with.
N_WARM = 20_000
SETUP_REPS = 5


def _setup(seed: int):
    table = inputs.table("ton", N_FIT, seed)
    warm = inputs.fit(inputs.table("ton", N_WARM, seed))
    warm.sample(N_WARM // 10, rng=seed)
    return table


def _cycle(table, seed: int) -> tuple:
    """One untraced fit + release: ``(fit s, release s, digest)``."""
    start = time.perf_counter()
    synth = inputs.fit(table)
    fitted = time.perf_counter()
    trace = synth.sample(N_RELEASE, rng=seed)
    released = time.perf_counter()
    return fitted - start, released - fitted, trace.content_digest()


def _traced_cycle(table, seed: int, spans: Spans) -> tuple:
    """The same cycle with the fit stages and release layers timed."""
    start = time.perf_counter()
    with timed_fit_stages(spans):
        synth = inputs.fit(table)
    fitted = time.perf_counter()
    trace = decomposed_release(synth, N_RELEASE, seed, spans)
    released = time.perf_counter()
    spans.add("fit.wall_s", start, fitted - start)
    spans.add("release.wall_s", fitted, released - fitted)
    report = synth.fit_report
    spans.count("fit.n_pairs", report.n_pairs)
    spans.count("fit.n_marginals", report.n_marginals)
    spans.count("fit.published_cells", sum(m.n_cells for m in synth.published))
    return released - start, trace.content_digest()


def run(seed: int, seconds: float, trace: bool, work, log) -> tuple:
    table, setup_s = inputs.repeat_setup(
        lambda: _setup(seed), lambda _: None, 1 if trace else SETUP_REPS
    )
    outcome = Outcome()
    # The oracle: the public single-shard release of a model fitted once.
    pin = inputs.fit(table).sample(N_RELEASE, rng=seed).content_digest()
    if not trace:
        fits, releases = [], []
        start = time.perf_counter()
        while not fits or time.perf_counter() - start < seconds:
            fit_s, release_s, digest = _cycle(table, seed)
            outcome.check(digest == pin, "release digest differs from the pinned digest")
            fits.append(fit_s)
            releases.append(release_s)
        fit_lat = summarize_latencies(fits)
        log(f"fit-ton: {len(fits)} fit+release cycles, fit p50 {fit_lat['p50_ms']:.0f} ms")
        return outcome, {
            "setup_s": metric(statistics.median(setup_s), "s"),
            "throughput_per_s": metric(N_RELEASE / statistics.median(releases), "1/s"),
            "latency_p50_ms": metric(fit_lat["p50_ms"], "ms"),
            "peak_rss_mb": metric(peak_rss_mb(), "MiB"),
        }

    # Traced run: alternate untraced and traced cycles so both see the same
    # machine state; their ratio is the tracing overhead.
    spans = Spans()
    plain, plain_fits, traced = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        fit_s, release_s, digest = _cycle(table, seed)
        outcome.check(digest == pin, "untraced release digest differs from the pin")
        plain.append(fit_s + release_s)
        plain_fits.append(fit_s)
        wall, digest = _traced_cycle(table, seed, spans)
        outcome.check(digest == pin, "decomposed release digest differs from the pin")
        traced.append(wall)
    cycles = len(traced)
    fit_wall = spans.total("fit.wall_s") / cycles
    release_wall = spans.total("release.wall_s") / cycles
    layers = {f"fit.{name}_s": spans.total(f"fit.{name}_s") / cycles for name in FIT_STAGES}
    staged = sum(layers.values())
    layers.update(
        {
            "fit.unattributed_s": fit_wall - staged,
            "fit.stage_coverage": staged / fit_wall,
            "fit.n_pairs": spans.counts["fit.n_pairs"] / cycles,
            "fit.n_marginals": spans.counts["fit.n_marginals"] / cycles,
            "fit.published_cells": spans.counts["fit.published_cells"] / cycles,
        }
    )
    layers.update(release_metrics(spans, cycles))
    layers["release.layer_coverage"] = sum(layers[n] for n in RELEASE_LAYERS) / release_wall
    layers["trace_overhead"] = statistics.median(traced) / statistics.median(plain)
    layers["latency_tail_ms"] = summarize_latencies(plain_fits)["tail_ms"]
    log(f"fit-ton: fit {fit_wall:.3f} s, serial release {release_wall:.3f} s per cycle")
    return outcome, layers
