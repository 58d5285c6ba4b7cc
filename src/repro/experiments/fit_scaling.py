"""Fit scaling: private-phase throughput across exact-count executors.

The fit hot path is the exact-count work — the InDif scan over all
``d(d-1)/2`` attribute pairs plus the published contingency tables.  Both
are deterministic, so ``config.fit_engine`` can fan the batched cell-code
kernel out across workers while every noise draw stays on the single fit
stream — making parallel fits bit-identical to the serial one
(:data:`FIT_GOLDEN` pins the pre-pipeline output).

This experiment fits one model per executor configuration on the same wide
workload (ToN flows encode to 12 attributes, 66 pairs; ``dataset="caida"``
gives 16 attributes / 120 pairs) with the same fit seed and reports, from
the per-stage instrumentation in ``synth.fit_report``:

- ``marginal_seconds`` — selection + publish stage wall clock, the part the
  executor touches and the number the speedup gate in
  ``benchmarks/bench_fit_scaling.py`` applies to;
- ``fit_seconds`` — end-to-end fit wall clock (Amdahl context: binning and
  consistency are serial);
- the published-marginal digest, asserted identical across configurations.
"""

from __future__ import annotations

import hashlib
import os
import tempfile

import numpy as np

from repro.core import NetDPSyn, SynthesisConfig
from repro.datasets import load_dataset
from repro.engine import EngineConfig
from repro.experiments.runner import ExperimentScale

#: (row key, backend, workers) grid; backend ``None`` is the inline serial
#: path (``fit_engine=None``: the batched cell-code kernel in-process), the
#: baseline every speedup is measured against.
DEFAULT_GRID = (
    ("serial", None, None),
    ("process-2", "process", 2),
    ("process-4", "process", 4),
)

#: SHA-256 of the published marginals the PRE-PIPELINE serial ``fit()``
#: produces for the pinned workload of :func:`verify_fit_identity` (captured
#: from the seed repo before the staged-pipeline refactor).  Serial and
#: executor fits alike must keep reproducing it bit for bit.
FIT_GOLDEN = "a6a8d533b8bbc883d0ebea428cb67587575aced749623177cbff977e2c9b2c6a"


def published_digest(marginals) -> str:
    """Stable content hash of a published-marginal list (order-sensitive)."""
    h = hashlib.sha256()
    for m in marginals:
        h.update(("|".join(m.attrs)).encode())
        h.update(np.ascontiguousarray(m.counts, dtype=np.float64).tobytes())
        h.update(repr((m.rho, m.sigma)).encode())
    return h.hexdigest()


def _config(scale: ExperimentScale, fit_engine: EngineConfig | None) -> SynthesisConfig:
    config = SynthesisConfig(
        epsilon=scale.epsilon, delta=scale.delta, fit_engine=fit_engine
    )
    config.gum.iterations = scale.gum_iterations
    return config


def verify_fit_identity() -> dict:
    """Check the staged pipeline against the pre-refactor fit golden digest.

    Runs the exact workload the golden was captured on (ton n=2500 seed=31,
    eps=2.0, fit rng=7) on the serial path.
    """
    table = load_dataset("ton", n_records=2500, seed=31)
    config = SynthesisConfig(epsilon=2.0)
    config.gum.iterations = 15
    synthesizer = NetDPSyn(config, rng=7).fit(table)
    digest = published_digest(synthesizer.published)
    return {
        "digest": digest,
        "golden": FIT_GOLDEN,
        "matches": digest == FIT_GOLDEN,
    }


def verify_save_load_identity(
    synthesizer: NetDPSyn, n: int = 500, seed: int = 9
) -> dict:
    """Round-trip ``synthesizer`` through save/load; compare fixed-rng samples."""
    fd, path = tempfile.mkstemp(suffix=".ndpsyn")
    os.close(fd)
    try:
        synthesizer.save(path)
        loaded = NetDPSyn.load(path)
        original = synthesizer.sample(n, rng=seed).content_digest()
        restored = loaded.sample(n, rng=seed).content_digest()
    finally:
        os.unlink(path)
    return {
        "original": original,
        "restored": restored,
        "matches": original == restored,
    }


def run(
    scale: ExperimentScale | None = None,
    grid=DEFAULT_GRID,
    repetitions: int = 1,
    dataset: str = "ton",
    check_fit_identity: bool = True,
    check_save_load: bool = True,
) -> dict:
    """Fit under every executor configuration in ``grid``; time the stages.

    With ``repetitions > 1`` the best (minimum) marginal-phase time per
    configuration is reported, benchmark-style.  Every configuration uses the
    same fit seed, so the published digests must all be identical.
    """
    scale = scale or ExperimentScale()
    table = load_dataset(dataset, n_records=scale.n_records, seed=scale.seed)

    rows = {}
    last_fit = None
    for key, backend, workers in grid:
        engine = None if backend is None else EngineConfig(
            backend=backend, max_workers=workers
        )
        marginal_seconds = None
        fit_seconds = None
        digest = None
        report = None
        for _ in range(max(repetitions, 1)):
            synthesizer = NetDPSyn(_config(scale, engine), rng=scale.seed + 1)
            synthesizer.fit(table)
            stage = synthesizer.fit_report.stage_seconds
            marginal = stage["selection"] + stage["publish"]
            if marginal_seconds is None or marginal < marginal_seconds:
                marginal_seconds = marginal
                fit_seconds = synthesizer.fit_report.total_seconds
                report = synthesizer.fit_report.as_dict()
            digest = published_digest(synthesizer.published)
            last_fit = synthesizer
        rows[key] = {
            "backend": backend,
            "workers": workers,
            "marginal_seconds": marginal_seconds,
            "fit_seconds": fit_seconds,
            "digest": digest,
            "fit_report": report,
        }

    baseline = rows.get("serial")
    for row in rows.values():
        row["marginal_speedup"] = (
            baseline["marginal_seconds"] / row["marginal_seconds"]
            if baseline and row["marginal_seconds"] > 0
            else None
        )
        row["fit_speedup"] = (
            baseline["fit_seconds"] / row["fit_seconds"]
            if baseline and row["fit_seconds"] > 0
            else None
        )

    result = {
        "dataset": dataset,
        "n_records": scale.n_records,
        "n_attributes": len(last_fit.encoder.schema.names),
        "n_pairs": last_fit.fit_report.n_pairs,
        "repetitions": repetitions,
        "rows": rows,
    }
    if check_fit_identity:
        result["fit_identity"] = verify_fit_identity()
    if check_save_load:
        result["save_load"] = verify_save_load_identity(last_fit)
    return result
