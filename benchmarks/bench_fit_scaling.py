"""Fit scaling: private-phase marginal throughput across exact-count executors.

The fit hot path — the InDif scan over all d(d-1)/2 pairs plus the published
contingency tables — is deterministic exact-count work, so it fans out
across ``config.fit_engine`` workers while every noise draw stays serial on
the fit stream; fits are bit-identical whatever the executor.  This
benchmark records what that buys on a wide (12-encoded-attribute, 66-pair)
ToN workload at paper scale (1M records), using the per-stage
instrumentation in ``synth.fit_report``.

Acceptance gates (full scale, >= 500k fit records):

- process-4 shows >= 1.5x marginal-phase (selection + publish stage) speedup
  over the serial reference fit;
- the serial fit reproduces the pre-refactor published-marginal golden
  digest bit for bit;
- every executor configuration publishes the identical digest;
- a save()/load() round trip samples bit-identically to the fitted instance.

Smoke mode (REPRO_BENCH_SMOKE=1, used by CI) shrinks the workload and skips
the speedup gate — parallel overhead dominates at toy sizes.

Runnable standalone: ``python benchmarks/bench_fit_scaling.py [out.json]``.
"""

import os
import tempfile

from conftest import SMOKE, _env_int, attach, dump, fmt

from repro.core import NetDPSyn, SynthesisConfig
from repro.datasets import load_dataset
from repro.engine import EngineConfig
from repro.experiments.goldens import FIT_GOLDEN, published_digest
from repro.experiments.runner import ExperimentScale

#: Full-scale default: wide-workload fit at 1M records (the paper's largest
#: trace size); smoke mode drops to 2k so CI stays fast.
DEFAULT_RECORDS = 2_000 if SMOKE else 1_000_000

#: Below this many fit records, executor overhead dominates the marginal
#: phase and the speedup assertion is skipped (numbers still recorded).
FULL_SCALE_THRESHOLD = 500_000

#: (row key, backend, workers) grid; backend ``None`` is the inline serial
#: path (``fit_engine=None``: the batched cell-code kernel in-process), the
#: baseline every speedup is measured against.
GRID = (
    ("serial", None, None),
    ("process-2", "process", 2),
    ("process-4", "process", 4),
)


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
    return {"digest": digest, "golden": FIT_GOLDEN, "matches": digest == FIT_GOLDEN}


def verify_save_load_identity(synthesizer: NetDPSyn, n: int = 500, seed: int = 9) -> dict:
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
    return {"original": original, "restored": restored, "matches": original == restored}


def measure(scale: ExperimentScale, repetitions: int) -> dict:
    """Fit the ToN workload under every executor in :data:`GRID`; time the stages.

    Each row keeps the fit with the fastest marginal phase (selection +
    publish stage wall clock, from ``synth.fit_report``) over
    ``repetitions``.  Every fit uses the same seed, so the published digests
    must all be identical.
    """
    table = load_dataset("ton", n_records=scale.n_records, seed=scale.seed)
    rows = {}
    for key, backend, workers in GRID:
        engine = None if backend is None else EngineConfig(backend=backend, max_workers=workers)
        fits = []
        for _ in range(max(repetitions, 1)):
            config = SynthesisConfig(epsilon=scale.epsilon, delta=scale.delta, fit_engine=engine)
            config.gum.iterations = scale.gum_iterations
            last_fit = NetDPSyn(config, rng=scale.seed + 1).fit(table)
            report = last_fit.fit_report
            fits.append(
                {
                    "marginal_seconds": report.stage_seconds["selection"]
                    + report.stage_seconds["publish"],
                    "fit_seconds": report.total_seconds,
                    "fit_report": report.as_dict(),
                }
            )
        best = min(fits, key=lambda fit: fit["marginal_seconds"])
        rows[key] = {
            "backend": backend,
            "workers": workers,
            "marginal_seconds": best["marginal_seconds"],
            "fit_seconds": best["fit_seconds"],
            "digest": published_digest(last_fit.published),
            "fit_report": best["fit_report"],
        }

    baseline = rows["serial"]
    for row in rows.values():
        row["marginal_speedup"] = baseline["marginal_seconds"] / row["marginal_seconds"]
        row["fit_speedup"] = baseline["fit_seconds"] / row["fit_seconds"]

    return {
        "dataset": "ton",
        "n_records": scale.n_records,
        "n_attributes": len(last_fit.encoder.schema.names),
        "n_pairs": last_fit.fit_report.n_pairs,
        "repetitions": repetitions,
        "rows": rows,
        "fit_identity": verify_fit_identity(),
        "save_load": verify_save_load_identity(last_fit),
    }


def fit_scale() -> ExperimentScale:
    return ExperimentScale(
        n_records=_env_int("REPRO_BENCH_FIT_RECORDS", DEFAULT_RECORDS),
        seed=_env_int("REPRO_BENCH_SEED", 0),
    )


def run_and_check(scale: ExperimentScale) -> dict:
    repetitions = 1 if SMOKE else _env_int("REPRO_BENCH_FIT_REPS", 3)
    result = measure(scale, repetitions)
    rows = result["rows"]

    for key, row in rows.items():
        print(
            f"[fit] {key:<10s} marginal={fmt(row['marginal_seconds'])}s "
            f"fit={fmt(row['fit_seconds'])}s  "
            f"speedup={fmt(row['marginal_speedup'])} "
            f"(fit {fmt(row['fit_speedup'])})"
        )
    print(f"[fit] golden fit identity: {result['fit_identity']['matches']}")
    print(f"[fit] save/load round trip: {result['save_load']['matches']}")

    # Serial fit output is bit-identical to the pre-refactor pipeline.
    assert result["fit_identity"]["matches"], result["fit_identity"]

    # Executors only move exact-count work: every config publishes the same
    # marginals bit for bit.
    digests = {row["digest"] for row in rows.values()}
    assert len(digests) == 1, {k: r["digest"] for k, r in rows.items()}

    # Fit-once/sample-anywhere: the persisted model samples identically.
    assert result["save_load"]["matches"], result["save_load"]

    if result["n_records"] >= FULL_SCALE_THRESHOLD:
        speedup = rows["process-4"]["marginal_speedup"]
        assert speedup >= 1.5, (
            f"process-4 marginal-phase speedup {speedup:.2f}x < 1.5x over serial"
        )
    return result


def test_fit_scaling(benchmark):
    scale = fit_scale()
    result = benchmark.pedantic(
        lambda: run_and_check(scale), rounds=1, iterations=1, warmup_rounds=0
    )
    attach(benchmark, result)


if __name__ == "__main__":
    dump(run_and_check(fit_scale()))
