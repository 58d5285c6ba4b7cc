"""Engine scaling: sampling-phase records/sec across shard counts/backends.

The sampling phase is pure post-processing, so sharding it spends no extra
privacy budget (paper §3.4) — this benchmark records what that buys in
throughput.  The serial single-shard baseline is the legacy pre-engine
implementation bit for bit; every grid configuration runs the ``fused`` GUM
kernel, as every release does, so the grid isolates what parallel shards add.

Acceptance gates (full scale, >= 20k synthesized records):

- process-4 shows >= 1.5x sampling-phase speedup over the serial backend;
- the ``fused`` kernel shows >= 3x single-shard speedup over the
  ``reference`` oracle, which the benchmark rebinds into
  ``repro.engine.plan`` for its row (the kernel dimension of the
  benchmark);
- single-shard serial output is bit-identical to the pre-refactor
  ``sample()`` for the pinned golden workload;
- backends are interchangeable: same seed + shard count => same digest;
- kernels are interchangeable: both kernel rows report the same digest.

Smoke mode (REPRO_BENCH_SMOKE=1, used by CI) shrinks the workload and skips
the speedup gates — parallel overhead dominates at toy sizes (the digest
gates still run).

Runnable standalone: ``python benchmarks/bench_engine_scaling.py [out.json]``;
the JSON is written before the gates run, and a failed gate exits non-zero.
"""

import os
from contextlib import contextmanager, nullcontext

from conftest import SMOKE, _env_int, attach, best_of, dump, fit_ton, fmt

import repro.engine.plan as plan_module
from repro.core import NetDPSyn, SynthesisConfig
from repro.datasets import load_dataset
from repro.experiments.goldens import PRE_REFACTOR_GOLDEN
from repro.experiments.runner import ExperimentScale
from repro.synthesis.gum import run_gum
from repro.synthesis.kernels import ReferenceKernel

#: Full-scale default: the ToN-style 50k-record workload of the acceptance
#: criteria; smoke mode drops to 2k so CI stays fast.
DEFAULT_RECORDS = 2_000 if SMOKE else 50_000

#: Below this many synthesized records, parallel overhead dominates and the
#: speedup assertion is skipped (the numbers are still recorded).
FULL_SCALE_THRESHOLD = 20_000

#: (backend, shards) grid, in column order; every row runs the fused kernel.
GRID = (
    ("serial", 1),
    ("process", 1),
    ("serial", 2),
    ("process", 2),
    ("process", 4),
)

#: Kernels timed on the single-shard serial configuration (the kernel
#: dimension of the benchmark).
TIMED_KERNELS = ("fused", "reference")


@contextmanager
def reference_kernel():
    """Make every release in the block step GUM with the reference oracle.

    ``run_shard`` passes ``kernel=FusedKernel()`` explicitly, so the stand-in
    replaces that argument instead of binding a default for it.
    """

    def reference_gum(*args, kernel=None, **kwargs):
        return run_gum(*args, kernel=ReferenceKernel(), **kwargs)

    original = plan_module.run_gum
    plan_module.run_gum = reference_gum
    try:
        yield
    finally:
        plan_module.run_gum = original


def verify_bit_identity() -> dict:
    """Check the engine's serial path against the pre-engine golden digest.

    Runs the exact workload the golden was captured on (ton n=2500 seed=31,
    eps=2.0, 15 GUM iterations, fit rng=7, ``sample(2000, rng=123)``).
    """
    table = load_dataset("ton", n_records=2500, seed=31)
    config = SynthesisConfig(epsilon=2.0)
    config.gum.iterations = 15
    synthesizer = NetDPSyn(config, rng=7).fit(table)
    digest = synthesizer.sample(2000, rng=123).content_digest()
    return {
        "digest": digest,
        "golden": PRE_REFACTOR_GOLDEN,
        "matches": digest == PRE_REFACTOR_GOLDEN,
    }


def measure(scale: ExperimentScale, repetitions: int) -> dict:
    """Time the sampling phase for every grid row and every timed kernel.

    A row's time is the engine's own sampling-phase instrumentation
    (:attr:`GumResult.seconds`: initialization + GUM across all shards, best
    of ``repetitions``); decoding is identical in every configuration and
    excluded.  ``n_synthesized`` equals the fit size.  One untimed
    ``serial-1`` sample runs first, so the baseline every
    ``speedup_vs_serial`` divides by carries no warm-up.
    """
    n = scale.n_records
    synthesizer = fit_ton(scale)

    def time_config(shards: int, backend: str, kernel: str = "fused") -> dict:
        with reference_kernel() if kernel == "reference" else nullcontext():
            seconds, digests = best_of(
                repetitions,
                lambda: synthesizer.sample(
                    n, rng=scale.seed + 101, shards=shards, backend=backend
                ).content_digest(),
                seconds=lambda _: synthesizer.gum_result.seconds,
            )
        return {
            "backend": backend,
            "shards": shards,
            "seconds": seconds,
            "records_per_second": n / seconds if seconds > 0 else float("inf"),
            "digest": digests[-1],
        }

    time_config(1, "serial")  # warm-up, discarded
    rows = {f"{backend}-{shards}": time_config(shards, backend) for backend, shards in GRID}
    baseline = rows["serial-1"]["seconds"]
    for row in rows.values():
        row["speedup_vs_serial"] = baseline / row["seconds"] if row["seconds"] > 0 else None

    kernel_rows = {kernel: time_config(1, "serial", kernel) for kernel in TIMED_KERNELS}
    reference = kernel_rows["reference"]["seconds"]
    for row in kernel_rows.values():
        row["speedup_vs_reference"] = reference / row["seconds"] if row["seconds"] > 0 else None

    return {
        "n_records_fit": scale.n_records,
        "n_synthesized": n,
        "gum_iterations": scale.gum_iterations,
        "repetitions": repetitions,
        "rows": rows,
        "kernel_rows": kernel_rows,
        "bit_identity": verify_bit_identity(),
    }


def engine_scale() -> ExperimentScale:
    return ExperimentScale(
        n_records=_env_int("REPRO_BENCH_ENGINE_RECORDS", DEFAULT_RECORDS),
        seed=_env_int("REPRO_BENCH_SEED", 0),
    )


def run(scale: ExperimentScale) -> dict:
    """Measure the grid and print it; the gates are :func:`check`'s."""
    repetitions = 1 if SMOKE else _env_int("REPRO_BENCH_ENGINE_REPS", 1)
    result = measure(scale, repetitions)
    rows = result["rows"]

    for key, row in rows.items():
        print(
            f"[engine] {key:<10s} {fmt(row['seconds'])}s  "
            f"{row['records_per_second']:>10.0f} rec/s  "
            f"speedup={fmt(row['speedup_vs_serial'])}"
        )
    kernel_rows = result["kernel_rows"]
    for name, row in kernel_rows.items():
        print(
            f"[kernel] {name:<11s} {fmt(row['seconds'])}s  "
            f"{row['records_per_second']:>10.0f} rec/s  "
            f"vs reference={fmt(row['speedup_vs_reference'])}"
        )
    print(f"[engine] bit-identity vs pre-refactor: {result['bit_identity']['matches']}")
    return result


def check(result: dict) -> None:
    """Assert the acceptance gates on a :func:`run` result."""
    rows = result["rows"]
    kernel_rows = result["kernel_rows"]

    # Single-shard serial output is bit-identical to the pre-refactor sample().
    assert result["bit_identity"]["matches"], result["bit_identity"]

    # Backends only move work: same seed + shard count => identical traces.
    assert rows["serial-1"]["digest"] == rows["process-1"]["digest"]
    assert rows["serial-2"]["digest"] == rows["process-2"]["digest"]

    # Kernels only change speed: every kernel must emit identical traces
    # (and match the backend grid's single-shard row).
    kernel_digests = {row["digest"] for row in kernel_rows.values()}
    assert len(kernel_digests) == 1, {k: r["digest"] for k, r in kernel_rows.items()}
    assert rows["serial-1"]["digest"] in kernel_digests

    if result["n_synthesized"] >= FULL_SCALE_THRESHOLD:
        if (os.cpu_count() or 1) >= 2:
            # The serial baseline now runs the fast fused kernel too, so this
            # gate isolates parallelism — meaningless on a single-CPU box.
            speedup = rows["process-4"]["speedup_vs_serial"]
            assert speedup >= 1.5, (
                f"process-4 speedup {speedup:.2f}x < 1.5x over the serial backend"
            )
        else:
            print("[engine] single-CPU machine: parallel speedup gate skipped")
        # The kernel gate is single-core by construction and always applies.
        fused_speedup = kernel_rows["fused"]["speedup_vs_reference"]
        assert fused_speedup >= 3.0, (
            f"fused kernel speedup {fused_speedup:.2f}x < 3.0x over the "
            "reference kernel on the single-shard workload"
        )


def test_engine_scaling(benchmark):
    scale = engine_scale()
    result = benchmark.pedantic(lambda: run(scale), rounds=1, iterations=1, warmup_rounds=0)
    attach(benchmark, result)
    check(result)


if __name__ == "__main__":
    result = run(engine_scale())
    dump(result)  # written before the gates, so a failed gate still leaves it
    check(result)
