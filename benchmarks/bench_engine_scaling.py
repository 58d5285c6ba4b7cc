"""Engine scaling: sampling-phase records/sec across shard counts/backends.

The sampling phase is pure post-processing, so sharding it spends no extra
privacy budget (paper §3.4) — this benchmark records what that buys in
throughput.  The serial single-shard baseline is the legacy pre-engine
implementation bit for bit; every configuration runs the ``auto`` (fused) GUM
kernel, so the grid isolates what parallel shards add.

Acceptance gates (full scale, >= 20k synthesized records):

- process-4 shows >= 1.5x sampling-phase speedup over the serial backend;
- the ``fused`` kernel (what ``auto`` runs) shows >= 3x single-shard
  speedup over the ``reference`` kernel (the kernel dimension of the
  benchmark);
- single-shard serial output is bit-identical to the pre-refactor
  ``sample()`` for the pinned golden workload;
- backends are interchangeable: same seed + shard count => same digest;
- kernels are interchangeable: both kernel rows report the same digest.

Smoke mode (REPRO_BENCH_SMOKE=1, used by CI) shrinks the workload and skips
the speedup gates — parallel overhead dominates at toy sizes (the digest
gates still run).

Runnable standalone: ``python benchmarks/bench_engine_scaling.py [out.json]``.
"""

import json
import os
import sys

from conftest import SMOKE, attach, fmt

from repro.experiments import engine_scaling
from repro.experiments.runner import ExperimentScale

#: Full-scale default: the ToN-style 50k-record workload of the acceptance
#: criteria; smoke mode drops to 2k so CI stays fast.
DEFAULT_RECORDS = 2_000 if SMOKE else 50_000

#: Below this many synthesized records, parallel overhead dominates and the
#: speedup assertion is skipped (the numbers are still recorded).
FULL_SCALE_THRESHOLD = 20_000


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        return default


def engine_scale() -> ExperimentScale:
    return ExperimentScale(
        n_records=_env_int("REPRO_BENCH_ENGINE_RECORDS", DEFAULT_RECORDS),
        seed=_env_int("REPRO_BENCH_SEED", 0),
    )


def run_and_check(scale: ExperimentScale) -> dict:
    repetitions = 1 if SMOKE else _env_int("REPRO_BENCH_ENGINE_REPS", 1)
    result = engine_scaling.run(scale, repetitions=repetitions)
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

    # Single-shard serial output is bit-identical to the pre-refactor sample().
    assert result["bit_identity"]["matches"], result["bit_identity"]

    # Backends only move work: same seed + shard count => identical traces.
    assert rows["serial-1"]["digest"] == rows["process-1"]["digest"]
    assert rows["serial-2"]["digest"] == rows["process-2"]["digest"]

    # Kernels only change speed: every kernel must emit identical traces
    # (and, on the auto kernel, match the backend grid's single-shard row).
    kernel_digests = {row["digest"] for row in kernel_rows.values()}
    assert len(kernel_digests) == 1, {k: r["digest"] for k, r in kernel_rows.items()}
    assert rows["serial-1"]["digest"] in kernel_digests

    if result["n_synthesized"] >= FULL_SCALE_THRESHOLD:
        if (os.cpu_count() or 1) >= 2:
            # The serial baseline now runs the fast auto kernel too, so this
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
    return result


def test_engine_scaling(benchmark):
    scale = engine_scale()
    result = benchmark.pedantic(
        lambda: run_and_check(scale), rounds=1, iterations=1, warmup_rounds=0
    )
    attach(benchmark, result)


if __name__ == "__main__":
    payload = run_and_check(engine_scale())
    out_path = sys.argv[1] if len(sys.argv) > 1 else None
    text = json.dumps(payload, indent=2, default=float)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {out_path}")
    else:
        print(text)
