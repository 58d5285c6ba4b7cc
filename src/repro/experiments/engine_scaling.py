"""Engine scaling: sampling-phase throughput across shard counts and backends.

Record synthesis is pure post-processing (paper §3.4): the privacy budget is
fully spent at publication time, so the GUM sampling loop can be sharded and
parallelized freely.  This experiment fits one NetDPSyn model on a ToN-style
workload, then times ``sample()`` under each engine configuration and reports
records/second plus the speedup over the serial baseline.  The serial
single-shard baseline is the legacy (pre-engine) implementation bit for bit,
so the speedups quantify exactly what the engine adds.

Timings are the engine's own sampling-phase instrumentation
(:attr:`GumResult.seconds` covers initialization + GUM across all shards);
decoding is identical in every configuration and excluded.
"""

from __future__ import annotations

from repro.core import NetDPSyn, SynthesisConfig
from repro.datasets import load_dataset
from repro.experiments.runner import ExperimentScale

#: (backend, shards) grid reported by the benchmark, in column order.
DEFAULT_GRID = (
    ("serial", 1),
    ("process", 1),
    ("serial", 2),
    ("process", 2),
    ("process", 4),
)

#: Kernels timed on the single-shard serial configuration (the kernel
#: dimension of the benchmark).
TIMED_KERNELS = ("fused", "reference")

#: SHA-256 of the trace the PRE-ENGINE ``sample()`` produces for the pinned
#: workload of :func:`verify_bit_identity` (captured from the seed repo with
#: the marginal-combination order made deterministic).  The engine's
#: single-shard path must keep reproducing it bit for bit.
PRE_REFACTOR_GOLDEN = "4a64762ef8c2fc6ca8fd194d44af15be7c34c09213662866c853880dac4f3e4b"


def _fit(n_records: int, seed: int, epsilon: float, delta: float, iterations: int):
    table = load_dataset("ton", n_records=n_records, seed=seed)
    config = SynthesisConfig(epsilon=epsilon, delta=delta)
    config.gum.iterations = iterations
    synthesizer = NetDPSyn(config, rng=seed + 1).fit(table)
    synthesizer.plan()  # build outside the timed region
    return synthesizer


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


def run(
    scale: ExperimentScale | None = None,
    n_synth: int | None = None,
    grid=DEFAULT_GRID,
    kernels: tuple | None = None,
    repetitions: int = 1,
    check_bit_identity: bool = True,
) -> dict:
    """Time the sampling phase for every engine configuration in ``grid``.

    ``n_synth`` defaults to the fit size.  With ``repetitions > 1`` the best
    (minimum) time per configuration is reported, benchmark-style.

    Two dimensions are reported:

    - ``rows``: the (backend, shards) grid, run on the ``auto`` kernel;
    - ``kernel_rows``: every kernel in ``kernels`` (default:
      :data:`TIMED_KERNELS`) on the single-shard serial configuration — the
      single-core comparison the kernel speedup gate reads.  The kernels are
      bit-identical, so every kernel row must report the same digest.
    """
    scale = scale or ExperimentScale()
    n = n_synth if n_synth is not None else scale.n_records
    synthesizer = _fit(
        scale.n_records, scale.seed, scale.epsilon, scale.delta, scale.gum_iterations
    )

    def time_config(shards: int, backend: str, kernel: str | None) -> dict:
        seconds = None
        digest = None
        for _ in range(max(repetitions, 1)):
            out = synthesizer.sample(
                n, rng=scale.seed + 101, shards=shards, backend=backend, kernel=kernel
            )
            elapsed = synthesizer.gum_result.seconds
            if seconds is None or elapsed < seconds:
                seconds = elapsed
            digest = out.content_digest()
        return {
            "backend": backend,
            "shards": shards,
            "kernel": synthesizer.gum_result.kernel,
            "seconds": seconds,
            "records_per_second": n / seconds if seconds > 0 else float("inf"),
            "digest": digest,
        }

    rows = {}
    for backend, shards in grid:
        rows[f"{backend}-{shards}"] = time_config(shards, backend, None)

    baseline = rows["serial-1"]["seconds"] if "serial-1" in rows else None
    for row in rows.values():
        row["speedup_vs_serial"] = (
            baseline / row["seconds"] if baseline and row["seconds"] > 0 else None
        )

    kernel_rows = {}
    for kernel in TIMED_KERNELS if kernels is None else kernels:
        kernel_rows[kernel] = time_config(1, "serial", kernel)
    ref = kernel_rows.get("reference", {}).get("seconds")
    for row in kernel_rows.values():
        row["speedup_vs_reference"] = (
            ref / row["seconds"] if ref and row["seconds"] > 0 else None
        )

    result = {
        "n_records_fit": scale.n_records,
        "n_synthesized": n,
        "gum_iterations": scale.gum_iterations,
        "repetitions": repetitions,
        "rows": rows,
        "kernel_rows": kernel_rows,
    }
    if check_bit_identity:
        result["bit_identity"] = verify_bit_identity()
    return result
