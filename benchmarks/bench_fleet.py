"""Fleet release: multi-worker records/sec, digest-identity with single-node.

One release fanned across a :class:`~repro.fleet.LocalCluster` must be
*faster* than serial and *bit-identical* to it.  This benchmark records the
first and gates both:

- digest identity is asserted at **every** scale (smoke included, every
  worker count, every repetition) — the experiment itself raises on any
  divergence;
- at full scale (>= 10k synthesized records) on a machine with >= 4 CPUs,
  the 4-worker LocalCluster release must show >= 1.5x speedup over the
  serial baseline at the same shard count (the same bar the process-backend
  stream gate sets: below that the fan-out is not paying for its transport);
- ``fleet.local4.records_per_second`` is gated against the committed
  baseline by ``compare_baselines.py``.

Smoke mode (REPRO_BENCH_SMOKE=1, used by CI) shrinks the workload and skips
the perf gate — worker startup and plan shipment dominate at toy sizes —
while still exercising the full coordinator/worker protocol end to end.

Runnable standalone: ``python benchmarks/bench_fleet.py [out.json]``.
"""

import json
import os
import sys

from conftest import SMOKE, attach, fmt

from repro.experiments import fleet
from repro.experiments.runner import ExperimentScale

#: Full-scale default mirrors the stream bench's release workload; smoke
#: drops to 2k so CI stays fast.
DEFAULT_RECORDS = 2_000 if SMOKE else 200_000

#: Below this many synthesized records, worker startup and plan shipment
#: dominate the release and the speedup gate is skipped.
FULL_SCALE_THRESHOLD = 10_000

#: Minimum 4-worker speedup over serial at full scale.
SPEEDUP_GATE = 1.5


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        return default


def fleet_scale() -> ExperimentScale:
    return ExperimentScale(
        n_records=_env_int("REPRO_BENCH_FLEET_RECORDS", DEFAULT_RECORDS),
        seed=_env_int("REPRO_BENCH_SEED", 0),
    )


def run_and_check(scale: ExperimentScale) -> dict:
    repetitions = 1 if SMOKE else _env_int("REPRO_BENCH_FLEET_REPS", 2)
    result = fleet.run_release(scale, repetitions=repetitions)

    for key, row in result["rows"].items():
        speedup = row.get("speedup_vs_serial")
        print(
            f"[fleet] {key:<10s} {fmt(row['seconds'])}s  "
            f"{row['records_per_second']:>10.0f} rec/s  "
            f"workers={row['workers']}  speedup={fmt(speedup)}"
        )

    # Digest identity holds at every scale: the experiment asserts each
    # fleet release against the serial digest, and reports the conjunction.
    assert result["bit_identical"], result["rows"]

    if result["n_synthesized"] >= FULL_SCALE_THRESHOLD:
        if (os.cpu_count() or 1) >= 4:
            speedup = result["measure"]["speedup_vs_serial"]
            assert speedup is not None and speedup >= SPEEDUP_GATE, (
                f"fleet local4 release speedup {speedup:.2f}x < "
                f"{SPEEDUP_GATE}x over serial"
            )
        else:
            # Fewer hardware threads than workers: the release would measure
            # the machine's oversubscription, not the fleet's transport.
            print("[fleet] < 4 CPUs: fleet speedup gate skipped")
    return result


def test_fleet_release(benchmark):
    scale = fleet_scale()
    result = benchmark.pedantic(
        lambda: run_and_check(scale), rounds=1, iterations=1, warmup_rounds=0
    )
    attach(benchmark, result)


if __name__ == "__main__":
    payload = run_and_check(fleet_scale())
    out_path = sys.argv[1] if len(sys.argv) > 1 else None
    text = json.dumps(payload, indent=2, default=float)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {out_path}")
    else:
        print(text)
