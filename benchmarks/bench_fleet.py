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

The cluster is *warmed* before timing (one small release ships the pickled
plan to every worker), so the timed rows measure the steady-state release
path — the fleet's unit of work — not one-time plan shipment, matching how
the process backends are measured against a warm ``open()``-ed pool.

Smoke mode (REPRO_BENCH_SMOKE=1, used by CI) shrinks the workload and skips
the perf gate — worker startup and plan shipment dominate at toy sizes —
while still exercising the full coordinator/worker protocol end to end.

Runnable standalone: ``python benchmarks/bench_fleet.py [out.json]``.
"""

import os

from conftest import SMOKE, _env_int, attach, best_of, dump, fit_ton, fmt

from repro.experiments.runner import ExperimentScale
from repro.fleet import LocalCluster

#: Full-scale default mirrors the stream bench's release workload; smoke
#: drops to 2k so CI stays fast.
DEFAULT_RECORDS = 2_000 if SMOKE else 200_000

#: Below this many synthesized records, worker startup and plan shipment
#: dominate the release and the speedup gate is skipped.
FULL_SCALE_THRESHOLD = 10_000

#: Minimum 4-worker speedup over serial at full scale.
SPEEDUP_GATE = 1.5

#: Worker counts for the scaling rows; the gate reads the 4-worker row.
WORKERS = (2, 4)

#: Shards per release: enough to keep every 4-worker slot busy twice over.
SHARDS = 8


def measure(scale: ExperimentScale, repetitions: int) -> dict:
    """Fleet release throughput vs the serial baseline at the same shard count.

    ``n_synthesized`` equals the fit size.  Every fleet release, at every
    worker count and repetition, must reproduce the serial digest.
    """
    n = scale.n_records
    synthesizer = fit_ton(scale)
    seed = scale.seed + 101

    def release(backend: str):
        return synthesizer.sample(n, rng=seed, shards=SHARDS, backend=backend)

    serial_seconds, traces = best_of(repetitions, lambda: release("serial"))
    (serial_digest,) = {trace.content_digest() for trace in traces}  # reps must agree
    del traces
    rows = {
        "serial-1": {
            "backend": "serial",
            "workers": 1,
            "shards": SHARDS,
            "seconds": serial_seconds,
            "records_per_second": n / serial_seconds if serial_seconds > 0 else None,
            "bit_identical": True,
        }
    }

    for count in WORKERS:
        with LocalCluster(workers=count):
            # Warm the fleet: ships the pickled plan to every worker once.
            synthesizer.sample(min(n, 1000), rng=seed + 1, shards=count, backend="fleet")
            seconds, traces = best_of(repetitions, lambda: release("fleet"))
        digests = {trace.content_digest() for trace in traces}
        del traces
        assert digests == {serial_digest}, (
            f"fleet release at {count} workers diverged from serial: "
            f"{digests} != {serial_digest}"
        )
        rows[f"local{count}"] = {
            "backend": "fleet",
            "workers": count,
            "shards": SHARDS,
            "seconds": seconds,
            "records_per_second": n / seconds if seconds > 0 else None,
            "speedup_vs_serial": serial_seconds / seconds if seconds > 0 else None,
            "bit_identical": True,
        }

    gate_row = rows[f"local{max(WORKERS)}"]
    return {
        "n_records_fit": scale.n_records,
        "n_synthesized": n,
        "shards": SHARDS,
        "repetitions": repetitions,
        "serial_digest": serial_digest,
        "rows": rows,
        "bit_identical": True,  # every fleet release is asserted above
        "measure": {
            "records_per_second": gate_row["records_per_second"],
            "speedup_vs_serial": gate_row["speedup_vs_serial"],
            "workers": gate_row["workers"],
        },
        "cpu_count": os.cpu_count(),
    }


def fleet_scale() -> ExperimentScale:
    return ExperimentScale(
        n_records=_env_int("REPRO_BENCH_FLEET_RECORDS", DEFAULT_RECORDS),
        seed=_env_int("REPRO_BENCH_SEED", 0),
    )


def run_and_check(scale: ExperimentScale) -> dict:
    repetitions = 1 if SMOKE else _env_int("REPRO_BENCH_FLEET_REPS", 2)
    result = measure(scale, repetitions)

    for key, row in result["rows"].items():
        speedup = row.get("speedup_vs_serial")
        print(
            f"[fleet] {key:<10s} {fmt(row['seconds'])}s  "
            f"{row['records_per_second']:>10.0f} rec/s  "
            f"workers={row['workers']}  speedup={fmt(speedup)}"
        )

    # Digest identity holds at every scale: measure() asserts each fleet
    # release against the serial digest.
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
    dump(run_and_check(fleet_scale()))
