"""Streaming engine: end-to-end records/sec and peak-RSS across backends.

The release phase (GUM + decode + write) is pure post-processing, so the
streaming plane can shard it, decode in the workers, and write through
bounded-memory sinks without touching the DP accounting.  This benchmark
records what that buys end to end.

Acceptance gates (full scale, >= 20k synthesized records; the speedup gate
targets the 1M-record ToN workload of the acceptance criteria):

- ``backend="process"`` end-to-end ``sample()`` (GUM + decode) at 4 workers
  shows >= 1.5x speedup over the serial single-shard baseline;
- ``sample_to()`` peak RSS stays flat (< 1.3x the 1-chunk baseline, probed
  in fresh subprocesses) while the record count grows 10x;
- sharded decode is digest-stable across the serial and process backends, and
  ``sample_stream`` chunks concatenate to the in-memory ``sample()`` —
  always asserted, even in smoke mode;
- the copy probe's ``pickled_column_bytes`` is **zero** at every scale
  (shard tables must cross the process pool as arena descriptors, never
  pickled columns — the probe floors its own record count so shard tables
  cannot legitimately fall under the pickle threshold), and
  ``bytes_copied_per_record`` is gated against the committed baseline by
  ``compare_baselines.py``.

Smoke mode (REPRO_BENCH_SMOKE=1, used by CI) shrinks the workload and skips
the perf/RSS gates — parallel overhead and interpreter baseline RSS dominate
at toy sizes (the numbers are still recorded in the timing artifact).

The RSS probes run ``sample_to`` in fresh subprocesses (``getrusage``
reports a lifetime high-water mark, so an in-process number after a fit
means nothing): the model is saved once, then each probe child loads it,
streams ``n`` records to a sink and reports its own peak RSS.  The child is
this file's ``--probe`` entry point.

Runnable standalone: ``python benchmarks/bench_stream_throughput.py [out.json]``;
one probe: ``python benchmarks/bench_stream_throughput.py --probe MODEL N CHUNK``.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from conftest import SMOKE, _env_int, attach, best_of, dump, fit_ton, fmt

from repro.core import NetDPSyn
from repro.data.arena import copy_stats
from repro.data.table import TraceTable
from repro.engine import BACKENDS
from repro.experiments.runner import ExperimentScale
from repro.utils.memory import peak_rss_bytes

#: Full-scale default: the 1M-record ToN workload of the acceptance
#: criteria; smoke mode drops to 2k so CI stays fast.
DEFAULT_RECORDS = 2_000 if SMOKE else 1_000_000

#: Below this many synthesized records, parallel overhead and the
#: interpreter's baseline RSS dominate, and the perf/RSS gates are skipped.
FULL_SCALE_THRESHOLD = 20_000

#: RSS flatness gate: grown-run peak RSS over 1-chunk baseline peak RSS.
RSS_RATIO_GATE = 1.3

#: (backend, shards) grid for the end-to-end throughput rows.
GRID = (
    ("serial", 1),
    ("serial", 4),
    ("process", 4),
)

#: Shard count for the cross-backend digest-stability check.
STABILITY_SHARDS = 3

#: The grown RSS probe streams this many times the base probe's records
#: through the same chunk size.
RSS_GROWTH = 10


def rss_probe(model_path, n: int, chunk: int) -> dict:
    """Run one ``sample_to`` in a fresh subprocess; return its self-report."""
    out = subprocess.run(
        [sys.executable, __file__, "--probe", str(model_path), str(n), str(chunk)],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def probe_main(model_path: str, n: int, chunk: int) -> dict:
    """Child side of :func:`rss_probe`: stream ``n`` records to the null sink."""
    worker = NetDPSyn.load(model_path)
    report = worker.sample_to(os.devnull, n=n, format="null", chunk=chunk, rng=1234)
    return {
        "n_records": report.n_records,
        "n_chunks": report.n_chunks,
        "seconds": report.seconds,
        "records_per_second": report.records_per_second,
        "peak_rss_bytes": peak_rss_bytes(),
    }


def copy_probe(synthesizer, n: int, seed: int, shards: int = 4) -> dict:
    """Byte-movement ledger around one sharded ``backend="process"`` sample.

    ``n`` is floored at 4000 so each of the ``shards`` decoded shard tables
    stays above ``SHM_MIN_BYTES`` — smaller tables legitimately pickle
    through whole, which would make ``pickled_column_bytes`` scale-dependent
    instead of an invariant.
    """
    probe_n = max(min(n, 20_000), 4_000)
    copy_stats.reset()
    trace = synthesizer.sample(probe_n, rng=seed, shards=shards, backend="process")
    snap = copy_stats.snapshot()
    return {
        "n_records": trace.n_records,
        "shards": shards,
        "pickled_column_bytes": snap["pickled_array_bytes"],
        "stitch_bytes": snap["stitch_bytes"],
        "arena_bytes": snap["arena_bytes_peak"],
        "bytes_copied_per_record": (
            (snap["pickled_array_bytes"] + snap["stitch_bytes"]) / trace.n_records
            if trace.n_records
            else 0.0
        ),
    }


def verify_stream_equality(synthesizer, n: int, seed: int) -> dict:
    """Chunked stream concatenation must equal the in-memory sample."""
    expected = synthesizer.sample(
        n, rng=seed, shards=STABILITY_SHARDS, backend="serial"
    ).content_digest()
    chunks = synthesizer.sample_stream(
        n, chunk=max(1, n // 4), rng=seed, shards=STABILITY_SHARDS
    )
    streamed = TraceTable.concat_all(list(chunks)).content_digest()
    return {"expected": expected, "streamed": streamed, "matches": streamed == expected}


def measure(scale: ExperimentScale, repetitions: int) -> dict:
    """Measure the streaming release path; ``n_synthesized`` equals the fit size.

    A row's time is the best-of-``repetitions`` wall clock of ``sample()``
    (GUM + decode).  The RSS probes stream a quarter of that (one chunk)
    and :data:`RSS_GROWTH` times as much through the same chunk size.
    """
    n = scale.n_records
    synthesizer = fit_ton(scale)

    rows = {}
    for backend, shards in GRID:
        seconds, traces = best_of(
            repetitions,
            lambda: synthesizer.sample(n, rng=scale.seed + 101, shards=shards, backend=backend),
        )
        rows[f"{backend}-{shards}"] = {
            "backend": backend,
            "shards": shards,
            "seconds": seconds,
            "records_per_second": n / seconds if seconds > 0 else float("inf"),
            "digest": traces[-1].content_digest(),
        }
        del traces  # free this row's traces before the next row samples
    baseline = rows["serial-1"]["seconds"]
    for row in rows.values():
        row["speedup_vs_serial"] = baseline / row["seconds"] if row["seconds"] > 0 else None

    stability = {
        backend: synthesizer.sample(
            min(n, 2000), rng=scale.seed + 7, shards=STABILITY_SHARDS, backend=backend
        ).content_digest()
        for backend in BACKENDS
    }

    result = {
        "n_records_fit": scale.n_records,
        "n_synthesized": n,
        "gum_iterations": scale.gum_iterations,
        "repetitions": repetitions,
        "rows": rows,
        "decode_digest_stability": {
            "digests": stability,
            "matches": len(set(stability.values())) == 1,
        },
        "stream_equality": verify_stream_equality(synthesizer, min(n, 2000), scale.seed + 31),
        "copy_probe": copy_probe(synthesizer, n, scale.seed + 53),
    }

    base = max(1, n // 4)
    with tempfile.TemporaryDirectory() as tmp:
        model_path = Path(tmp) / "model.ndpsyn"
        synthesizer.save(model_path)
        small = rss_probe(model_path, base, chunk=base)
        grown = rss_probe(model_path, base * RSS_GROWTH, chunk=base)
    result["rss"] = {
        "format": "null",
        "growth": RSS_GROWTH,
        "base": small,
        "grown": grown,
        "peak_rss_ratio": (
            grown["peak_rss_bytes"] / small["peak_rss_bytes"]
            if small["peak_rss_bytes"] > 0
            else None
        ),
    }
    return result


def stream_scale() -> ExperimentScale:
    return ExperimentScale(
        n_records=_env_int("REPRO_BENCH_STREAM_RECORDS", DEFAULT_RECORDS),
        seed=_env_int("REPRO_BENCH_SEED", 0),
    )


def run_and_check(scale: ExperimentScale) -> dict:
    repetitions = 1 if SMOKE else _env_int("REPRO_BENCH_STREAM_REPS", 1)
    result = measure(scale, repetitions)

    for key, row in result["rows"].items():
        print(
            f"[stream] {key:<10s} {fmt(row['seconds'])}s  "
            f"{row['records_per_second']:>10.0f} rec/s  "
            f"speedup={fmt(row['speedup_vs_serial'])}"
        )
    rss = result["rss"]
    print(
        f"[stream] peak RSS {rss['base']['peak_rss_bytes'] / 1e6:.1f} MB -> "
        f"{rss['grown']['peak_rss_bytes'] / 1e6:.1f} MB at {rss['growth']}x records "
        f"(ratio {fmt(rss['peak_rss_ratio'])})"
    )
    print(f"[stream] decode stable: {result['decode_digest_stability']['matches']}  "
          f"stream equality: {result['stream_equality']['matches']}")
    probe = result["copy_probe"]
    print(
        f"[stream] copy probe: {probe['pickled_column_bytes']} pickled B, "
        f"{probe['stitch_bytes']} stitch B over {probe['n_records']} records "
        f"({probe['bytes_copied_per_record']:.1f} B/rec, "
        f"arena peak {probe['arena_bytes'] / 1e6:.1f} MB)"
    )

    # Correctness gates hold at every scale: sharded decode must not depend
    # on the backend, and chunking must not change content.
    assert result["decode_digest_stability"]["matches"], result["decode_digest_stability"]
    assert result["stream_equality"]["matches"], result["stream_equality"]
    # The zero-copy invariant holds at every scale too: shard tables travel
    # as shm arena descriptors, never as pickled column bytes.
    assert probe["pickled_column_bytes"] == 0, probe
    assert result["rss"]["grown"]["n_records"] == result["rss"]["growth"] * (
        result["rss"]["base"]["n_records"]
    )

    if result["n_synthesized"] >= FULL_SCALE_THRESHOLD:
        if (os.cpu_count() or 1) >= 2:
            speedup = result["rows"]["process-4"]["speedup_vs_serial"]
            assert speedup >= 1.5, (
                f"process-4 end-to-end speedup {speedup:.2f}x < 1.5x over serial"
            )
        else:
            # A single hardware thread cannot overlap workers: the end-to-end
            # ceiling is the vectorized-GUM gain alone, so the parallel gate
            # would measure the machine, not the engine.
            print("[stream] single-CPU machine: parallel speedup gate skipped")
        ratio = rss["peak_rss_ratio"]
        assert ratio is not None and ratio < RSS_RATIO_GATE, (
            f"sample_to peak RSS grew {ratio:.2f}x (gate {RSS_RATIO_GATE}x) "
            f"while records grew {rss['growth']}x"
        )
    return result


def test_stream_throughput(benchmark):
    scale = stream_scale()
    result = benchmark.pedantic(
        lambda: run_and_check(scale), rounds=1, iterations=1, warmup_rounds=0
    )
    attach(benchmark, result)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--probe"]:
        model, n, chunk = sys.argv[2:5]
        print(json.dumps(probe_main(model, int(n), int(chunk))))
    else:
        dump(run_and_check(stream_scale()))
