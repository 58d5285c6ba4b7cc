"""Streaming engine: end-to-end sample throughput and bounded-RSS probes.

The release phase is pure post-processing (paper §3.5), so *how* records are
generated, decoded, and written is free under DP.  This experiment measures
what the streaming execution plane buys end to end:

- **throughput** — wall-clock ``sample()`` (GUM + decode) across backends at
  a fixed worker count, against the serial single-shard legacy baseline;
- **digest stability** — sharded decode must not depend on the backend, and
  ``sample_stream`` chunks must concatenate to the in-memory trace;
- **bounded memory** — ``sample_to`` peak RSS, probed from *fresh
  subprocesses* (``getrusage`` reports a lifetime high-water mark, so
  in-process measurements after a fit are meaningless): the model is saved
  once, then each probe loads it, streams ``n`` records to a sink, and
  reports its own peak RSS.  Growing ``n`` 10x at a fixed chunk size should
  leave the peak roughly flat;
- **copy probe** — a sharded ``backend="process"`` sample with the
  :data:`~repro.data.arena.copy_stats` ledger reset around it: shard tables
  must cross as arena descriptors (``pickled_column_bytes == 0``, asserted
  by the benchmark), and ``bytes_copied_per_record`` — pickled plus stitch
  bytes per synthesized record — is gated against the committed baseline so
  a regression to pickled columns cannot land silently.

Runnable as a CLI for the subprocess probe::

    python -m repro.experiments.stream_throughput --probe MODEL N CHUNK FORMAT
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.core import NetDPSyn, SynthesisConfig
from repro.data.table import TraceTable
from repro.datasets import load_dataset
from repro.engine import BACKENDS
from repro.experiments.runner import ExperimentScale
from repro.utils.memory import peak_rss_bytes
from repro.utils.timer import Timer

#: (backend, shards) grid for the end-to-end throughput rows.
DEFAULT_GRID = (
    ("serial", 1),
    ("serial", 4),
    ("process", 4),
)

#: Shard count for the cross-backend digest-stability check.
STABILITY_SHARDS = 3


def _fit(n_records: int, seed: int, epsilon: float, delta: float, iterations: int):
    table = load_dataset("ton", n_records=n_records, seed=seed)
    config = SynthesisConfig(epsilon=epsilon, delta=delta)
    config.gum.iterations = iterations
    synthesizer = NetDPSyn(config, rng=seed + 1).fit(table)
    synthesizer.plan()  # build outside the timed region
    return synthesizer


def _time_sample(synthesizer, n: int, seed: int, backend: str, shards: int, reps: int):
    """Best-of-``reps`` end-to-end sample() wall clock (GUM + decode)."""
    seconds = None
    trace = None
    for _ in range(max(reps, 1)):
        timer = Timer()
        timer.start()
        trace = synthesizer.sample(n, rng=seed, shards=shards, backend=backend)
        elapsed = timer.stop()
        if seconds is None or elapsed < seconds:
            seconds = elapsed
    return seconds, trace.content_digest()


def rss_probe(model_path, n: int, chunk: int, sink_format: str = "null") -> dict:
    """Run one ``sample_to`` in a fresh subprocess; return its self-report.

    The child loads the saved model, streams ``n`` records through a sink,
    and prints a JSON line with its own peak RSS — clean numbers untouched by
    this process's fit-time high-water mark.
    """
    out = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.experiments.stream_throughput",
            "--probe",
            str(model_path),
            str(n),
            str(chunk),
            sink_format,
        ],
        capture_output=True,
        text=True,
        check=True,
        env=os.environ.copy(),
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _run_probe(model_path: str, n: int, chunk: int, sink_format: str) -> dict:
    """Child side of :func:`rss_probe` (``--probe`` entry point)."""
    worker = NetDPSyn.load(model_path)
    with tempfile.TemporaryDirectory() as tmp:
        suffix = "out" if sink_format == "null" else sink_format
        report = worker.sample_to(
            Path(tmp) / f"trace.{suffix}",
            n=n,
            format=sink_format,
            chunk=chunk,
            rng=1234,
        )
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
    from repro.data.arena import copy_stats

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
    chunks = list(
        synthesizer.sample_stream(
            n, chunk=max(1, n // 4), rng=seed, shards=STABILITY_SHARDS
        )
    )
    streamed = TraceTable.concat_all(chunks).content_digest()
    return {"expected": expected, "streamed": streamed, "matches": streamed == expected}


def run(
    scale: ExperimentScale | None = None,
    n_synth: int | None = None,
    grid=DEFAULT_GRID,
    repetitions: int = 1,
    rss_base: int | None = None,
    rss_growth: int = 10,
    rss_format: str = "null",
) -> dict:
    """Measure the streaming release path at ``scale``.

    ``rss_base`` (default: a quarter of the synthesis budget) is both the
    base record count and the chunk size of the RSS probes; the grown probe
    streams ``rss_growth``x as many records through the same chunk size.
    """
    scale = scale or ExperimentScale()
    n = n_synth if n_synth is not None else scale.n_records
    synthesizer = _fit(
        scale.n_records, scale.seed, scale.epsilon, scale.delta, scale.gum_iterations
    )

    rows = {}
    for backend, shards in grid:
        seconds, sample_digest = _time_sample(
            synthesizer, n, scale.seed + 101, backend, shards, repetitions
        )
        rows[f"{backend}-{shards}"] = {
            "backend": backend,
            "shards": shards,
            "seconds": seconds,
            "records_per_second": n / seconds if seconds > 0 else float("inf"),
            "digest": sample_digest,
        }
    baseline = rows.get("serial-1", {}).get("seconds")
    for row in rows.values():
        row["speedup_vs_serial"] = (
            baseline / row["seconds"] if baseline and row["seconds"] > 0 else None
        )

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
        "stream_equality": verify_stream_equality(
            synthesizer, min(n, 2000), scale.seed + 31
        ),
        "copy_probe": copy_probe(synthesizer, n, scale.seed + 53),
    }

    base = rss_base if rss_base is not None else max(1, n // 4)
    with tempfile.TemporaryDirectory() as tmp:
        model_path = Path(tmp) / "model.ndpsyn"
        synthesizer.save(model_path)
        small = rss_probe(model_path, base, chunk=base, sink_format=rss_format)
        grown = rss_probe(model_path, base * rss_growth, chunk=base, sink_format=rss_format)
    ratio = (
        grown["peak_rss_bytes"] / small["peak_rss_bytes"]
        if small["peak_rss_bytes"] > 0
        else None
    )
    result["rss"] = {
        "format": rss_format,
        "growth": rss_growth,
        "base": small,
        "grown": grown,
        "peak_rss_ratio": ratio,
    }
    return result


def main(argv=None) -> None:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--probe"]:
        model_path, n, chunk, sink_format = argv[1:5]
        print(json.dumps(_run_probe(model_path, int(n), int(chunk), sink_format)))
        return
    payload = run(ExperimentScale())
    print(json.dumps(payload, indent=2, default=float))


if __name__ == "__main__":
    main()
