"""release-caida: stream a CAIDA packet model to CSV through a shared-memory pool.

The model (15 packet attributes) is fitted in set-up, so the timed work is
all release: GUM shards on the worker pool, shared-memory transport, the
chunk merge and the CSV sink.  Every file written is read back and must be
digest-equal to the serial release at the same shard count.
"""

from __future__ import annotations

import os
import statistics
import time
from contextlib import ExitStack

import inputs
from harness import Outcome, Spans, metric, peak_rss_mb, summarize_latencies
from layers import RELEASE_LAYERS, release_metrics, timed_release_layers

N_FIT = 50_000
#: CAIDA's generated data decides its model's structure (20 to 28 published
#: marginals over seeds 0-4), and with it the cost of a release, so the
#: packet model is fitted on one fixed table; ``--seed`` picks the release
#: stream (and with it every record written).
DATA_SEED = 0
N_RELEASE = 40_000
SHARDS = 8
CHUNK = N_RELEASE // SHARDS
#: Records of the warm-up release that set-up ends with.
N_WARM = 4_000
SETUP_REPS = 3


def _workers() -> int:
    return os.cpu_count() or 1


class _Release:
    """A fitted model with an open ``shared`` pool (the set-up result)."""

    def __init__(self, seed: int, work, spans: Spans | None = None) -> None:
        self.seed = seed
        self.synth = inputs.fit(inputs.table("caida", N_FIT, DATA_SEED))
        with ExitStack() as stack:
            if spans is not None:
                stack.enter_context(timed_release_layers(spans))
            stack.enter_context(self.synth.pool(backend="shared", max_workers=_workers()))
            self.synth.sample_to(work / "warm.csv", n=N_WARM, chunk=N_WARM // 2, rng=seed + 1)
            self._stack = stack.pop_all()

    def close(self) -> float:
        start = time.perf_counter()
        self._stack.close()
        return time.perf_counter() - start

    def release(self, path) -> float:
        start = time.perf_counter()
        self.synth.sample_to(path, n=N_RELEASE, chunk=CHUNK, rng=self.seed)
        return time.perf_counter() - start

    def traced_release(self, path, spans: Spans) -> float:
        """``sample_to`` spelled out: the sink loop with its waits timed."""
        from repro.data.sinks import open_sink

        schema = self.synth.plan().original_schema
        start = time.perf_counter()
        with open_sink(path, schema, format="csv") as sink:
            stream = self.synth.sample_stream(N_RELEASE, chunk=CHUNK, rng=self.seed)
            while True:
                waited = time.monotonic()
                part = next(stream, None)
                spans.add("release.chunk_wait_s", waited, time.monotonic() - waited)
                if part is None:
                    break
                with spans.span("release.sink_write_s"):
                    sink.write(part)
        wall = time.perf_counter() - start
        shards = self.synth.gum_result.shard_results
        spans.extend("release.shard_s", [s.seconds for s in shards])
        spans.add("release.wall_s", start, wall)
        return wall


def _check(outcome: Outcome, path, schema, want: str) -> None:
    from repro.data.io import read_csv

    got = read_csv(path, schema).content_digest()
    outcome.check(got == want, "CSV read back differs from the serial release")
    path.unlink()


def run(seed: int, seconds: float, trace: bool, work, log) -> tuple:
    from repro.data.arena import copy_stats

    release, setup_s = inputs.repeat_setup(
        lambda: _Release(seed, work), _Release.close, 1 if trace else SETUP_REPS
    )
    synth = release.synth
    schema = synth.plan().original_schema
    want = synth.sample(N_RELEASE, rng=seed, shards=SHARDS, backend="serial").content_digest()
    outcome = Outcome()
    path = work / "release.csv"
    walls = []
    try:
        start = time.perf_counter()
        budget = seconds / 2 if trace else seconds
        while not walls or time.perf_counter() - start < budget:
            walls.append(release.release(path))
            _check(outcome, path, schema, want)
    finally:
        close_s = release.close()
    if not trace:
        lat = summarize_latencies(walls)
        log(f"release-caida: {len(walls)} releases of {N_RELEASE}, p50 {lat['p50_ms']:.0f} ms")
        return outcome, {
            "setup_s": metric(statistics.median(setup_s), "s"),
            "throughput_per_s": metric(N_RELEASE / statistics.median(walls), "1/s"),
            "latency_p50_ms": metric(lat["p50_ms"], "ms"),
            "peak_rss_mb": metric(peak_rss_mb(), "MiB"),
        }

    # Traced half: a pool forked after the layers were rebound, so shard-side
    # spans are recorded in the workers and spooled back.
    spans = Spans(spool_dir=work)
    traced = _Release(seed, work, spans)
    spans.collect()
    spans.durations.clear()
    spans.counts.clear()
    copy_stats.reset()
    traced_walls = []
    try:
        start = time.perf_counter()
        while not traced_walls or time.perf_counter() - start < seconds / 2:
            traced_walls.append(traced.traced_release(path, spans))
            _check(outcome, path, schema, want)
    finally:
        traced_close_s = traced.close()
    spans.collect()
    releases = len(traced_walls)
    wall = statistics.fmean(traced_walls)
    shard_s = spans.seconds("release.shard_s")
    busy = sum(shard_s) / releases
    layers = release_metrics(spans, releases)
    layers.update(
        {
            "release.layer_coverage": sum(layers[n] for n in RELEASE_LAYERS) / busy,
            "release.shard_busy_s": busy,
            "release.shard_busy_max_s": max(shard_s),
            "release.worker_util": busy / (wall * _workers()),
            "release.chunk_wait_s": spans.total("release.chunk_wait_s") / releases,
            "release.sink_write_s": spans.total("release.sink_write_s") / releases,
            "release.pickled_bytes_per_record": copy_stats.snapshot()["pickled_array_bytes"]
            / (releases * N_RELEASE),
            "release.pool_close_s": statistics.fmean([close_s, traced_close_s]),
            "trace_overhead": statistics.median(traced_walls) / statistics.median(walls),
            "latency_tail_ms": summarize_latencies(walls)["tail_ms"],
        }
    )
    log(f"release-caida: {releases} traced releases, {wall:.3f} s each")
    return outcome, layers
