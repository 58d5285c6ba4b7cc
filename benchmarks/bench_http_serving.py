"""HTTP serving: closed-loop client load over the micro-batched service.

``bench_serving`` gates the in-process execution plane; this benchmark gates
what a network client gets from the full stack — stdlib HTTP transport,
wire codecs, auth, answer cache, and the micro-batcher — under
closed-loop concurrent load (:mod:`repro.experiments.http_serving`).

Correctness gates, asserted at every scale:

- every HTTP answer is bit-identical to a direct, independently constructed
  ``QueryEngine`` answering the same query (wire round-trip included);
- a hot-reloaded model invalidates the answer cache (the stale-answer test:
  after the model file is overwritten, the served answer changes to the new
  model's and matches its direct answer);
- the cached configuration observes real cache hits.

Perf gates, asserted at full scale (>= 10k-record fit) only:

- with 16 concurrent clients, the micro-batched service sustains >= 1.5x
  the queries/sec of the unbatched (batch-size-1) configuration;
- client-observed p99 stays under an absolute stall ceiling (a wedged
  batcher shows up as seconds-long tails, not as a modest slowdown).

At smoke scale HTTP latency dominates the tiny per-query engine work and
the speedup hard-assert would measure scheduler noise; smoke instead
relies on the committed-baseline gates in ``compare_baselines.py``
(batched queries/sec and p50 latency, wide machine-drift band).

Smoke mode (REPRO_BENCH_SMOKE=1, used by CI) shrinks the fit, the client
count, and the per-client request count.

Runnable standalone: ``python benchmarks/bench_http_serving.py [out.json]``.
"""

import json
import sys

from conftest import SMOKE, _env_int, attach, fmt

from repro.experiments import http_serving
from repro.experiments.runner import ExperimentScale

#: Concurrent closed-loop clients (the acceptance criterion names 16).
DEFAULT_CLIENTS = 8 if SMOKE else 16

#: Requests per client per configuration; large enough that p99 and q/s are
#: averages over hundreds of requests, not a handful.
DEFAULT_REPS = 40 if SMOKE else 150

#: The acceptance-criteria speedup gate: micro-batched vs unbatched q/s.
BATCH_SPEEDUP_GATE = 1.5

#: Client-observed p99 stall ceiling at full scale (seconds -> ms).
P99_CEILING_MS = http_serving.P99_CEILING_SECONDS * 1000.0

#: Below this fit size the per-query engine work is microseconds and HTTP
#: latency dominates any closed-loop throughput comparison.
FULL_SCALE_THRESHOLD = 10_000

#: Fallback-sample size at full scale: serving-tier cache sizing (see
#: ``docs/serving.md``), and the lever that makes sample-path group work
#: heavy enough for the speedup gate to measure batching, not HTTP parsing.
FULL_SAMPLE_RECORDS = 200_000


def http_scale() -> ExperimentScale:
    n_records = _env_int("REPRO_BENCH_HTTP_RECORDS", 1_000 if SMOKE else 20_000)
    return ExperimentScale(
        n_records=n_records,
        seed=_env_int("REPRO_BENCH_SEED", 0),
    )


def run_and_check(scale: ExperimentScale) -> dict:
    full_scale = scale.n_records >= FULL_SCALE_THRESHOLD
    result = http_serving.run(
        scale,
        clients=_env_int("REPRO_BENCH_HTTP_CLIENTS", DEFAULT_CLIENTS),
        reps=_env_int("REPRO_BENCH_HTTP_REPS", DEFAULT_REPS),
        sample_records=_env_int(
            "REPRO_BENCH_HTTP_SAMPLE",
            FULL_SAMPLE_RECORDS if full_scale else max(scale.n_records, 20_000),
        ),
    )
    for name in ("unbatched", "batched", "cached"):
        row = result["configs"][name]
        print(
            f"[serve-http] {name:>9s} {row['queries_per_second']:>8.0f} q/s  "
            f"p50={fmt(row['p50_ms'])}ms p99={fmt(row['p99_ms'])}ms  "
            f"micro_batch={row['micro_batch']} "
            f"mean_batch={row['batcher']['mean_batch_size']}"
        )
    print(
        f"[serve-http] batch_speedup={fmt(result['batch_speedup'])}  "
        f"cache_speedup={fmt(result['cache_speedup'])}  "
        f"verified={result['n_verified']} bit-identical  "
        f"hot_reload={result['hot_reload']['ok']}"
    )

    assert result["bit_identical"], "an HTTP answer diverged from the direct engine"
    assert result["hot_reload"]["ok"], result["hot_reload"]
    cache_stats = result["configs"]["cached"]["cache_stats"]
    assert cache_stats["hits"] > 0, f"cached config observed no cache hits: {cache_stats}"
    if full_scale:
        speedup = result["batch_speedup"]
        assert speedup >= BATCH_SPEEDUP_GATE, (
            f"micro-batched q/s only {speedup:.2f}x the unbatched config "
            f"(< {BATCH_SPEEDUP_GATE}x) under {result['configs']['batched']['clients']} clients"
        )
        p99 = result["configs"]["batched"]["p99_ms"]
        assert p99 <= P99_CEILING_MS, (
            f"batched p99 {p99:.0f}ms exceeds the {P99_CEILING_MS:.0f}ms stall ceiling"
        )
    return result


def test_http_serving(benchmark):
    scale = http_scale()
    result = benchmark.pedantic(
        lambda: run_and_check(scale), rounds=1, iterations=1, warmup_rounds=0
    )
    attach(benchmark, result)


if __name__ == "__main__":
    payload = run_and_check(http_scale())
    out_path = sys.argv[1] if len(sys.argv) > 1 else None
    text = json.dumps(payload, indent=2, default=float)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {out_path}")
    else:
        print(text)
