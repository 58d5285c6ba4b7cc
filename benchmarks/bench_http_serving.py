"""HTTP serving: closed-loop client load over the micro-batched service.

``bench_serving`` gates the in-process execution plane; this benchmark gates
what a network client gets from the full stack — stdlib HTTP transport,
wire codecs, auth, answer cache, and the micro-batcher — under
closed-loop concurrent load.  It stands up the real server over a saved
model and drives it with N closed-loop keep-alive clients
(``conftest.closed_loop``), comparing three service configurations:

- **unbatched** — ``micro_batch=False``, answer cache off: every request
  runs ``engine.run`` by itself (the batch-size-1 baseline);
- **batched** — micro-batching on, cache off: requests that arrive while a
  batch executes ride the next ``run_batch`` execution together;
- **cached** — the batched config with the answer cache on (the production
  default): repeated dashboard queries short-circuit entirely.

The workload is the dashboard shape micro-batching is built for
(:func:`repro.experiments.http_serving.build_http_workload`): many clients
repeating a small set of distinct queries, weighted toward sample-path
filtered counts/topk over *unpublished* attribute pairs.

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
import os
import tempfile
from http.client import HTTPConnection
from pathlib import Path

import numpy as np

from conftest import SMOKE, _env_int, attach, closed_loop, dump, fit_ton, fmt

from repro.core import NetDPSyn
from repro.experiments.http_serving import build_http_workload
from repro.experiments.runner import ExperimentScale
from repro.serving import (
    ModelRegistry,
    Prefer,
    QueryEngine,
    QueryService,
    ServiceConfig,
    answer_from_wire,
    answers_equal,
    count,
    query_to_wire,
)
from repro.serving.http import serve_in_thread

#: Concurrent closed-loop clients (the acceptance criterion names 16).
DEFAULT_CLIENTS = 8 if SMOKE else 16

#: Requests per client per configuration; large enough that p99 and q/s are
#: averages over hundreds of requests, not a handful.
DEFAULT_REPS = 40 if SMOKE else 150

#: The acceptance-criteria speedup gate: micro-batched vs unbatched q/s.
BATCH_SPEEDUP_GATE = 1.5

#: Client-observed p99 stall ceiling at full scale (ms): beyond it the
#: service wedged (deadlocked batcher, lost wakeup), not merely slowed.
P99_CEILING_MS = 500.0

#: Below this fit size the per-query engine work is microseconds and HTTP
#: latency dominates any closed-loop throughput comparison.
FULL_SCALE_THRESHOLD = 10_000

#: Fallback-sample size at full scale: serving-tier cache sizing (see
#: ``docs/serving.md``), and the lever that makes sample-path group work
#: heavy enough for the speedup gate to measure batching, not HTTP parsing.
FULL_SAMPLE_RECORDS = 200_000


def load(server, bodies: list, clients: int, reps: int) -> dict:
    """Closed-loop load on the ``ton`` model; every request must answer 200."""
    elapsed, observations = closed_loop(
        server, "/v1/models/ton/query", bodies, clients=clients, reps=reps
    )
    errors = [(status, code) for status, code, _ in observations if status != 200]
    if errors:
        raise AssertionError(f"{len(errors)} client error(s); first: {errors[0]}")
    p50, p99 = np.percentile([latency for _, _, latency in observations], [50, 99])
    total = clients * reps
    return {
        "clients": clients,
        "requests": total,
        "seconds": elapsed,
        "queries_per_second": total / elapsed,
        "p50_ms": float(p50) * 1000.0,
        "p99_ms": float(p99) * 1000.0,
    }


def verify_bit_identity(server, queries: list, direct: QueryEngine) -> int:
    """Every HTTP answer must be bit-identical to the direct engine's."""
    conn = HTTPConnection(*server.server_address[:2])
    try:
        for query in queries:
            body = json.dumps({"query": query_to_wire(query), "prefer": str(Prefer.AUTO)})
            conn.request(
                "POST",
                "/v1/models/ton/query",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 200, f"{query!r} failed: {payload}"
            assert answers_equal(answer_from_wire(payload), direct.run(query)), (
                f"HTTP answer for {query!r} diverged from the direct engine"
            )
    finally:
        conn.close()
    return len(queries)


def check_hot_reload_invalidation(tmp: Path, scale: ExperimentScale) -> dict:
    """The stale-answer test: a re-deployed model must change served answers.

    Runs at tiny scale regardless of the benchmark scale — invalidation
    correctness does not need a big fit.  Two different fits (different rng)
    have different publication noise, so ``count()`` almost surely differs;
    the served answer after the overwrite must equal the NEW model's direct
    answer, proving the generation-keyed cache could not serve the old one.
    """
    small = ExperimentScale(n_records=min(scale.n_records, 1000), seed=scale.seed)
    small.gum_iterations = min(small.gum_iterations, 5)
    model_a = fit_ton(small)
    model_b = fit_ton(ExperimentScale(**{**small.__dict__, "seed": small.seed + 101}))
    path = tmp / "reload.ndpsyn"
    model_a.save(path)

    service = QueryService(
        ModelRegistry(tmp), ServiceConfig(micro_batch=False, cache_answers=True)
    )
    server, _ = serve_in_thread(service)
    conn = HTTPConnection(*server.server_address[:2])
    body = json.dumps({"query": query_to_wire(count())})

    def ask() -> float:
        conn.request(
            "POST",
            "/v1/models/reload/query",
            body=body,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        payload = json.loads(response.read())
        assert response.status == 200, payload
        return answer_from_wire(payload).value

    try:
        first = ask()
        again = ask()  # second hit comes from the answer cache
        cache_hits = service.cache.stats()["hits"]
        model_b.save(path)
        stat = path.stat()
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 5_000_000))
        after = ask()
        expected = QueryEngine(model_b).run(count()).value
    finally:
        conn.close()
        server.shutdown()
        server.server_close()
    return {
        "first": first,
        "after_reload": after,
        "cache_hit_before_reload": cache_hits >= 1,
        "answer_changed": after != first,
        "matches_new_model": after == expected,
        "ok": first == again and cache_hits >= 1 and after != first and after == expected,
    }


def run(scale: ExperimentScale, clients: int, reps: int, sample_records: int) -> dict:
    """Fit once, serve over HTTP, and measure all three configurations."""
    model = fit_ton(scale)
    engine_options = {"sample_records": sample_records}

    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        model_path = tmp / "ton.ndpsyn"
        model.save(model_path)
        queries = build_http_workload(model, seed=scale.seed)
        bodies = [
            json.dumps({"query": query_to_wire(q), "prefer": str(Prefer.AUTO)})
            for q in queries
        ]
        # One registry shared by all three configurations: the engine (and its
        # lazily built sample cache) is constructed once, so each measured run
        # sees a warm engine and the configs differ ONLY in batching/cache.
        registry = ModelRegistry(tmp)
        configs = {
            "unbatched": ServiceConfig(
                micro_batch=False, cache_answers=False, engine_options=engine_options
            ),
            "batched": ServiceConfig(cache_answers=False, engine_options=engine_options),
            "cached": ServiceConfig(cache_answers=True, engine_options=engine_options),
        }
        results: dict = {}
        for name, config in configs.items():
            service = QueryService(registry, config)
            server, _ = serve_in_thread(service)
            try:
                row = load(server, bodies, clients=clients, reps=reps)
                row["micro_batch"] = config.micro_batch
                row["cache"] = config.cache_answers
                stats = service.stats()
                row["batcher"] = stats["batcher"]
                row["cache_stats"] = stats["cache"]
            finally:
                server.shutdown()
                server.server_close()
            results[name] = row

        # Bit-identity: a fresh server (production config) vs an INDEPENDENT
        # engine over an independently loaded copy of the model file.
        direct = QueryEngine(NetDPSyn.load(model_path), **engine_options)
        service = QueryService(registry, configs["cached"])
        server, _ = serve_in_thread(service)
        try:
            n_verified = verify_bit_identity(server, queries, direct)
        finally:
            server.shutdown()
            server.server_close()

        reload_result = check_hot_reload_invalidation(tmp, scale)

    sample_path_groups = len(
        {q.needed_attrs for q in queries if not direct.answerable_from_marginal(q)}
    )
    unbatched_qps = results["unbatched"]["queries_per_second"]
    return {
        "n_records_fit": scale.n_records,
        "n_distinct_queries": len(queries),
        "n_sample_path_groups": sample_path_groups,
        "sample_records": sample_records,
        "configs": results,
        "batch_speedup": results["batched"]["queries_per_second"] / unbatched_qps,
        "cache_speedup": results["cached"]["queries_per_second"] / unbatched_qps,
        "bit_identical": True,  # verify_bit_identity raises otherwise
        "n_verified": n_verified,
        "hot_reload": reload_result,
    }


def http_scale() -> ExperimentScale:
    n_records = _env_int("REPRO_BENCH_HTTP_RECORDS", 1_000 if SMOKE else 20_000)
    return ExperimentScale(
        n_records=n_records,
        seed=_env_int("REPRO_BENCH_SEED", 0),
    )


def run_and_check(scale: ExperimentScale) -> dict:
    full_scale = scale.n_records >= FULL_SCALE_THRESHOLD
    result = run(
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
    dump(run_and_check(http_scale()))
