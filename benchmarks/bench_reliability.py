"""Reliability: recovery overhead and serving tails under injected faults.

Two gated measurements back the reliability layer's acceptance criteria:

- **recovery** — repeated sharded sampling with one injected worker kill in
  the faulted series.  Every run (clean and recovered) is digest-checked
  against the fault-free baseline, and ``overhead_ratio`` (faulted over
  clean wall-clock) is gated: hard-asserted < 1.10 at full scale (>= 10k
  fit, ~1% shard-fault rate), baseline-banded at smoke scale where the
  shorter series makes the single recovery a larger fraction of the total.
- **faulted serving** — closed-loop HTTP clients while ~1% of engine
  executions raise injected faults.  Asserted at every scale: zero untyped
  responses (each answer is a 200 or a 503/504 carrying a known error
  code — never a bare 500, never a hang) and at least one fault actually
  fired.  Client p99 under faults is gated against the committed baseline
  and, at full scale, an absolute stall ceiling.

The recovery fault budget is one kill per series (25 rounds x 4 shards at
full scale, a 1% shard-execution fault rate).  Recovery re-runs
only the killed shard on its original ``SeedSequence`` child, so the
overhead ratio prices one worker replacement plus one shard re-execution
amortized over the series, not a restart.

Worker-kill injection requires the ``fork`` start method; elsewhere the
recovery series runs fault-free and only the digest/overhead plumbing is
exercised.

Smoke mode (REPRO_BENCH_SMOKE=1, used by CI) shrinks the fit, the series
length, and the client load.

Runnable standalone: ``python benchmarks/bench_reliability.py [out.json]``.
"""

import json
import multiprocessing
import tempfile
import time
from pathlib import Path

import numpy as np

from conftest import SMOKE, _env_int, attach, closed_loop, dump, fit_ton, fmt

from repro.experiments.http_serving import _categorical_values, uncovered_pairs
from repro.experiments.runner import ExperimentScale
from repro.reliability import (
    KIND_ERROR,
    KIND_KILL,
    SITE_QUERY,
    SITE_SHARD,
    FaultSpec,
    inject,
)
from repro.serving import (
    ModelRegistry,
    QueryService,
    ServiceConfig,
    count,
    marginal,
    query_to_wire,
    topk,
)
from repro.serving.http import serve_in_thread

#: Sampling rounds per series.  Full scale targets ~1% shard faults (one
#: kill over 25 rounds x 4 shards); smoke shortens the series for CI and
#: leans on the baseline band instead of the hard overhead gate.
DEFAULT_ROUNDS = 6 if SMOKE else 25

#: Closed-loop clients / requests-per-client for the faulted HTTP leg.
DEFAULT_CLIENTS = 4 if SMOKE else 8
DEFAULT_REPS = 30 if SMOKE else 120

#: Recovery-overhead hard gate at full scale (acceptance criterion: < 10%).
OVERHEAD_GATE = 1.10

#: Client-observed p99 stall ceiling under faults at full scale (ms).  A
#: wedged breaker or a lost batch wakeup shows up as seconds, not percent.
P99_CEILING_MS = 500.0

#: Below this fit size per-shard work is too small for the overhead ratio
#: to measure recovery rather than pool-rebuild constants.
FULL_SCALE_THRESHOLD = 10_000


#: Every non-200 a faulted server may answer with.  Anything else — above
#: all the opaque ``internal_error`` 500 — fails the benchmark.
TYPED_FAULT_CODES = {
    "engine_fault",
    "circuit_open",
    "overloaded",
    "model_unavailable",
    "deadline_exceeded",
    "quota_exceeded",
}

#: Target engine-fault rate of the faulted HTTP leg.
FAULT_RATE = 0.01

#: Shards per release in the recovery series.
SHARDS = 4


def measure_recovery(scale: ExperimentScale, rounds: int) -> dict:
    """Clean vs. kill-faulted sampling series, digest-checked every round."""
    fitted = fit_ton(scale)
    n = scale.n_records
    # Warm first (pool fork, page cache) and pin the fault-free digest.
    digest = fitted.sample(n, rng=123, shards=SHARDS, backend="process").content_digest()

    def series() -> float:
        start = time.perf_counter()
        for _ in range(rounds):
            table = fitted.sample(n, rng=123, shards=SHARDS, backend="process")
            if table.content_digest() != digest:
                raise AssertionError("recovered run diverged from the fault-free digest")
        return time.perf_counter() - start

    clean_seconds = series()
    firings = 0
    fork = multiprocessing.get_start_method() == "fork"
    if fork:
        with inject(FaultSpec(kind=KIND_KILL, site=SITE_SHARD, index=SHARDS // 2)) as injector:
            faulted_seconds = series()
            firings = injector.fired(KIND_KILL)
    else:  # spawn platforms: the injector does not reach the workers
        faulted_seconds = series()
    return {
        "measure": {
            "rounds": rounds,
            "shards": SHARDS,
            "clean_seconds": clean_seconds,
            "faulted_seconds": faulted_seconds,
            "overhead_ratio": faulted_seconds / clean_seconds,
            "fault_firings": firings,
            "shard_fault_rate": firings / float(rounds * SHARDS),
        },
        "bit_identical": True,  # series() raises on any digest mismatch
        "fork": fork,
        "backend": "process",
    }


def faulted_workload(model) -> list:
    """Mostly marginal-path queries (degradable) plus one sample-path query."""
    plan = model.plan()
    queries = [count(), topk("dstport", k=5), count(), topk("proto", k=3)]
    cat = [a for a in plan.original_schema.names if _categorical_values(plan, a)]
    if cat:
        queries.append(count(where={cat[0]: _categorical_values(plan, cat[0])[0]}))
    fallback = uncovered_pairs(plan)
    if fallback:
        queries.append(marginal(*fallback[0]))
    return queries


def measure_faulted_http(scale: ExperimentScale, clients: int, reps: int) -> dict:
    """Closed-loop load with ~1% injected engine faults; all answers typed."""
    model = fit_ton(scale)
    total = clients * reps
    fault_budget = max(3, round(FAULT_RATE * total))
    bodies = [json.dumps({"query": query_to_wire(q)}) for q in faulted_workload(model)]
    with tempfile.TemporaryDirectory(prefix="repro-bench-rel-") as root:
        model.save(Path(root) / "ton.ndpsyn")
        service = QueryService(
            ModelRegistry(root),
            ServiceConfig(
                cache_answers=False,
                breaker_failures=5,
                breaker_reset=0.25,
                engine_options={"sample_records": max(scale.n_records, 20_000)},
            ),
        )
        server, _thread = serve_in_thread(service)
        try:
            with inject(
                FaultSpec(kind=KIND_ERROR, site=SITE_QUERY, times=fault_budget)
            ) as injector:
                elapsed, observations = closed_loop(
                    server, "/v1/models/ton/query", bodies, clients=clients, reps=reps
                )
                firings = injector.fired(KIND_ERROR)
        finally:
            server.shutdown()
            server.server_close()

    untyped = [
        (status, code)
        for status, code, _ in observations
        if status != 200 and (status not in (503, 504) or code not in TYPED_FAULT_CODES)
    ]
    statuses: dict = {}
    for status, _, _ in observations:
        statuses[status] = statuses.get(status, 0) + 1
    p50, p99 = np.percentile([latency for _, _, latency in observations], [50, 99])
    return {
        "measure": {
            "requests": total,
            "clients": clients,
            "seconds": elapsed,
            "queries_per_second": total / elapsed,
            "p50_ms": float(p50) * 1000.0,
            "p99_ms": float(p99) * 1000.0,
            "fault_firings": firings,
            "fault_budget": fault_budget,
        },
        "statuses": {str(k): v for k, v in sorted(statuses.items())},
        "untyped_responses": untyped,
        "service_reliability": service.stats()["reliability"],
    }


def reliability_scale() -> ExperimentScale:
    n_records = _env_int("REPRO_BENCH_RELIABILITY_RECORDS", 1_000 if SMOKE else 12_000)
    return ExperimentScale(
        n_records=n_records,
        seed=_env_int("REPRO_BENCH_SEED", 0),
    )


def run_and_check_recovery(scale: ExperimentScale) -> dict:
    full_scale = scale.n_records >= FULL_SCALE_THRESHOLD
    result = measure_recovery(
        scale, rounds=_env_int("REPRO_BENCH_RELIABILITY_ROUNDS", DEFAULT_ROUNDS)
    )
    m = result["measure"]
    print(
        f"[reliability] recovery rounds={m['rounds']} shards={m['shards']}  "
        f"clean={fmt(m['clean_seconds'])}s faulted={fmt(m['faulted_seconds'])}s  "
        f"overhead={fmt(m['overhead_ratio'])}x  kills={m['fault_firings']} "
        f"(shard_fault_rate={fmt(m['shard_fault_rate'])})"
    )
    assert result["bit_identical"], "a recovered run diverged from the clean digest"
    if result["fork"]:
        assert m["fault_firings"] >= 1, "the worker-kill fault never fired"
    if full_scale and result["fork"]:
        assert m["overhead_ratio"] <= OVERHEAD_GATE, (
            f"recovery overhead {m['overhead_ratio']:.3f}x exceeds the "
            f"{OVERHEAD_GATE}x gate at ~{m['shard_fault_rate']:.1%} shard faults"
        )
    return result


def run_and_check_faulted(scale: ExperimentScale) -> dict:
    result = measure_faulted_http(
        scale,
        clients=_env_int("REPRO_BENCH_RELIABILITY_CLIENTS", DEFAULT_CLIENTS),
        reps=_env_int("REPRO_BENCH_RELIABILITY_REPS", DEFAULT_REPS),
    )
    m = result["measure"]
    full_scale = scale.n_records >= FULL_SCALE_THRESHOLD
    print(
        f"[reliability] faulted-http {m['queries_per_second']:>7.0f} q/s  "
        f"p50={fmt(m['p50_ms'])}ms p99={fmt(m['p99_ms'])}ms  "
        f"faults={m['fault_firings']}/{m['requests']}  "
        f"statuses={result['statuses']}"
    )
    assert not result["untyped_responses"], (
        f"untyped fault responses leaked to clients: {result['untyped_responses']}"
    )
    assert m["fault_firings"] >= 1, "no engine fault fired during the faulted run"
    assert result["statuses"].get("200", 0) > 0, "no request succeeded under faults"
    if full_scale:
        assert m["p99_ms"] <= P99_CEILING_MS, (
            f"faulted p99 {m['p99_ms']:.0f}ms exceeds the {P99_CEILING_MS:.0f}ms ceiling"
        )
    return result


def test_reliability_recovery(benchmark):
    scale = reliability_scale()
    result = benchmark.pedantic(
        lambda: run_and_check_recovery(scale), rounds=1, iterations=1, warmup_rounds=0
    )
    attach(benchmark, result)


def test_http_faulted(benchmark):
    scale = reliability_scale()
    result = benchmark.pedantic(
        lambda: run_and_check_faulted(scale), rounds=1, iterations=1, warmup_rounds=0
    )
    attach(benchmark, result)


if __name__ == "__main__":
    scale = reliability_scale()
    dump(
        {
            "recovery": run_and_check_recovery(scale),
            "faulted_http": run_and_check_faulted(scale),
        }
    )
