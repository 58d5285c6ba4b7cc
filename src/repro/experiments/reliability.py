"""Reliability experiment: recovery overhead and tail latency under faults.

Two measurements back the reliability layer's acceptance criteria:

**Recovery overhead** — repeated sharded sampling runs, clean vs. with an
injected worker kill, every run digest-checked against the fault-free
baseline.  The fault budget is sized so the *shard-execution* fault rate is
on the order of 1%: one kill across ``rounds`` runs of ``shards`` shards.
The gated number is ``overhead_ratio`` (faulted wall-clock over clean
wall-clock) — recovery re-runs only the killed shard on its original
``SeedSequence`` child, so the ratio prices one worker replacement plus
one shard re-execution amortized over the whole series, not a restart.

**Faulted serving tails** — closed-loop HTTP clients over the full stack
while ~1% of engine executions raise injected faults.  Every response must
be *typed*: 200, or an error envelope whose ``code`` is in the published
taxonomy (503 ``engine_fault``/``circuit_open``/``overloaded``, 504
``deadline_exceeded``) — an untyped 500 or a hung request is the failure
mode this experiment exists to rule out.  The gated number is client p99.

Worker-kill injection needs ``fork`` start-method inheritance; on other
platforms the recovery series runs fault-free and reports
``fault_firings=0`` (the bench skips its firing assertion there).

Runnable standalone: ``python -m repro.experiments.reliability``.
"""

from __future__ import annotations

import json
import multiprocessing
import tempfile
import threading
import time
from http.client import HTTPConnection, RemoteDisconnected
from pathlib import Path

import numpy as np

from repro.experiments.runner import ExperimentScale
from repro.experiments.serving import _categorical_values, _fit, uncovered_pairs
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

#: Every non-200 a faulted server may answer with.  Anything else — above
#: all the opaque ``internal_error`` 500 — fails the experiment.
TYPED_FAULT_CODES = {
    "engine_fault",
    "circuit_open",
    "overloaded",
    "model_unavailable",
    "deadline_exceeded",
    "quota_exceeded",
}

#: Target shard-execution fault rate for the recovery series.
FAULT_RATE = 0.01


def fork_available() -> bool:
    return multiprocessing.get_start_method() == "fork"


# ----------------------------------------------------------------- recovery
def run_recovery(
    scale: ExperimentScale,
    rounds: int | None = None,
    shards: int = 4,
    backend: str = "process",
) -> dict:
    """Clean vs. kill-faulted sampling series, digest-checked every round."""
    fitted = _fit(scale)
    n = scale.n_records
    if rounds is None:
        # One kill over the whole series ~= FAULT_RATE of shard executions.
        rounds = max(4, round(1.0 / (FAULT_RATE * shards)))
    # Warm first (pool fork, page cache) and pin the fault-free digest.
    digest = fitted.sample(n, rng=123, shards=shards, backend=backend).content_digest()

    def series() -> float:
        start = time.perf_counter()
        for _ in range(rounds):
            table = fitted.sample(n, rng=123, shards=shards, backend=backend)
            if table.content_digest() != digest:
                raise AssertionError("recovered run diverged from the fault-free digest")
        return time.perf_counter() - start

    clean_seconds = series()
    firings = 0
    if fork_available():
        with inject(
            FaultSpec(kind=KIND_KILL, site=SITE_SHARD, index=shards // 2)
        ) as injector:
            faulted_seconds = series()
            firings = injector.fired(KIND_KILL)
    else:  # pragma: no cover - spawn platforms
        faulted_seconds = series()
    return {
        "measure": {
            "rounds": rounds,
            "shards": shards,
            "clean_seconds": clean_seconds,
            "faulted_seconds": faulted_seconds,
            "overhead_ratio": faulted_seconds / clean_seconds,
            "fault_firings": firings,
            "shard_fault_rate": firings / float(rounds * shards),
        },
        "bit_identical": True,  # series() raises on any digest mismatch
        "fork": fork_available(),
        "backend": backend,
    }


# ----------------------------------------------------------- faulted serving
class _FaultedClient(threading.Thread):
    """Closed-loop client recording (status, error code, latency) triples."""

    def __init__(self, host, port, path, bodies, reps, offset, barrier):
        super().__init__(daemon=True)
        self.host, self.port, self.path = host, port, path
        self.bodies, self.reps, self.offset = bodies, reps, offset
        self.barrier = barrier
        self.observations: list = []
        self.failure: str | None = None

    def _request(self, conn, body) -> tuple:
        conn.request(
            "POST", self.path, body=body, headers={"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        payload = json.loads(response.read())
        code = None
        if response.status != 200:
            code = (payload.get("error") or {}).get("code")
        return response.status, code

    def run(self) -> None:
        conn = HTTPConnection(self.host, self.port)
        try:
            self._request(conn, self.bodies[self.offset % len(self.bodies)])  # warm
            self.barrier.wait()
            for i in range(self.reps):
                body = self.bodies[(self.offset + i) % len(self.bodies)]
                start = time.perf_counter()
                try:
                    status, code = self._request(conn, body)
                except (RemoteDisconnected, ConnectionError, BrokenPipeError):
                    conn.close()
                    conn = HTTPConnection(self.host, self.port)
                    status, code = self._request(conn, body)
                self.observations.append(
                    (status, code, time.perf_counter() - start)
                )
        except Exception as exc:  # pragma: no cover - surfaced by the caller
            self.failure = repr(exc)
            try:
                self.barrier.wait(timeout=1)
            except threading.BrokenBarrierError:
                pass
        finally:
            conn.close()


def _workload(model) -> list:
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


def run_faulted_http(
    scale: ExperimentScale,
    clients: int = 4,
    reps: int = 50,
    sample_records: int | None = None,
) -> dict:
    """Closed-loop load with ~1% injected engine faults; all answers typed."""
    model = _fit(scale)
    root = Path(tempfile.mkdtemp(prefix="repro-bench-rel-"))
    model.save(root / "ton.ndpsyn")
    service = QueryService(
        ModelRegistry(root),
        ServiceConfig(
            cache_answers=False,
            breaker_failures=5,
            breaker_reset=0.25,
            engine_options={"sample_records": sample_records or max(scale.n_records, 20_000)},
        ),
    )
    server, _thread = serve_in_thread(service)
    bodies = [json.dumps({"query": query_to_wire(q)}) for q in _workload(model)]
    total = clients * reps
    fault_budget = max(3, round(FAULT_RATE * total))
    path = "/v1/models/ton/query"
    host, port = server.server_address[:2]
    barrier = threading.Barrier(clients + 1)
    offsets = [i * max(1, len(bodies) // max(clients, 1)) for i in range(clients)]
    workers = [
        _FaultedClient(host, port, path, bodies, reps, offsets[i], barrier)
        for i in range(clients)
    ]
    try:
        with inject(
            FaultSpec(kind=KIND_ERROR, site=SITE_QUERY, times=fault_budget)
        ) as injector:
            for worker in workers:
                worker.start()
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                pass
            start = time.perf_counter()
            for worker in workers:
                worker.join()
            elapsed = time.perf_counter() - start
            firings = injector.fired(KIND_ERROR)
    finally:
        server.shutdown()
        server.server_close()

    failures = [w.failure for w in workers if w.failure]
    if failures:
        raise AssertionError(f"client harness failure: {failures[0]}")
    observations = [obs for w in workers for obs in w.observations]
    untyped = [
        (status, code)
        for status, code, _ in observations
        if status != 200 and (status not in (503, 504) or code not in TYPED_FAULT_CODES)
    ]
    statuses: dict = {}
    for status, _, _ in observations:
        statuses[status] = statuses.get(status, 0) + 1
    latencies = np.asarray([latency for _, _, latency in observations])
    p50, p99 = np.percentile(latencies, [50, 99])
    reliability = service.stats()["reliability"]
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
        "service_reliability": reliability,
    }


def run(scale: ExperimentScale, **kwargs) -> dict:
    return {
        "recovery": run_recovery(scale),
        "faulted_http": run_faulted_http(scale, **kwargs),
    }


if __name__ == "__main__":  # pragma: no cover - manual entry point
    result = run(ExperimentScale(n_records=2000, seed=0))
    print(json.dumps(result, indent=2, default=float))
