"""HTTP serving: closed-loop concurrent load over the micro-batched service.

``bench_serving`` measures the in-process batched execution plane; this
experiment measures what a *network client* actually gets.  It stands up the
real stdlib HTTP server (:mod:`repro.serving.http`) over a saved model and
drives it with N closed-loop threaded clients (persistent keep-alive
connections, each firing its next request the moment the previous answer
lands), comparing three service configurations:

- **unbatched** — ``micro_batch=False``, answer cache off: every request
  runs ``engine.run`` by itself (the batch-size-1 baseline);
- **batched** — micro-batching on, cache off: requests that arrive while a
  batch executes ride the next ``run_batch`` execution together;
- **cached** — the batched config with the answer cache on (the production
  default): repeated dashboard queries short-circuit entirely.

Measured per configuration: queries/sec, p50/p99 client-observed latency,
and the service's own batch/cache counters.  Correctness checks: every HTTP
answer is **bit-identical** to a direct, independently constructed
:class:`~repro.serving.QueryEngine` answering the same query
(``answer_from_wire`` -> ``answers_equal``), and a registry hot-reload
invalidates the answer cache (the stale-answer test: overwrite the model
file, observe the served answer change to the new model's).

The workload is the dashboard shape micro-batching is built for: many
clients repeating a small set of distinct queries, weighted toward
sample-path filtered counts/topk over *unpublished* attribute pairs — the
expensive shared-group work where one grouped execution amortizes across
everyone in the batch — plus cheap marginal-path counts, rankings, and
histograms.

Runnable as ``python -m repro.experiments servehttp`` or standalone::

    python -m repro.experiments.http_serving
"""

from __future__ import annotations

import json
import os
import threading
import time
from http.client import HTTPConnection, RemoteDisconnected
from pathlib import Path

import numpy as np

from repro.experiments.runner import ExperimentScale
from repro.experiments.serving import (
    _categorical_values,
    _fit,
    covered_pairs,
    uncovered_pairs,
)
from repro.serving import (
    ModelRegistry,
    Prefer,
    QueryEngine,
    QueryService,
    ServiceConfig,
    answer_from_wire,
    answers_equal,
    count,
    histogram,
    marginal,
    query_to_wire,
    topk,
)
from repro.serving.http import serve_in_thread

#: Distinct queries in the workload (clients cycle through them offset by
#: client id, so concurrent requests overlap heavily in batch groups).
DEFAULT_DISTINCT = 48

#: Generous stall ceiling: client-observed p99 beyond this means the service
#: wedged (deadlocked batcher, lost wakeup), not that it is merely slow.
P99_CEILING_SECONDS = 0.5


def _filter_values(plan, attr: str, rng, k: int = 3) -> list:
    """Up to ``k`` raw values of ``attr`` usable in a ``where`` filter."""
    values = _categorical_values(plan, attr)
    if not values:
        bounds = plan.codecs[attr].bin_bounds()
        if bounds is None:
            return []
        lo, hi = bounds
        values = [float(v) for v in ((np.asarray(lo) + np.asarray(hi)) / 2.0)[:64]]
    if len(values) <= k:
        return list(values)
    picks = rng.choice(len(values), size=k, replace=False)
    return [values[int(i)] for i in picks]


def build_http_workload(model, n_distinct: int = DEFAULT_DISTINCT, seed: int = 0) -> list:
    """A deterministic dashboard workload of ``n_distinct`` queries.

    Slot mix per 8 queries: 4 sample-path filtered counts/topk over
    unpublished pairs (heavy shared-group compute, tiny answers), 2
    marginal-path filtered counts / top-k rankings, 1 histogram, 1 total
    count.  Falls back to published-pair work when the plan covers
    everything (degenerate tiny fits).
    """
    plan = model.plan()
    rng = np.random.default_rng(seed)
    fallback = uncovered_pairs(plan)
    published = covered_pairs(plan)
    numeric = [a for a in ("byt", "pkt", "td", "ts") if a in plan.domain] or list(
        plan.attrs[:1]
    )
    cat_attrs = [a for a in plan.original_schema.names if _categorical_values(plan, a)]
    # Concentrate sample-path work on a handful of pairs: run_batch shares one
    # joint computation per (needed-attrs) group, so a dashboard hammering a
    # few panels (the realistic shape) amortizes far better than queries
    # spread thinly over every unpublished pair.
    filterable_fallback = []
    for a, b in fallback:
        va, vb = _filter_values(plan, a, rng), _filter_values(plan, b, rng)
        if va and vb:
            filterable_fallback.append((a, b, va, vb))
        if len(filterable_fallback) >= 4:
            break

    queries = []
    for i in range(n_distinct):
        slot = i % 8
        if slot < 3 and filterable_fallback:  # sample path: filtered counts
            a, b, va, vb = filterable_fallback[int(rng.integers(len(filterable_fallback)))]
            queries.append(
                count(where={a: va[int(rng.integers(len(va)))], b: vb[int(rng.integers(len(vb)))]})
            )
        elif slot == 3 and filterable_fallback:  # sample path: filtered topk
            a, b, va, vb = filterable_fallback[int(rng.integers(len(filterable_fallback)))]
            queries.append(
                topk(a, k=int(rng.integers(3, 9)), where={b: vb[int(rng.integers(len(vb)))]})
            )
        elif slot == 4 and cat_attrs:  # marginal path: filtered count
            attr = cat_attrs[int(rng.integers(len(cat_attrs)))]
            values = _categorical_values(plan, attr)
            queries.append(count(where={attr: values[int(rng.integers(len(values)))]}))
        elif slot == 5:  # marginal path: topk ranking
            attr = plan.original_schema.names[int(rng.integers(len(plan.original_schema.names)))]
            if attr not in plan.domain:
                attr = numeric[0]
            queries.append(topk(attr, k=int(rng.integers(3, 12))))
        elif slot == 6:  # marginal path: histogram
            queries.append(
                histogram(numeric[int(rng.integers(len(numeric)))], bins=int(rng.integers(6, 16)))
            )
        elif slot == 7 or not published:
            queries.append(count())
        else:  # degenerate plans: published-pair marginal
            a, b = published[int(rng.integers(len(published)))]
            queries.append(marginal(a, b))
    return queries


# --------------------------------------------------------------- load driver
class _Client(threading.Thread):
    """One closed-loop client: fire, wait for the answer, fire again."""

    def __init__(self, host, port, path, bodies, reps, offset, barrier):
        super().__init__(daemon=True)
        self.host, self.port, self.path = host, port, path
        self.bodies, self.reps, self.offset = bodies, reps, offset
        self.barrier = barrier
        self.latencies: list = []
        self.errors: list = []

    def _request(self, conn, body):
        conn.request("POST", self.path, body=body, headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        payload = response.read()
        if response.status != 200:
            self.errors.append((response.status, payload[:200]))

    def run(self) -> None:
        conn = HTTPConnection(self.host, self.port)
        try:
            self._request(conn, self.bodies[self.offset % len(self.bodies)])  # connect+warm
            self.barrier.wait()
            for i in range(self.reps):
                body = self.bodies[(self.offset + i) % len(self.bodies)]
                start = time.perf_counter()
                try:
                    self._request(conn, body)
                except (RemoteDisconnected, ConnectionError, BrokenPipeError):
                    conn.close()
                    conn = HTTPConnection(self.host, self.port)  # one reconnect retry
                    self._request(conn, body)
                self.latencies.append(time.perf_counter() - start)
        except Exception as exc:  # pragma: no cover - surfaced by the caller
            self.errors.append(repr(exc))
            try:
                self.barrier.wait(timeout=1)
            except threading.BrokenBarrierError:
                pass
        finally:
            conn.close()


def run_load(server, model_name: str, bodies: list, clients: int, reps: int) -> dict:
    """Drive one server with ``clients`` closed-loop threads; measure."""
    host, port = server.server_address[:2]
    path = f"/v1/models/{model_name}/query"
    barrier = threading.Barrier(clients + 1)
    offsets = [i * max(1, len(bodies) // max(clients, 1)) for i in range(clients)]
    workers = [
        _Client(host, port, path, bodies, reps, offsets[i], barrier) for i in range(clients)
    ]
    for worker in workers:
        worker.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass  # a client died pre-start; its recorded error is raised below
    start = time.perf_counter()
    for worker in workers:
        worker.join()
    elapsed = time.perf_counter() - start
    errors = [e for w in workers for e in w.errors]
    if errors:
        raise AssertionError(f"{len(errors)} client error(s); first: {errors[0]}")
    latencies = np.asarray([lat for w in workers for lat in w.latencies])
    p50, p99 = np.percentile(latencies, [50, 99])
    total = clients * reps
    return {
        "clients": clients,
        "requests": total,
        "seconds": elapsed,
        "queries_per_second": total / elapsed,
        "p50_ms": float(p50) * 1000.0,
        "p99_ms": float(p99) * 1000.0,
    }


# -------------------------------------------------------------- verification
def verify_bit_identity(server, model_name: str, queries: list, direct: QueryEngine) -> int:
    """Every HTTP answer must be bit-identical to the direct engine's."""
    host, port = server.server_address[:2]
    conn = HTTPConnection(host, port)
    try:
        for query in queries:
            body = json.dumps({"query": query_to_wire(query), "prefer": str(Prefer.AUTO)})
            conn.request(
                "POST",
                f"/v1/models/{model_name}/query",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 200, f"{query!r} failed: {payload}"
            got = answer_from_wire(payload)
            want = direct.run(query)
            assert answers_equal(got, want), (
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
    model_a = _fit(small)
    bumped = ExperimentScale(**{**small.__dict__, "seed": small.seed + 101})
    model_b = _fit(bumped)
    path = tmp / "reload.ndpsyn"
    model_a.save(path)

    service = QueryService(
        ModelRegistry(tmp), ServiceConfig(micro_batch=False, cache_answers=True)
    )
    server, _ = serve_in_thread(service)
    host, port = server.server_address[:2]
    conn = HTTPConnection(host, port)
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


# --------------------------------------------------------------------- runner
def run(
    scale: ExperimentScale | None = None,
    clients: int = 16,
    reps: int = 150,
    n_distinct: int = DEFAULT_DISTINCT,
    sample_records: int | None = None,
) -> dict:
    """Fit once, serve over HTTP, and measure all three configurations."""
    import tempfile

    scale = scale or ExperimentScale()
    model = _fit(scale)
    if sample_records is None:
        # Like the in-process bench, the fallback sample is floored well above
        # tiny fits: a serving tier sizes its cache for answer quality.
        sample_records = max(scale.n_records, 20_000)
    engine_options = {"sample_records": sample_records}

    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        model_path = tmp / "ton.ndpsyn"
        model.save(model_path)
        queries = build_http_workload(model, n_distinct=n_distinct, seed=scale.seed)
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
                row = run_load(server, "ton", bodies, clients=clients, reps=reps)
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
        from repro.core import NetDPSyn

        direct = QueryEngine(NetDPSyn.load(model_path), **engine_options)
        service = QueryService(registry, configs["cached"])
        server, _ = serve_in_thread(service)
        try:
            n_verified = verify_bit_identity(server, "ton", queries, direct)
        finally:
            server.shutdown()
            server.server_close()

        reload_result = check_hot_reload_invalidation(tmp, scale)

    sample_path_groups = len(
        {q.needed_attrs for q in queries if not direct.answerable_from_marginal(q)}
    )
    return {
        "n_records_fit": scale.n_records,
        "n_distinct_queries": len(queries),
        "n_sample_path_groups": sample_path_groups,
        "sample_records": sample_records,
        "configs": results,
        "batch_speedup": (
            results["batched"]["queries_per_second"]
            / results["unbatched"]["queries_per_second"]
        ),
        "cache_speedup": (
            results["cached"]["queries_per_second"]
            / results["unbatched"]["queries_per_second"]
        ),
        "bit_identical": True,  # verify_bit_identity raises otherwise
        "n_verified": n_verified,
        "hot_reload": reload_result,
    }


def main() -> None:
    payload = run(ExperimentScale())
    print(json.dumps(payload, indent=2, default=float))


if __name__ == "__main__":
    main()
