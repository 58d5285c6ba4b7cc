"""QueryService + HTTP transport tests: batching, caching, auth, wire errors.

The service promises: micro-batched answers bit-identical to serial
execution, generation-keyed answer caching that a hot reload invalidates
(the stale-answer test), per-tenant quotas with retry hints, and a typed
error taxonomy the HTTP layer maps to status codes mechanically.  Every
promise is exercised here — at the service level and end-to-end over a real
``ThreadingHTTPServer`` with ``http.client`` connections.
"""

import json
import os
import threading
import time
from http.client import HTTPConnection

import pytest

from repro import NetDPSyn, SynthesisConfig, load_dataset
from repro.experiments.http_serving import _categorical_values, uncovered_pairs
from repro.serving import (
    AnswerCache,
    ApiKeyAuth,
    AuthenticationError,
    MicroBatcher,
    ModelNotFound,
    ModelRegistry,
    Prefer,
    QueryEngine,
    QueryService,
    QueryValidationError,
    QuotaExceeded,
    ServiceConfig,
    Tenant,
    TokenBucket,
    answer_from_wire,
    answers_equal,
    count,
    histogram,
    marginal,
    query_to_wire,
    topk,
)
from repro.serving.http import API_KEY_HEADER, _parse_tenant, serve_in_thread

N_FIT = 1200
SAMPLE_RECORDS = 3000
ENGINE_OPTIONS = {"sample_records": SAMPLE_RECORDS}


def _fit(rng: int) -> NetDPSyn:
    table = load_dataset("ton", n_records=N_FIT, seed=3)
    config = SynthesisConfig(epsilon=2.0)
    config.gum.iterations = 6
    return NetDPSyn(config, rng=rng).fit(table)


@pytest.fixture(scope="module")
def model():
    return _fit(rng=11)


@pytest.fixture(scope="module")
def model_b():
    """A differently-noised fit of the same data (for hot-reload tests)."""
    return _fit(rng=29)


@pytest.fixture(scope="module")
def direct_engine(model):
    return QueryEngine(model, **ENGINE_OPTIONS)


@pytest.fixture(scope="module")
def proto_value(model):
    return _categorical_values(model.plan(), "proto")[0]


@pytest.fixture(scope="module")
def workload(model, proto_value):
    fallback = [p for p in uncovered_pairs(model.plan()) if "tsdiff" not in str(p)]
    queries = [
        count(),
        count(where={"proto": proto_value}),
        topk("dstport", k=5),
        histogram("byt", bins=8),
        count(where={"dstport": 443}),
    ]
    if fallback:
        queries.append(marginal(*fallback[0]))
    return queries


@pytest.fixture()
def model_dir(tmp_path, model):
    model.save(tmp_path / "ton.ndpsyn")
    return tmp_path


def _service(model_dir, **config_kwargs) -> QueryService:
    config_kwargs.setdefault("engine_options", ENGINE_OPTIONS)
    return QueryService(ModelRegistry(model_dir), ServiceConfig(**config_kwargs))


def _touch(path, bump_ns: int = 5_000_000) -> None:
    stat = path.stat()
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + bump_ns))


# ------------------------------------------------------------- service core
def test_service_matches_direct_engine(model_dir, direct_engine, workload):
    service = _service(model_dir, micro_batch=False, cache_answers=False)
    for query in workload:
        assert answers_equal(service.query("ton", query), direct_engine.run(query))


def test_micro_batched_answers_bit_identical_under_concurrency(
    model_dir, direct_engine, workload
):
    service = _service(model_dir, cache_answers=False)
    service.query("ton", workload[0])  # warm the model + sample outside timing
    queries = (workload * 4)[: 4 * len(workload)]
    # Hold the first batch until every other request has queued behind it,
    # so they all ride the second batch together.
    entered, release = threading.Event(), threading.Event()
    run_guarded = service.batcher._runner

    def gated(engine, batch, prefer):
        if not entered.is_set():
            entered.set()
            assert release.wait(10.0)
        return run_guarded(engine, batch, prefer)

    service.batcher._runner = gated
    results: list = [None] * len(queries)
    errors: list = []

    def worker(i):
        try:
            results[i] = service.query("ton", queries[i])
        except Exception as exc:  # pragma: no cover - surfaced in assert
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(queries))]
    threads[0].start()
    assert entered.wait(10.0)
    for t in threads[1:]:
        t.start()

    def queued():
        with service.batcher._lock:
            return sum(len(g.queue) for g in service.batcher._groups.values())

    stop = time.monotonic() + 10.0
    while queued() < len(queries) - 1:
        assert time.monotonic() < stop, f"only {queued()} requests queued"
        time.sleep(0.001)
    release.set()
    for t in threads:
        t.join(10.0)
        assert not t.is_alive()
    assert not errors
    for query, answer in zip(queries, results):
        assert answers_equal(answer, direct_engine.run(query))
    assert service.batcher.stats()["largest_batch"] == len(queries) - 1


def test_answer_cache_hits_are_bit_identical(model_dir, direct_engine):
    service = _service(model_dir, micro_batch=False, cache_answers=True)
    query = topk("dstport", k=4)
    first = service.query("ton", query)
    second = service.query("ton", query)
    assert service.cache.stats()["hits"] == 1
    assert answers_equal(first, second)
    assert answers_equal(first, direct_engine.run(query))


def test_cache_key_includes_prefer(model_dir, proto_value):
    service = _service(model_dir, micro_batch=False, cache_answers=True)
    query = count(where={"proto": proto_value})
    auto = service.query("ton", query)
    sample = service.query("ton", query, prefer="sample")
    assert service.cache.stats()["hits"] == 0  # distinct keys, no collision
    assert auto.provenance == "marginal"
    assert sample.provenance == "sample"
    assert service.query("ton", query, prefer=Prefer.SAMPLE).value == sample.value


def test_stale_answer_impossible_after_hot_reload(model_dir, model_b):
    """THE invalidation contract: a re-deployed model changes served answers."""
    service = _service(model_dir, micro_batch=False, cache_answers=True)
    query = count()
    before = service.query("ton", query)
    assert answers_equal(service.query("ton", query), before)  # cache hit
    assert service.cache.stats()["hits"] == 1
    assert service.registry.generation("ton") == 1

    path = model_dir / "ton.ndpsyn"
    model_b.save(path)
    _touch(path)

    after = service.query("ton", query)
    assert service.registry.generation("ton") == 2
    assert after.value != before.value, "stale answer served after hot reload"
    expected = QueryEngine(model_b, **ENGINE_OPTIONS).run(query)
    assert answers_equal(after, expected)
    # And the new answer is itself cached under the new generation:
    assert answers_equal(service.query("ton", query), after)
    assert service.cache.stats()["hits"] == 2


def test_generation_monotonic_across_reload_and_eviction(model_dir):
    registry = ModelRegistry(model_dir)
    assert registry.generation("ton") == 0  # never loaded
    registry.get("ton")
    assert registry.generation("ton") == 1
    _touch(model_dir / "ton.ndpsyn")
    registry.get("ton")
    assert registry.generation("ton") == 2
    registry.evict("ton")
    assert registry.generation("ton") == 2  # eviction does not reset
    registry.get("ton")
    assert registry.generation("ton") == 3  # re-load counts


def test_lease_returns_engine_with_generation(model_dir):
    registry = ModelRegistry(model_dir)
    engine, generation = registry.lease("ton", **ENGINE_OPTIONS)
    assert generation == 1
    again, generation2 = registry.lease("ton", **ENGINE_OPTIONS)
    assert again is engine and generation2 == 1  # cached per option set


def test_query_batch_reuses_cache_and_matches_run_batch(
    model_dir, direct_engine, workload
):
    service = _service(model_dir, micro_batch=False, cache_answers=True)
    service.query("ton", workload[0])  # pre-populate one cache entry
    answers = service.query_batch("ton", workload)
    expected = direct_engine.run_batch(workload)
    for got, want in zip(answers, expected):
        assert answers_equal(got, want)
    assert service.cache.stats()["hits"] == 1  # the pre-populated entry


def test_validation_errors_surface_on_caller_not_batch(model_dir):
    service = _service(model_dir, cache_answers=False)
    with pytest.raises(QueryValidationError):
        service.query("ton", marginal("nonexistent"))
    with pytest.raises(QueryValidationError):  # categorical histogram
        service.query("ton", histogram("proto", bins=4))
    with pytest.raises(ValueError):  # the taxonomy keeps ValueError call sites
        service.query("ton", count(), prefer="bogus")
    assert service.batcher.stats()["batches"] == 0  # nothing reached a batch


def test_unknown_model_raises_model_not_found(model_dir):
    service = _service(model_dir)
    with pytest.raises(ModelNotFound) as excinfo:
        service.query("nope", count())
    assert excinfo.value.http_status == 404
    assert "ton" in str(excinfo.value)  # lists what IS available
    with pytest.raises(LookupError):  # taxonomy keeps LookupError call sites
        service.model_info("nope")


# ------------------------------------------------------------- auth + quota
def test_token_bucket_refills_on_a_fake_clock():
    now = [0.0]
    bucket = TokenBucket(rate=2.0, burst=2.0, clock=lambda: now[0])
    assert bucket.take() == 0.0
    assert bucket.take() == 0.0
    retry = bucket.take()
    assert retry == pytest.approx(0.5)  # 1 token at 2/s = 0.5s away
    now[0] += 0.5
    assert bucket.take() == 0.0


def test_api_key_auth():
    auth = ApiKeyAuth([Tenant(name="ops", api_key="k1", rate=100.0)])
    assert auth.authenticate("k1").name == "ops"
    with pytest.raises(AuthenticationError):
        auth.authenticate(None)
    with pytest.raises(AuthenticationError):
        auth.authenticate("wrong")
    open_auth = ApiKeyAuth([Tenant(name="ops", api_key="k1")], allow_anonymous=True)
    assert open_auth.authenticate(None).name == "anonymous"
    with pytest.raises(ValueError, match="no api_key"):
        ApiKeyAuth([Tenant(name="keyless")])
    with pytest.raises(ValueError, match="duplicate"):
        ApiKeyAuth([Tenant(name="a", api_key="k"), Tenant(name="b", api_key="k")])


def test_quota_exceeded_carries_retry_after(model_dir):
    registry = ModelRegistry(model_dir)
    service = QueryService(
        registry,
        ServiceConfig(micro_batch=False, engine_options=ENGINE_OPTIONS),
        authenticator=ApiKeyAuth([Tenant(name="slow", api_key="sk", rate=0.001, burst=1)]),
    )
    assert service.query("ton", count(), api_key="sk") is not None
    with pytest.raises(QuotaExceeded) as excinfo:
        service.query("ton", count(), api_key="sk")
    assert excinfo.value.http_status == 429
    assert excinfo.value.retry_after > 0
    assert excinfo.value.code == "quota_exceeded"


# ----------------------------------------------------------------- validation
def test_component_validation():
    with pytest.raises(ValueError):
        MicroBatcher(max_batch=0)
    with pytest.raises(ValueError):
        AnswerCache(max_entries=0)
    with pytest.raises(ValueError):
        Tenant(name="x", rate=0)
    with pytest.raises(ValueError):
        Tenant(name="x", rate=1.0, burst=0.5)
    with pytest.raises(QueryValidationError):
        ServiceConfig(default_prefer="everything")


def test_answer_cache_lru_eviction():
    cache = AnswerCache(max_entries=2)
    for i in range(3):
        cache.put(("m", 1, Prefer.AUTO, count(where={"p": i})), object())
    stats = cache.stats()
    assert stats["entries"] == 2 and stats["evictions"] == 1
    assert cache.get(("m", 1, Prefer.AUTO, count(where={"p": 0}))) is None  # LRU gone


def test_parse_tenant_cli_spec():
    tenant = _parse_tenant("ops:secret:50:100")
    assert (tenant.name, tenant.api_key, tenant.rate, tenant.burst) == (
        "ops",
        "secret",
        50.0,
        100.0,
    )
    assert _parse_tenant("ops:secret").rate is None
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        _parse_tenant("justaname")
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_tenant("ops:key:fast")


# ------------------------------------------------------------- HTTP end-to-end
@pytest.fixture()
def served(model_dir):
    service = _service(model_dir, cache_answers=True)
    server, _thread = serve_in_thread(service)
    conn = HTTPConnection(*server.server_address[:2])
    yield server, service, conn
    conn.close()
    server.shutdown()
    server.server_close()


def _get(conn, path, headers=None):
    conn.request("GET", path, headers=headers or {})
    response = conn.getresponse()
    return response.status, json.loads(response.read()), response


def _post(conn, path, payload, headers=None):
    base = {"Content-Type": "application/json"}
    base.update(headers or {})
    conn.request("POST", path, body=json.dumps(payload), headers=base)
    response = conn.getresponse()
    return response.status, json.loads(response.read()), response


def test_http_query_bit_identical_to_direct_engine(served, direct_engine, workload):
    _server, _service_, conn = served
    for query in workload:
        status, payload, _ = _post(
            conn, "/v1/models/ton/query", {"query": query_to_wire(query)}
        )
        assert status == 200, payload
        assert answers_equal(answer_from_wire(payload), direct_engine.run(query))


def test_http_batch_endpoint(served, direct_engine, workload):
    _server, _service_, conn = served
    status, payload, _ = _post(
        conn,
        "/v1/models/ton/batch",
        {"queries": [query_to_wire(q) for q in workload]},
    )
    assert status == 200, payload
    assert len(payload["answers"]) == len(workload)
    for wire, query in zip(payload["answers"], workload):
        assert answers_equal(answer_from_wire(wire), direct_engine.run(query))


def test_http_error_matrix(served):
    _server, _service_, conn = served
    cases = [
        ("POST", "/v1/models/ton/query", {"query": {"kind": "count", "atrs": []}}, 400, "invalid_query"),
        ("POST", "/v1/models/ton/query", {"nope": 1}, 400, "invalid_query"),
        ("POST", "/v1/models/ton/query", {"query": {"kind": "count", "schema_version": 9}}, 400, "unsupported_schema_version"),
        ("POST", "/v1/models/ton/query", {"query": {"kind": "count"}, "prefer": "psychic"}, 400, "invalid_query"),
        ("POST", "/v1/models/ghost/query", {"query": {"kind": "count"}}, 404, "model_not_found"),
        ("GET", "/v1/ghosts", None, 404, "model_not_found"),
    ]
    for method, path, payload, want_status, want_code in cases:
        if method == "GET":
            status, body, _ = _get(conn, path)
        else:
            status, body, _ = _post(conn, path, payload)
        assert status == want_status, (path, body)
        assert body["error"]["code"] == want_code, (path, body)
    # Invalid JSON body:
    conn.request(
        "POST",
        "/v1/models/ton/query",
        body="{not json",
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    body = json.loads(response.read())
    assert response.status == 400 and body["error"]["code"] == "invalid_query"


def test_http_auth_and_quota(model_dir):
    service = QueryService(
        ModelRegistry(model_dir),
        ServiceConfig(micro_batch=False, engine_options=ENGINE_OPTIONS),
        authenticator=ApiKeyAuth(
            [Tenant(name="slow", api_key="sk", rate=0.001, burst=1)]
        ),
    )
    server, _thread = serve_in_thread(service)
    conn = HTTPConnection(*server.server_address[:2])
    try:
        body = {"query": query_to_wire(count())}
        status, payload, _ = _post(conn, "/v1/models/ton/query", body)
        assert status == 401 and payload["error"]["code"] == "invalid_api_key"
        status, payload, _ = _post(
            conn, "/v1/models/ton/query", body, headers={API_KEY_HEADER: "sk"}
        )
        assert status == 200, payload
        status, payload, response = _post(
            conn, "/v1/models/ton/query", body, headers={API_KEY_HEADER: "sk"}
        )
        assert status == 429 and payload["error"]["code"] == "quota_exceeded"
        assert float(response.headers["Retry-After"]) > 0
        assert payload["error"]["details"]["retry_after"] > 0
    finally:
        conn.close()
        server.shutdown()
        server.server_close()


def test_http_models_info_stats_health(served, model):
    _server, _service_, conn = served
    status, payload, _ = _get(conn, "/healthz")
    assert (status, payload) == (200, {"status": "ok"})

    status, payload, _ = _get(conn, "/v1/models")
    assert status == 200
    assert [m["name"] for m in payload["models"]] == ["ton"]

    status, payload, _ = _get(conn, "/v1/models/ton")
    assert status == 200 and payload["generation"] == 1
    assert set(payload["attrs"]) == set(model.plan().attrs)
    assert all(meta["bins"] >= 1 for meta in payload["attrs"].values())

    _post(conn, "/v1/models/ton/query", {"query": query_to_wire(count())})
    status, payload, _ = _get(conn, "/v1/stats")
    assert status == 200
    assert payload["requests"] >= 1
    assert {"cache", "batcher", "registry"} <= set(payload)


def test_stats_uptime_immune_to_wall_clock_steps(model_dir, monkeypatch):
    """``uptime_seconds`` is monotonic-clock based: an NTP step (or any
    wall-clock jump) must not produce a huge or negative uptime."""
    import repro.serving.service as service_module

    service = _service(model_dir)
    real_time = time.time
    # Wall clock leaps a year backwards, then forwards, mid-lifetime.
    for step in (-365 * 86400.0, +365 * 86400.0):
        monkeypatch.setattr(
            service_module.time, "time", lambda step=step: real_time() + step
        )
        uptime = service.stats()["uptime_seconds"]
        assert 0 <= uptime < 60, uptime


def test_http_stale_answer_invalidated_end_to_end(served, model_b):
    server, service, conn = served
    body = {"query": query_to_wire(count())}
    _, first, _ = _post(conn, "/v1/models/ton/query", body)
    _, again, _ = _post(conn, "/v1/models/ton/query", body)
    assert first == again  # byte-identical wire answers from the cache

    path = service.registry.root / "ton.ndpsyn"
    model_b.save(path)
    _touch(path)

    status, after, _ = _post(conn, "/v1/models/ton/query", body)
    assert status == 200
    assert after["value"] != first["value"]
    expected = QueryEngine(model_b, **ENGINE_OPTIONS).run(count())
    assert answer_from_wire(after).value == expected.value
