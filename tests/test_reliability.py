"""Chaos suite: fault injection, deterministic recovery, graceful degradation.

The reliability contract under test:

- **Engine recovery is bit-identical.**  A killed worker, a vanished shm
  segment, or an overdue shard resubmits only the failed shards
  on their original ``SeedSequence`` children, so the recovered run's
  content digest equals the fault-free run's — for ``sample()`` and for
  ``sample_stream()`` mid-stream, on per-call and persistent process pools.
- **Failures are attributed.**  Anything crossing ``run_tasks`` out of a
  process pool is a :class:`ShardTaskError` with the shard index, the
  attempt count, and the worker-side traceback text.
- **Serving degrades, never hangs, never 500s untyped.**  Deadlines map to
  504, load shedding and breaker-open to typed 503s with ``Retry-After``;
  while the breaker is open, marginal-path queries still answer.
- **A corrupt model file cannot take a serving model down.**  The registry
  keeps serving the previous generation and reports the failure in stats.

Worker-side fault injection (kill/drop_shm inside pool workers) relies on
``fork`` inheritance of the installed injector; those tests skip on spawn
platforms.  ``REPRO_FAULT_SEED`` pins the retry jitter in CI.
"""

import contextlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from http.client import HTTPConnection
from pathlib import Path

import pytest

from repro import NetDPSyn, SynthesisConfig, load_dataset
from repro.engine import (
    EngineConfig,
    ShardTaskError,
    execute_plan_decoded,
    get_backend,
)
from repro.fleet import LocalCluster
from repro.reliability import (
    KIND_CORRUPT_MODEL,
    KIND_DELAY,
    KIND_DROP_SHM,
    KIND_ERROR,
    KIND_KILL,
    SITE_MODEL_LOAD,
    SITE_QUERY,
    SITE_SHARD,
    SITE_SHM_EXPORT,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    FaultError,
    FaultSpec,
    RetryPolicy,
    inject,
    maybe_fire,
)
from repro.serving import (
    CircuitOpen,
    EngineFaultError,
    ModelRegistry,
    ModelUnavailable,
    Prefer,
    QueryService,
    RequestDeadlineExceeded,
    ServiceConfig,
    ServiceOverloaded,
    answers_equal,
    count,
    topk,
)
from repro.serving.http import DEADLINE_HEADER, serve_in_thread

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="worker-side fault injection relies on fork inheritance",
)

N_FIT = 1200
N_SAMPLE = 1200


def _shm_segments() -> set:
    try:
        return {
            name
            for name in os.listdir("/dev/shm")
            if name.startswith(("psm_", "nds"))
        }
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


@pytest.fixture(scope="module")
def fitted():
    table = load_dataset("ton", n_records=N_FIT, seed=3)
    config = SynthesisConfig(epsilon=2.0)
    config.gum.iterations = 6
    return NetDPSyn(config, rng=11).fit(table)


@pytest.fixture()
def model_dir(tmp_path, fitted):
    fitted.save(tmp_path / "ton.ndpsyn")
    return tmp_path


def _service(model_dir, **config_kwargs) -> QueryService:
    config_kwargs.setdefault("engine_options", {"sample_records": 3000})
    return QueryService(ModelRegistry(model_dir), ServiceConfig(**config_kwargs))


# ------------------------------------------------------------ policy units
class FakeClock:
    def __init__(self) -> None:
        self.t = 100.0

    def __call__(self) -> float:
        return self.t


class TestRetryPolicy:
    def test_same_seed_same_delays(self):
        a = RetryPolicy(max_retries=3, seed=7)
        b = RetryPolicy(max_retries=3, seed=7)
        assert [a.delay(i) for i in (1, 2, 3)] == [b.delay(i) for i in (1, 2, 3)]

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.3, jitter=0.0)
        assert [policy.delay(i) for i in (1, 2, 3, 4)] == [0.1, 0.2, 0.3, 0.3]

    def test_jitter_stretches_within_band(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=1.0, jitter=0.5, seed=1)
        for attempt in range(1, 20):
            assert 0.1 <= policy.delay(attempt) <= 0.15 + 1e-12

    def test_retry_budget(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.retryable(1) and policy.retryable(2) and not policy.retryable(3)
        assert not RetryPolicy(max_retries=0).retryable(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


class TestDeadline:
    def test_remaining_and_expiry(self):
        clock = FakeClock()
        deadline = Deadline(5.0, clock=clock)
        assert deadline.remaining() == pytest.approx(5.0)
        clock.t += 4.0
        assert not deadline.expired
        deadline.check()  # no raise
        clock.t += 2.0
        assert deadline.expired
        assert deadline.remaining() == 0.0
        with pytest.raises(DeadlineExceeded, match="fetch"):
            deadline.check("fetch")

    def test_clamp(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        assert deadline.clamp(5.0) == pytest.approx(2.0)
        assert deadline.clamp(0.5) == pytest.approx(0.5)
        assert deadline.clamp(None) == pytest.approx(2.0)

    def test_after_none_is_unbounded(self):
        assert Deadline.after(None) is None
        assert Deadline.after(1.0).budget == 1.0


class TestCircuitBreaker:
    def _breaker(self, **kwargs):
        clock = FakeClock()
        kwargs.setdefault("failure_threshold", 2)
        kwargs.setdefault("reset_timeout", 10.0)
        return CircuitBreaker(clock=clock, **kwargs), clock

    def test_trips_after_consecutive_failures(self):
        breaker, _ = self._breaker()
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.stats()["opens"] == 1
        assert breaker.stats()["rejections"] == 1

    def test_success_resets_the_count(self):
        breaker, _ = self._breaker()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_then_close(self):
        breaker, clock = self._breaker()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.retry_after() == pytest.approx(10.0)
        clock.t += 10.0
        assert breaker.state == "half_open"
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # only one probe slot
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_failure_reopens(self):
        breaker, clock = self._breaker()
        breaker.record_failure()
        breaker.record_failure()
        clock.t += 10.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.stats()["opens"] == 2
        assert breaker.retry_after() == pytest.approx(10.0)


# ---------------------------------------------------------- injector units
class TestFaultInjector:
    def test_fires_exactly_times(self):
        with inject(
            FaultSpec(kind="delay", site=SITE_SHARD, times=2, delay_seconds=0.0)
        ) as injector:
            assert injector.fire(SITE_SHARD) is not None
            assert injector.fire(SITE_SHARD) is not None
            assert injector.fire(SITE_SHARD) is None
            assert injector.fired() == 2

    def test_index_matching(self):
        with inject(FaultSpec(kind="delay", site=SITE_SHARD, index=3, delay_seconds=0.0)) as injector:
            assert injector.fire(SITE_SHARD, index=1) is None
            assert injector.fire(SITE_SHARD, index=3) is not None
            assert injector.fire(SITE_SHARD, index=3) is None

    def test_error_kind_raises(self):
        with inject(FaultSpec(kind=KIND_ERROR, site=SITE_QUERY)):
            with pytest.raises(FaultError):
                maybe_fire(SITE_QUERY)

    def test_uninstalled_is_noop(self):
        assert maybe_fire(SITE_SHARD) is None

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="nope", site=SITE_SHARD)
        with pytest.raises(ValueError):
            FaultSpec(kind=KIND_KILL, site=SITE_SHARD, times=0)


# ------------------------------------------------------- engine attribution
def _chaos_task(shared, index):
    maybe_fire(SITE_SHARD, index=index)
    return index * 2


def _boom_task(shared, seed):
    if seed == 1:
        raise RuntimeError("chaos boom")
    return seed


def _lock_task(shared, seed):
    return threading.Lock()


def _refuse_to_load():
    raise ValueError("refuses to unpickle")


class _Unloadable:
    """Pickles fine; loading it raises."""

    def __reduce__(self):
        return (_refuse_to_load, ())


def _unloadable_task(shared, seed):
    return _Unloadable()


class TestShardAttribution:
    def test_process_wraps_failures_in_shard_task_error(self):
        runner = get_backend("process", 2)
        try:
            with pytest.raises(ShardTaskError, match="chaos boom") as excinfo:
                runner.run_tasks(_boom_task, [(0,), (1,), (2,)])
        finally:
            runner.close()
        error = excinfo.value
        assert error.index == 1
        assert error.transient is False
        assert error.attempts == 1
        assert isinstance(error.__cause__, RuntimeError)
        assert error.remote_traceback and "chaos boom" in error.remote_traceback

    def test_serial_keeps_raw_exceptions(self):
        runner = get_backend("serial")
        with pytest.raises(RuntimeError, match="chaos boom"):
            runner.run_tasks(_boom_task, [(0,), (1,), (2,)])

    @fork_only
    def test_killed_worker_recovers_run_tasks(self):
        runner = get_backend("process", 2, retry=RetryPolicy(max_retries=2, base_delay=0.01))
        try:
            with inject(FaultSpec(kind=KIND_KILL, site=SITE_SHARD, index=1)) as injector:
                assert runner.run_tasks(_chaos_task, [(0,), (1,), (2,)]) == [0, 2, 4]
                assert injector.fired(KIND_KILL) == 1
        finally:
            runner.close()

    @fork_only
    def test_exhausted_retries_raise_transient_shard_error(self):
        runner = get_backend("process", 2, retry=RetryPolicy(max_retries=1, base_delay=0.01))
        try:
            with inject(FaultSpec(kind=KIND_KILL, site=SITE_SHARD, index=1, times=5)):
                with pytest.raises(ShardTaskError) as excinfo:
                    runner.run_tasks(_chaos_task, [(0,), (1,), (2,)])
        finally:
            runner.close()
        error = excinfo.value
        assert error.transient is True
        assert error.index == 1
        assert error.attempts == 2

    @fork_only
    @pytest.mark.parametrize("backend", ["process", "fleet"])
    def test_requeued_shard_waits_out_the_backoff(self, backend):
        class Recording(RetryPolicy):
            def delay(self, attempt):
                attempts.append(attempt)
                return super().delay(attempt)

        attempts = []
        policy = Recording(max_retries=2, base_delay=0.4, jitter=0.0)
        # Inject first: fleet workers inherit the injector when they fork.
        with inject(FaultSpec(kind=KIND_KILL, site=SITE_SHARD, index=1)), _runtime(backend):
            runner = get_backend(backend, 2, retry=policy)
            started = time.monotonic()
            assert runner.run_tasks(_chaos_task, [(0,), (1,), (2,)]) == [0, 2, 4]
            elapsed = time.monotonic() - started
        assert attempts == [1]
        assert elapsed >= 0.4

    @pytest.mark.parametrize(
        "backend, task, cause, text",
        [
            pytest.param("process", _lock_task, TypeError, "cannot pickle", id="process"),
            pytest.param("fleet", _lock_task, TypeError, "cannot pickle", id="fleet"),
            pytest.param(
                "process", _unloadable_task, ValueError, "refuses to unpickle", id="process-loads"
            ),
            pytest.param(
                "fleet", _unloadable_task, ValueError, "refuses to unpickle", id="fleet-loads"
            ),
        ],
    )
    def test_unpicklable_result_fails_deterministically(
        self, backend, task, cause, text, monkeypatch
    ):
        # A result that cannot pickle, or pickles but cannot load, would do
        # so from any worker: the shard fails once, attributed, and no
        # worker is lost or replaced.
        forked = []
        spawn = LocalCluster.spawn_worker

        def counting_spawn(cluster):
            forked.append(spawn(cluster))
            return forked[-1]

        monkeypatch.setattr(LocalCluster, "spawn_worker", counting_spawn)
        with _runtime(backend):
            runner = get_backend(backend, 2, retry=2)
            with pytest.raises(ShardTaskError) as excinfo:
                runner.run_tasks(task, [(0,), (1,)])
        error = excinfo.value
        assert error.transient is False
        assert error.attempts == 1
        assert text in (error.remote_traceback or "")
        assert isinstance(error.__cause__, cause)
        assert len(forked) == 2


# --------------------------------------------------- digest-identical chaos
def _session(fitted, backend):
    """``process``: a per-call pool.  ``shared`` (an accepted spelling of
    ``process``): one persistent pool opened under that name, as the release
    benchmark opens it, so recovery must rebuild the pool in place."""
    if backend == "shared":
        return fitted.pool(backend="shared", max_workers=2)
    return contextlib.nullcontext()


@fork_only
class TestRecoveryDigestIdentity:
    """Recovered runs are bit-identical to fault-free runs, /dev/shm clean."""

    @pytest.fixture(scope="class")
    def baseline(self, fitted):
        return fitted.sample(N_SAMPLE, rng=123, shards=4, backend="process").content_digest()

    @pytest.mark.parametrize("backend", ["process", "shared"])
    def test_killed_worker_sample(self, fitted, baseline, backend):
        before = _shm_segments()
        with inject(FaultSpec(kind=KIND_KILL, site=SITE_SHARD, index=2)) as injector:
            with _session(fitted, backend):
                table = fitted.sample(N_SAMPLE, rng=123, shards=4, backend=backend)
            assert injector.fired(KIND_KILL) == 1
        assert table.content_digest() == baseline
        assert _shm_segments() == before

    def test_persistent_pool_replaces_a_lost_worker(self, fitted, baseline):
        # One worker: without a replacement the first kill would leave the
        # pool empty and the release would fail.
        with inject(FaultSpec(kind=KIND_KILL, site=SITE_SHARD, index=2)) as injector:
            with fitted.pool(backend="process", max_workers=1):
                first = fitted.sample(N_SAMPLE, rng=123, shards=4)
                second = fitted.sample(N_SAMPLE, rng=123, shards=4)
            assert injector.fired(KIND_KILL) == 1
        assert first.content_digest() == second.content_digest() == baseline

    def test_dropped_shm_segment_sample(self, fitted, baseline):
        before = _shm_segments()
        with inject(FaultSpec(kind=KIND_DROP_SHM, site=SITE_SHM_EXPORT)) as injector:
            table = fitted.sample(N_SAMPLE, rng=123, shards=4, backend="process")
            assert injector.fired(KIND_DROP_SHM) == 1
        assert table.content_digest() == baseline
        assert _shm_segments() == before

    @pytest.mark.parametrize("backend", ["process", "shared"])
    def test_killed_worker_mid_stream(self, fitted, backend):
        clean = [
            part.content_digest()
            for part in fitted.sample_stream(
                N_SAMPLE, chunk=300, rng=5, shards=4, backend=backend
            )
        ]
        before = _shm_segments()
        with inject(FaultSpec(kind=KIND_KILL, site=SITE_SHARD, index=2)) as injector:
            with _session(fitted, backend):
                faulted = [
                    part.content_digest()
                    for part in fitted.sample_stream(
                        N_SAMPLE, chunk=300, rng=5, shards=4, backend=backend
                    )
                ]
            assert injector.fired(KIND_KILL) == 1
        assert faulted == clean
        assert _shm_segments() == before


def _runtime(backend):
    """``fleet`` needs an active cluster; ``process`` makes its own."""
    if backend == "fleet":
        return LocalCluster(workers=2)
    return contextlib.nullcontext()


#: A stall far past the timeout below, so the overdue shard is never waited on.
STALL_S = 3.0
TIMEOUT_S = 0.5


@fork_only
class TestTaskTimeout:
    """``EngineConfig.task_timeout``: an overdue shard re-runs on its seeds."""

    def _run(self, fitted, backend, **engine):
        config = EngineConfig(backend=backend, shards=4, task_timeout=TIMEOUT_S, **engine)
        return execute_plan_decoded(fitted.plan(), config, n=N_SAMPLE, rng=123).table

    @pytest.mark.parametrize("backend", ["process", "fleet"])
    def test_overdue_shard_reruns_digest_identical(self, fitted, backend):
        baseline = fitted.sample(N_SAMPLE, rng=123, shards=4, backend="serial")
        children = set(multiprocessing.active_children())
        stall = FaultSpec(kind=KIND_DELAY, site=SITE_SHARD, index=1, delay_seconds=STALL_S)
        with inject(stall) as injector:
            with _runtime(backend):
                started = time.monotonic()
                table = self._run(fitted, backend)
                elapsed = time.monotonic() - started
            assert injector.fired(KIND_DELAY) == 1
        assert elapsed < STALL_S
        assert table.content_digest() == baseline.content_digest()
        assert set(multiprocessing.active_children()) <= children

    @pytest.mark.parametrize("backend", ["process", "fleet"])
    def test_no_retries_fails_transient(self, fitted, backend):
        stall = FaultSpec(kind=KIND_DELAY, site=SITE_SHARD, index=1, delay_seconds=STALL_S)
        with inject(stall):
            with _runtime(backend):
                with pytest.raises(ShardTaskError) as excinfo:
                    self._run(fitted, backend, max_task_retries=0)
        assert excinfo.value.transient is True
        assert excinfo.value.index == 1
        assert excinfo.value.attempts == 1


# ------------------------------------------------------------ service chaos
class TestServiceReliability:
    def test_engine_fault_is_typed_and_breaker_trips(self, model_dir):
        service = _service(
            model_dir,
            micro_batch=False,
            cache_answers=False,
            breaker_failures=2,
            breaker_reset=60.0,
        )
        with inject(FaultSpec(kind=KIND_ERROR, site=SITE_QUERY, times=2)):
            for _ in range(2):
                with pytest.raises(EngineFaultError):
                    service.query("ton", count())
            assert service.breaker.state == "open"
            # Degraded serving: the marginal path still answers...
            degraded = service.query("ton", count())
            assert degraded.provenance == "marginal"
            # ...but sample-path work is refused with a typed, retryable 503.
            with pytest.raises(CircuitOpen) as excinfo:
                service.query("ton", count(), prefer=Prefer.SAMPLE)
            assert excinfo.value.retry_after > 0
        reliability = service.stats()["reliability"]
        assert reliability["engine_faults"] == 2
        assert reliability["degraded_answers"] == 1
        assert reliability["breaker"]["state"] == "open"

    def test_degraded_answer_matches_healthy_path(self, model_dir):
        service = _service(
            model_dir, micro_batch=False, cache_answers=False, breaker_failures=1,
            breaker_reset=60.0,
        )
        healthy = service.query("ton", topk("dstport", k=5))
        with inject(FaultSpec(kind=KIND_ERROR, site=SITE_QUERY)):
            with pytest.raises(EngineFaultError):
                service.query("ton", count())
        assert answers_equal(service.query("ton", topk("dstport", k=5)), healthy)

    def test_breaker_recovers_through_half_open_probe(self, model_dir):
        service = _service(model_dir, micro_batch=False, cache_answers=False)
        clock = FakeClock()
        service.breaker = CircuitBreaker(failure_threshold=1, reset_timeout=0.05, clock=clock)
        with inject(FaultSpec(kind=KIND_ERROR, site=SITE_QUERY)):
            with pytest.raises(EngineFaultError):
                service.query("ton", count())
        assert service.breaker.state == "open"
        clock.t += 0.06
        answer = service.query("ton", count())  # the half-open probe
        assert answer is not None
        assert service.breaker.state == "closed"

    def test_load_shedding_at_the_inflight_cap(self, model_dir):
        service = _service(model_dir, micro_batch=False, max_inflight=1)
        primed = service.query("ton", count())  # prime the cache
        with service._admit():
            with pytest.raises(ServiceOverloaded) as excinfo:
                service.query("ton", count(where={"dstport": 443}))
            assert excinfo.value.retry_after > 0
            # Cache hits are never shed.
            assert answers_equal(service.query("ton", count()), primed)
        assert service.stats()["reliability"]["shed"] == 1
        # The slot was released: fresh work flows again.
        assert service.query("ton", count(where={"dstport": 443})) is not None

    def test_default_request_deadline_maps_to_504(self, model_dir):
        service = _service(model_dir, micro_batch=False, request_deadline=1e-7)
        with pytest.raises(RequestDeadlineExceeded):
            service.query("ton", count())
        assert service.stats()["reliability"]["deadline_hits"] == 1

    def test_explicit_deadline_overrides(self, model_dir):
        service = _service(model_dir, micro_batch=False)
        with pytest.raises(RequestDeadlineExceeded):
            service.query("ton", count(), deadline=Deadline(0.0))
        # And an ample explicit deadline passes.
        assert service.query("ton", count(), deadline=Deadline(30.0)) is not None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(request_deadline=0.0)
        with pytest.raises(ValueError):
            ServiceConfig(max_inflight=0)
        with pytest.raises(ValueError):
            ServiceConfig(breaker_failures=0)
        with pytest.raises(ValueError):
            ServiceConfig(breaker_reset=0.0)


# ----------------------------------------------------------- registry chaos
class TestRegistryReloadIsolation:
    def test_corrupt_rewrite_serves_previous_generation(self, model_dir):
        registry = ModelRegistry(model_dir)
        model = registry.get("ton")
        path = model_dir / "ton.ndpsyn"
        good = path.read_bytes()

        path.write_bytes(good[: len(good) // 2])  # mid-rewrite / corrupt
        assert registry.get("ton") is model
        assert registry.stats.load_failures == 1
        assert registry.stats.stale_serves == 1
        assert registry.stats.last_load_error

        # A stably-corrupt file does not trigger a reload storm.
        assert registry.get("ton") is model
        assert registry.stats.load_failures == 1
        assert registry.stats.stale_serves == 2

        # The completed rewrite rolls forward normally.
        path.write_bytes(good)
        recovered = registry.get("ton")
        assert recovered is not model
        assert registry.stats.reloads == 1
        assert registry.generation("ton") == 2

    def test_never_loaded_corrupt_file_is_typed_unavailable(self, tmp_path):
        (tmp_path / "junk.ndpsyn").write_bytes(b"definitely not a model" * 10)
        registry = ModelRegistry(tmp_path)
        with pytest.raises(ModelUnavailable) as excinfo:
            registry.get("junk")
        assert excinfo.value.retry_after > 0
        assert registry.stats.load_failures == 1

    def test_injected_corruption_at_the_load_site(self, tmp_path, fitted):
        fitted.save(tmp_path / "doomed.ndpsyn")
        registry = ModelRegistry(tmp_path)
        with inject(
            FaultSpec(kind=KIND_CORRUPT_MODEL, site=SITE_MODEL_LOAD)
        ) as injector:
            with pytest.raises(ModelUnavailable):
                registry.get("doomed")
            assert injector.fired(KIND_CORRUPT_MODEL) == 1

    def test_deleted_file_stays_a_404_not_found(self, model_dir):
        registry = ModelRegistry(model_dir)
        registry.get("ton")
        (model_dir / "ton.ndpsyn").unlink()
        with pytest.raises(FileNotFoundError):
            registry.get("ton")


# --------------------------------------------------------------- HTTP chaos
@pytest.fixture()
def served(model_dir):
    service = _service(model_dir, micro_batch=False, cache_answers=False)
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


COUNT_WIRE = {"query": {"kind": "count"}}


class TestHTTPReliability:
    def test_model_unavailable_wire_schema(self, served, model_dir):
        _server, _service_, conn = served
        (model_dir / "busted.ndpsyn").write_bytes(b"garbage bytes, not a model")
        status, payload, response = _post(conn, "/v1/models/busted/query", COUNT_WIRE)
        assert status == 503
        assert payload["error"]["code"] == "model_unavailable"
        assert payload["error"]["details"]["retry_after"] > 0
        assert response.getheader("Retry-After") is not None

    def test_deadline_header_maps_to_504(self, served):
        _server, _service_, conn = served
        status, payload, _ = _post(
            conn, "/v1/models/ton/query", COUNT_WIRE, headers={DEADLINE_HEADER: "0.0001"}
        )
        assert status == 504
        assert payload["error"]["code"] == "deadline_exceeded"

    def test_bad_deadline_header_is_a_400(self, served):
        _server, _service_, conn = served
        for bad in ("woof", "-5"):
            status, payload, _ = _post(
                conn, "/v1/models/ton/query", COUNT_WIRE, headers={DEADLINE_HEADER: bad}
            )
            assert status == 400
            assert payload["error"]["code"] == "invalid_query"

    def test_engine_fault_is_a_typed_503(self, served):
        _server, _service_, conn = served
        with inject(FaultSpec(kind=KIND_ERROR, site=SITE_QUERY)):
            status, payload, _ = _post(conn, "/v1/models/ton/query", COUNT_WIRE)
        assert status == 503
        assert payload["error"]["code"] == "engine_fault"

    def test_readyz_flips_on_drain(self, served):
        server, _service_, conn = served
        status, payload, _ = _get(conn, "/readyz")
        assert status == 200
        assert payload == {"status": "ready", "breaker": "closed"}
        server.begin_drain()
        status, payload, _ = _get(conn, "/readyz")
        assert status == 503
        assert payload == {"status": "draining"}
        # Liveness is unaffected by draining.
        status, _, _ = _get(conn, "/healthz")
        assert status == 200

    def test_stats_expose_reliability_section(self, served):
        _server, _service_, conn = served
        status, payload, _ = _get(conn, "/v1/stats")
        assert status == 200
        reliability = payload["reliability"]
        assert reliability["breaker"]["state"] == "closed"
        assert reliability["inflight"] >= 0
        assert "load_failures" in payload["registry"]

    def test_drain_waits_for_inflight_requests(self, served):
        server, _service_, _conn = served
        server.request_began()
        assert server.await_drain(grace=0.1) is False
        server.request_ended()
        assert server.await_drain(grace=0.1) is True


def test_cli_sigterm_drains_and_exits_zero(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serving.http", str(tmp_path), "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    with proc:  # closes the stdout pipe on the way out
        try:
            line = proc.stdout.readline()  # blocks until the server announces itself
            assert "serving" in line
            proc.send_signal(signal.SIGTERM)
            returncode = proc.wait(timeout=20)
        finally:
            if proc.poll() is None:  # pragma: no cover - hang guard
                proc.kill()
                proc.wait()
        rest = proc.stdout.read()
    assert returncode == 0, rest
    assert "draining" in rest
    assert "shutdown clean" in rest
