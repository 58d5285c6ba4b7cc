"""Fleet suite: registry, work-queue, multi-worker releases, chaos legs.

The fleet contract under test:

- **Digest-equality.**  A release fanned across a ``LocalCluster`` is
  bit-identical to the single-node serial run at the same shard count —
  regardless of worker count, scheduling order, or a worker killed
  mid-release or mid-heartbeat (its shards re-run on their original
  ``SeedSequence`` children on a surviving worker).
- **Liveness is heartbeat-driven and monotonic.**  A worker that stops
  heartbeating (``SIGSTOP``) is expired exactly once, its shards are
  reassigned, and after ``SIGCONT`` it re-registers and resumes cleanly —
  the registry counts the re-registration.
- **Failures are attributed.**  A deterministically-raising task fails the
  release with a :class:`ShardTaskError` carrying the worker-side
  traceback; an empty fleet fails typed (:class:`FleetError`), not by
  hanging.
- **Serving replicas are interchangeable.**  Round-robin answers are
  bit-identical across replicas, and a killed replica fails over behind its
  circuit breaker without surfacing an error.

Worker-kill legs rely on ``fork`` inheritance of the installed
:class:`FaultInjector` (same as the engine chaos suite) and skip on spawn
platforms.
"""

import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro import NetDPSyn, SynthesisConfig, load_dataset
from repro.engine import ALL_BACKENDS, BACKENDS, ClusterBackend, get_backend
from repro.fleet import (
    FLEET_SCHEMA_VERSION,
    Envelope,
    EnvelopeError,
    FleetError,
    LocalCluster,
    ReplicatedQueryClient,
    ShardQueue,
    WorkerRegistry,
    current_cluster,
    decode_envelope,
    encode_envelope,
    release_seed_specs,
    seed_from_spec,
    seed_spec,
)
from repro.fleet.registry import STATE_ALIVE, STATE_EVICTED, STATE_EXPIRED
from repro.reliability import (
    KIND_ERROR,
    KIND_KILL,
    FaultSpec,
    ShardTaskError,
    inject,
)
from repro.reliability.faults import SITE_FLEET_HEARTBEAT, SITE_SHARD

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="worker-side fault injection requires fork inheritance",
)

N_FIT = 1200
N_SAMPLE = 20_000


@pytest.fixture(scope="module")
def fitted():
    table = load_dataset("ton", n_records=N_FIT, seed=3)
    config = SynthesisConfig(epsilon=2.0)
    config.gum.iterations = 6
    return NetDPSyn(config, rng=11).fit(table)


@pytest.fixture(scope="module")
def serial_digest(fitted):
    return fitted.sample(N_SAMPLE, rng=123, shards=6, backend="serial").content_digest()


def _fleet_digest(fitted, **cluster_kwargs):
    with LocalCluster(**cluster_kwargs):
        table = fitted.sample(N_SAMPLE, rng=123, shards=6, backend="fleet")
    return table.content_digest()


# ------------------------------------------------------------------ messaging
class TestEnvelope:
    def test_round_trip(self):
        env = Envelope(type="assign", sender="w0", seq=3, payload={"index": 1})
        assert decode_envelope(encode_envelope(env)) == env

    def test_rejects_foreign_schema_version(self):
        import json

        frame = json.loads(encode_envelope(Envelope(type="heartbeat", sender="w0")))
        frame["version"] = FLEET_SCHEMA_VERSION + 1
        with pytest.raises(EnvelopeError, match="schema version"):
            decode_envelope(json.dumps(frame).encode())

    def test_rejects_unknown_type_and_garbage(self):
        with pytest.raises(EnvelopeError):
            Envelope(type="gossip", sender="w0")
        with pytest.raises(EnvelopeError):
            decode_envelope(b"{not json")
        with pytest.raises(EnvelopeError):
            decode_envelope(b'["a", "list"]')

    def test_seed_spec_round_trip_is_bit_identical(self):
        root = np.random.SeedSequence(42, spawn_key=(7,))
        rebuilt = seed_from_spec(seed_spec(root))
        a = np.random.default_rng(root).integers(0, 1 << 30, 64)
        b = np.random.default_rng(rebuilt).integers(0, 1 << 30, 64)
        assert (a == b).all()

    def test_release_seed_specs_match_engine_derivation(self):
        # The published assignment must mirror the engine's: GUM child i,
        # decode child shards + i, from one 2*shards spawn.
        shards = 4
        specs = release_seed_specs(np.random.SeedSequence(99), shards)
        children = np.random.SeedSequence(99).spawn(2 * shards)
        assert len(specs) == shards
        for i, spec in enumerate(specs):
            assert seed_from_spec(spec["gum"]).spawn_key == children[i].spawn_key
            assert (
                seed_from_spec(spec["decode"]).spawn_key
                == children[shards + i].spawn_key
            )


# ------------------------------------------------------------------- registry
class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestRegistry:
    def test_heartbeats_keep_a_worker_alive(self):
        clock = FakeClock()
        registry = WorkerRegistry(heartbeat_interval=1.0, liveness_factor=3.0, clock=clock)
        registry.register("w0", pid=1)
        for _ in range(5):
            clock.now += 2.5  # late, but within the 3.0 liveness window
            assert registry.heartbeat("w0")
            assert registry.expire() == []
        assert registry.get("w0").heartbeats == 5

    def test_expiry_fires_once_and_late_heartbeat_does_not_resurrect(self):
        clock = FakeClock()
        registry = WorkerRegistry(heartbeat_interval=1.0, liveness_factor=3.0, clock=clock)
        registry.register("w0", pid=1)
        clock.now += 3.5
        assert registry.expire() == ["w0"]
        assert registry.expire() == []  # newly-expired only, exactly once
        assert registry.get("w0").state == STATE_EXPIRED
        # Its shards were reassigned the moment it expired; a late heartbeat
        # must not quietly resurrect it — it has to re-register.
        assert not registry.heartbeat("w0")
        assert registry.get("w0").state == STATE_EXPIRED

    def test_reregistration_resumes_and_is_counted(self):
        clock = FakeClock()
        registry = WorkerRegistry(heartbeat_interval=1.0, clock=clock)
        registry.register("w0", pid=1)
        clock.now += 10.0
        registry.expire()
        record = registry.register("w0", pid=2)
        assert record.state == STATE_ALIVE
        assert record.registrations == 2
        assert record.pid == 2
        assert registry.heartbeat("w0")

    def test_evicted_workers_are_gone_for_good(self):
        registry = WorkerRegistry()
        registry.register("w0", pid=1)
        registry.evict("w0")
        assert registry.get("w0").state == STATE_EVICTED
        assert not registry.heartbeat("w0")
        assert registry.alive() == []

    def test_alive_filters_by_role(self):
        registry = WorkerRegistry()
        registry.register("w0", pid=1, role="sampler")
        registry.register("w1", pid=2, role="serving", meta={"url": "http://x"})
        assert [r.worker_id for r in registry.alive()] == ["w0", "w1"]
        assert [r.worker_id for r in registry.alive(role="serving")] == ["w1"]


# ----------------------------------------------------------------- work-queue
class TestShardQueue:
    def test_lease_complete_lifecycle(self):
        queue = ShardQueue(3)
        assert [queue.lease("a"), queue.lease("b"), queue.lease("a")] == [0, 1, 2]
        assert queue.lease("c") is None
        assert queue.complete(0, "a") and queue.complete(1, "b") and queue.complete(2, "a")
        assert queue.done
        assert queue.attempts == {0: 1, 1: 1, 2: 1}

    def test_stale_completions_are_rejected(self):
        queue = ShardQueue(2)
        queue.lease("a")
        assert not queue.complete(0, "b")  # not the lease holder
        assert queue.complete(0, "a")
        assert not queue.complete(0, "a")  # already done
        assert not queue.complete(1, "a")  # never leased

    def test_release_worker_requeues_to_front_seeds_untouched(self):
        queue = ShardQueue(4)
        assert queue.lease("dead") == 0
        assert queue.lease("dead") == 1
        assert queue.lease("alive") == 2
        assert queue.release_worker("dead") == [0, 1]
        # Requeued shards lead the pending queue (recovery first), and a
        # re-lease is the *same* index — the task tuple (and its seeds)
        # never changes, only the worker does.
        assert queue.lease("alive") == 0
        assert queue.lease("alive") == 1
        assert queue.attempts[0] == 2 and queue.attempts[3] == 0
        assert queue.max_attempts() == 2

    def test_window_limit_requeue_and_cancel(self):
        queue = ShardQueue(4)
        assert queue.lease("a", limit=1) == 0
        assert queue.lease("b", limit=1) is None  # shard 1 is past the window
        assert queue.complete(0, "a")
        # A result lost after completion runs again, ahead of the window.
        queue.requeue(0)
        assert not queue.done and queue.lease("b", limit=1) == 0
        assert queue.attempts[0] == 2
        queue.cancel()
        assert queue.pending == 0 and queue.lease("a") is None
        assert queue.leased == 1  # the running shard still reports

    def test_held_shard_is_skipped_until_its_backoff_ends(self):
        queue = ShardQueue(3)
        assert queue.lease("a") == 0
        assert queue.release_worker("a") == [0]
        assert queue.held_for() == float("inf")
        queue.hold(0, 60.0)
        assert 59.0 < queue.held_for() <= 60.0
        # The held shard leads the queue but does not block the next one.
        assert queue.lease("b", limit=2) == 1
        assert queue.lease("c", limit=2) is None
        queue.hold(0, 0.0)
        assert queue.held_for() == float("inf")
        assert queue.lease("c", limit=2) == 0
        assert queue.attempts[0] == 2


# ------------------------------------------------------- multi-worker release
class TestFleetRelease:
    def test_fleet_backend_requires_a_cluster(self):
        assert "fleet" in ALL_BACKENDS and "fleet" not in BACKENDS
        backend = get_backend("fleet")
        assert current_cluster() is None
        with pytest.raises(RuntimeError, match="LocalCluster"):
            backend.run_tasks(print, [(1,)])

    def test_two_workers_digest_equal_to_serial(self, fitted, serial_digest):
        assert _fleet_digest(fitted, workers=2) == serial_digest

    def test_four_workers_digest_equal_to_serial(self, fitted, serial_digest):
        assert _fleet_digest(fitted, workers=4) == serial_digest

    def test_deterministic_task_failure_is_attributed(self):
        with LocalCluster(workers=1) as cluster:
            with pytest.raises(ShardTaskError) as excinfo:
                cluster.run_tasks(_raise_task, [(0,), (1,)])
        err = excinfo.value
        assert not err.transient
        assert "injected deterministic failure" in str(err)
        assert "ValueError" in (err.remote_traceback or "")

    def test_empty_fleet_fails_typed_not_hanging(self):
        with LocalCluster(workers=0) as cluster:
            with pytest.raises(FleetError, match="no live fleet workers"):
                cluster.run_tasks(_echo_task, [(1,), (2,)])

    def test_closed_cluster_refuses_releases(self):
        cluster = LocalCluster(workers=0)
        cluster.close()
        with pytest.raises(FleetError, match="closed"):
            cluster.run_tasks(_echo_task, [(1,)])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_close_with_idle_workers_is_prompt_and_clean(self, workers):
        cluster = LocalCluster(workers=workers)
        with cluster:
            deadline = time.monotonic() + 15.0
            while len(cluster.registry.alive()) < workers:
                assert time.monotonic() < deadline, "workers never registered"
                time.sleep(0.02)
            started = time.monotonic()
        elapsed = time.monotonic() - started
        assert elapsed < 0.5
        assert not cluster._accept_thread.is_alive()
        # Every worker left on the shutdown message: none was SIGTERMed.
        assert [proc.exitcode for proc in cluster._procs] == [0] * workers

    def test_generic_tasks_and_shared_payload(self):
        with LocalCluster(workers=2) as cluster:
            out = cluster.run_tasks(_mul_task, [(i,) for i in range(8)], shared=7)
            assert out == [7 * i for i in range(8)]
            # Same payload object again: spooled once, results still right.
            assert cluster.run_tasks(_mul_task, [(3,)], shared=7) == [21]

    def test_spool_dir_exists_only_for_a_pickled_payload(self):
        with LocalCluster(workers=1) as cluster:
            assert cluster.run_tasks(_echo_task, [(1,)]) == [1]
            assert cluster.spool is None
            assert cluster.run_tasks(_mul_task, [(3,)], shared=7) == [21]
            spool = cluster.spool
            assert os.path.isdir(spool)
        assert not os.path.exists(spool)
        # A private cluster's workers start with the payload: no spool.
        payload = [5]
        cluster = LocalCluster.private(1, shared=payload)
        try:
            backend = ClusterBackend("fleet", cluster=cluster)
            assert backend.run_tasks(_mul_task, [(2,)], shared=payload) == [[5, 5]]
            assert cluster.spool is None
        finally:
            cluster.close()

    def test_private_cluster_honours_the_configured_start_method(self):
        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("no spawn start method")
        previous = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method("spawn", force=True)
        try:
            cluster = LocalCluster.private(2, shared=7)
        finally:
            multiprocessing.set_start_method(previous, force=True)
        try:
            assert cluster.run_tasks(_mul_task, [(i,) for i in range(4)], shared=7) == [
                0, 7, 14, 21
            ]
            assert {type(proc).__name__ for proc in cluster._procs} == {"SpawnProcess"}
        finally:
            cluster.close()


def _raise_task(shared, index):
    raise ValueError(f"injected deterministic failure on task {index}")


def _echo_task(shared, value):
    return value


def _mul_task(shared, value):
    return shared * value


# ------------------------------------------------------------------ chaos legs
@fork_only
class TestFleetChaos:
    def test_killed_worker_mid_release_digest_identical(self, fitted, serial_digest):
        with inject(FaultSpec(kind=KIND_KILL, site=SITE_SHARD, index=1)) as injector:
            digest = _fleet_digest(fitted, workers=2)
            assert injector.fired(KIND_KILL) >= 1
        assert digest == serial_digest

    def test_killed_worker_mid_heartbeat_digest_identical(self, fitted, serial_digest):
        # 50 ms heartbeats so the first beat (and the kill) lands mid-release.
        with inject(FaultSpec(kind=KIND_KILL, site=SITE_FLEET_HEARTBEAT)) as injector:
            digest = _fleet_digest(fitted, workers=2, heartbeat_interval=0.05)
            assert injector.fired(KIND_KILL) >= 1
        assert digest == serial_digest

    def test_injected_error_is_remote_attributed(self, fitted):
        with inject(FaultSpec(kind=KIND_ERROR, site=SITE_SHARD, index=0)):
            with LocalCluster(workers=2):
                with pytest.raises(ShardTaskError) as excinfo:
                    fitted.sample(N_SAMPLE, rng=123, shards=6, backend="fleet")
        assert "FaultError" in (excinfo.value.remote_traceback or "")

    def test_stalled_worker_is_expired_shards_reassigned_then_resumes(
        self, fitted, serial_digest
    ):
        """The full eviction-and-return cycle: ``SIGSTOP`` mid-release stops
        the heartbeats, the coordinator expires the worker and reassigns its
        shards (digest still identical), and after ``SIGCONT`` the worker
        re-registers and serves the next release."""
        with LocalCluster(workers=2, heartbeat_interval=0.05) as cluster:
            victim = None
            digests = {}

            def sample():
                digests["value"] = fitted.sample(
                    N_SAMPLE, rng=123, shards=6, backend="fleet"
                ).content_digest()

            runner = threading.Thread(target=sample)
            runner.start()
            deadline = time.monotonic() + 10
            while victim is None and time.monotonic() < deadline:
                holders = cluster.registry.alive()
                if len(holders) == 2 and cluster.stats()["active_release"]:
                    victim = holders[0]
                time.sleep(0.005)
            assert victim is not None, "release never started"
            os.kill(victim.pid, signal.SIGSTOP)
            try:
                runner.join(timeout=60)
                assert not runner.is_alive()
                assert digests["value"] == serial_digest
                # The stall was noticed: the victim left the alive set.
                record = cluster.registry.get(victim.worker_id)
                assert record.state in (STATE_EXPIRED, STATE_EVICTED)
            finally:
                os.kill(victim.pid, signal.SIGCONT)
            # After SIGCONT the worker's dead connection makes it reconnect
            # and re-register under its id: a clean resume, counted.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                record = cluster.registry.get(victim.worker_id)
                if record.state == STATE_ALIVE and record.registrations >= 2:
                    break
                time.sleep(0.02)
            assert record.registrations >= 2, "worker never re-registered"
            table = fitted.sample(N_SAMPLE, rng=123, shards=6, backend="fleet")
            assert table.content_digest() == serial_digest


# ------------------------------------------------------------- fleet serving
@pytest.fixture(scope="module")
def model_root(tmp_path_factory, fitted):
    root = tmp_path_factory.mktemp("fleet-models")
    fitted.save(root / "ton.ndpsyn")
    return root


def _await_replicas(cluster, count, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        urls = cluster.serving_urls()
        if len(urls) >= count:
            return urls
        time.sleep(0.02)
    raise AssertionError(f"only {cluster.serving_urls()} replicas came up")


class TestReplicatedServing:
    QUERY = {"kind": "marginal", "attrs": ["proto"]}

    def test_round_robin_answers_bit_identical(self, model_root):
        with LocalCluster(workers=2, serving_root=model_root) as cluster:
            _await_replicas(cluster, 2)
            client = ReplicatedQueryClient(cluster)
            answers = [client.query("ton", self.QUERY) for _ in range(4)]
            assert all(answer == answers[0] for answer in answers)
            stats = client.stats()
            assert stats["dispatched"] == 4
            assert stats["failovers"] == 0
            assert len(stats["replicas"]) == 2

    def test_failover_after_replica_death(self, model_root):
        with LocalCluster(workers=2, serving_root=model_root) as cluster:
            _await_replicas(cluster, 2)
            client = ReplicatedQueryClient(cluster)
            baseline = client.query("ton", self.QUERY)
            os.kill(cluster.registry.alive()[0].pid, signal.SIGKILL)
            # Every request still answers — the dead replica trips its
            # breaker and traffic fails over to the survivor.
            for _ in range(6):
                assert client.query("ton", self.QUERY) == baseline
            stats = client.stats()
            assert stats["failovers"] >= 1
            states = {r["breaker"]["state"] for r in stats["replicas"]}
            assert "open" in states

    def test_client_requires_replicas(self):
        with pytest.raises(ValueError, match="at least one"):
            ReplicatedQueryClient([])
        with pytest.raises(ValueError, match="http"):
            ReplicatedQueryClient(["ftp://nope"])
