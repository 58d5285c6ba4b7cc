"""Fleet suite: work-queue, multi-worker releases, chaos legs.

The fleet contract under test:

- **Digest-equality.**  A release fanned across a ``LocalCluster`` is
  bit-identical to the single-node serial run at the same shard count —
  regardless of worker count, scheduling order, or a worker killed
  mid-release (its shards re-run on their original ``SeedSequence``
  children).
- **One liveness rule.**  A worker is lost when its connection ends or its
  shard overruns ``task_timeout`` (a ``SIGSTOP``-ed worker); the cluster
  kills and replaces it, and a live worker id never registers twice.
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

import gc
import multiprocessing
import os
import signal
import threading
import time
import weakref
from multiprocessing.connection import Client

import pytest

from repro import NetDPSyn, SynthesisConfig, load_dataset
from repro.engine import ALL_BACKENDS, BACKENDS, ClusterBackend, get_backend
from repro.fleet import (
    FleetError,
    LocalCluster,
    ReplicatedQueryClient,
    ShardQueue,
    current_cluster,
)
from repro.reliability import (
    KIND_ERROR,
    KIND_KILL,
    FaultSpec,
    ShardTaskError,
    inject,
)
from repro.reliability.faults import SITE_SHARD

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


def _await_workers(cluster, count, timeout=15.0):
    """The cluster's registered workers, once there are ``count`` of them."""
    deadline = time.monotonic() + timeout
    while len(cluster.workers()) < count:
        assert time.monotonic() < deadline, "workers never registered"
        time.sleep(0.02)
    return cluster.workers()


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
            _await_workers(cluster, workers)
            started = time.monotonic()
        elapsed = time.monotonic() - started
        assert elapsed < 0.5
        assert not cluster._accept_thread.is_alive()
        # Every worker left on the shutdown message: none was SIGTERMed.
        assert [proc.exitcode for proc in cluster._worker_procs.values()] == [0] * workers

    def test_close_kills_a_stopped_worker(self):
        # A stopped process leaves SIGTERM pending, so close() must kill it.
        cluster = LocalCluster(workers=1)
        with cluster:
            (record,) = _await_workers(cluster, 1)
            (proc,) = cluster._worker_procs.values()
            os.kill(record.pid, signal.SIGSTOP)
        try:
            assert proc.exitcode == -signal.SIGKILL
        finally:
            proc.kill()  # a no-op once close() has reaped it

    def test_close_of_stopped_workers_shares_one_deadline(self):
        # Told workers are joined against one 2 s deadline, then the
        # survivors are terminated and killed against one 1 s deadline
        # each: three stopped workers cost what one does (~3 s, not ~9 s).
        cluster = LocalCluster(workers=3)
        with cluster:
            records = _await_workers(cluster, 3)
            procs = list(cluster._worker_procs.values())
            for record in records:
                os.kill(record.pid, signal.SIGSTOP)
                _, status = os.waitpid(record.pid, os.WUNTRACED)
                assert os.WIFSTOPPED(status)
            started = time.monotonic()
        elapsed = time.monotonic() - started
        try:
            assert elapsed < 4.0, f"close() took {elapsed:.2f} s for 3 stopped workers"
            assert [proc.exitcode for proc in procs] == [-signal.SIGKILL] * 3
            assert not any(proc.is_alive() for proc in procs)
        finally:
            for proc in procs:
                proc.kill()  # a no-op once close() has reaped it

    def test_malformed_frames_drop_only_their_connection(self):
        with LocalCluster(workers=1) as cluster:
            (real,) = _await_workers(cluster, 1)
            # A first frame that is not a register message, or is not a
            # pickled (type, payload) pair at all, is dropped at the door.
            for frame in (("complete", {}), ["register"], ("register", {"pid": 1})):
                with Client(cluster.address, authkey=cluster._authkey) as conn:
                    conn.send(frame)
                    with pytest.raises((EOFError, OSError)):
                        conn.recv()
            with Client(cluster.address, authkey=cluster._authkey) as conn:
                conn.send_bytes(b"junk")
                with pytest.raises((EOFError, OSError)):
                    conn.recv()
            # A registered peer that then sends junk is a lost worker.  The
            # cluster did not start it, so it is dropped, not killed: its
            # pid is this test's own.
            with Client(cluster.address, authkey=cluster._authkey) as conn:
                conn.send(("register", {"worker_id": "intruder", "pid": os.getpid()}))
                _await_workers(cluster, 2)
                conn.send_bytes(b"junk")
                with pytest.raises((EOFError, OSError)):
                    conn.recv()
            assert cluster.workers() == [real]
            # A peer registering under a live worker id is refused while
            # that worker holds a lease; the worker keeps it.
            results = []
            runner = threading.Thread(
                target=lambda: results.extend(
                    cluster.run_tasks(_slow_echo_task, [(i,) for i in range(4)])
                )
            )
            runner.start()
            deadline = time.monotonic() + 10
            while not (cluster.stats()["active_release"] or {}).get("leased"):
                assert time.monotonic() < deadline, "release never started"
                time.sleep(0.005)
            with Client(cluster.address, authkey=cluster._authkey) as conn:
                conn.send(("register", {"worker_id": real.worker_id, "pid": os.getpid()}))
                assert conn.poll(10), "the duplicate register was not refused"
                with pytest.raises((EOFError, OSError)):
                    conn.recv()
            runner.join(timeout=30)
            assert results == [0, 1, 2, 3]
            # The dispatcher survived every peer, and no worker was lost:
            # nothing was killed or replaced.
            assert cluster.workers() == [real]
            assert list(cluster._worker_procs) == [real.worker_id]
            assert cluster.run_tasks(_echo_task, [(i,) for i in range(4)]) == [0, 1, 2, 3]

    def test_silent_peer_does_not_block_registration(self):
        # An authenticated peer that never sends its register frame is
        # dropped after a bounded wait (1 s), so a worker queued behind it
        # still joins; the slack covers the worker's own start-up.
        with LocalCluster(workers=0) as cluster:
            with Client(cluster.address, authkey=cluster._authkey):
                cluster.spawn_worker()
                _await_workers(cluster, 1, timeout=5.0)
            assert cluster.run_tasks(_echo_task, [(i,) for i in range(4)]) == [0, 1, 2, 3]

    def test_unpicklable_task_raises_in_the_caller(self):
        with LocalCluster(workers=1) as cluster:
            with pytest.raises(TypeError, match="pickle"):
                cluster.run_tasks(_echo_task, [(threading.Lock(),)])
            assert cluster.run_tasks(_echo_task, [(1,)]) == [1]

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

    def test_spool_keeps_only_the_newest_payload(self):
        refs = []
        with LocalCluster(workers=2) as cluster:
            for k in range(10):
                payload = _Factor(k)
                refs.append(weakref.ref(payload))
                out = cluster.run_tasks(_scale_task, [(i,) for i in range(4)], shared=payload)
                assert out == [k * i for i in range(4)]
                del payload
            gc.collect()
            spooled = os.listdir(cluster.spool)
            assert len(spooled) == 1
            assert [ref() is None for ref in refs] == [True] * 9 + [False]
            # The newest payload stays spooled: a second release of it does
            # not pickle it again.
            assert cluster.run_tasks(_scale_task, [(2,)], shared=refs[-1]()) == [18]
            assert os.listdir(cluster.spool) == spooled

    def test_spooled_payload_outlives_its_open_release(self):
        # Workers load a payload on their first assign of a release, so a
        # newer payload must not unlink the file of a release still open.
        with LocalCluster(workers=1) as cluster:
            first, second = _Factor(2), _Factor(3)
            tasks = [(i,) for i in range(4)]
            stream = cluster.imap_tasks(_scale_task, tasks, shared=first, window=1)
            assert next(stream) == 0
            assert cluster.run_tasks(_scale_task, [(1,)], shared=second) == [3]
            assert len(os.listdir(cluster.spool)) == 2
            assert list(stream) == [2, 4, 6]
            # Its release retired: only the newest payload's file is left.
            assert len(os.listdir(cluster.spool)) == 1

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
            procs = cluster._worker_procs.values()
            assert {type(proc).__name__ for proc in procs} == {"SpawnProcess"}
        finally:
            cluster.close()


def _raise_task(shared, index):
    raise ValueError(f"injected deterministic failure on task {index}")


def _echo_task(shared, value):
    return value


class _Factor:
    """A payload a weak reference can watch."""

    def __init__(self, k):
        self.k = k


def _scale_task(shared, value):
    return shared.k * value


def _slow_echo_task(shared, value):
    time.sleep(0.2)
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

    def test_injected_error_is_remote_attributed(self, fitted):
        with inject(FaultSpec(kind=KIND_ERROR, site=SITE_SHARD, index=0)):
            with LocalCluster(workers=2):
                with pytest.raises(ShardTaskError) as excinfo:
                    fitted.sample(N_SAMPLE, rng=123, shards=6, backend="fleet")
        assert "FaultError" in (excinfo.value.remote_traceback or "")

    def test_stalled_worker_overruns_task_timeout_is_killed_and_replaced(
        self, fitted, serial_digest
    ):
        """``SIGSTOP`` mid-release: the stalled worker's shard overruns
        ``task_timeout``, so the cluster kills the worker, forks a
        replacement and re-runs the shard on its seeds (digest still
        identical); the next release runs on the replacement."""
        with LocalCluster(workers=2, task_timeout=2.0) as cluster:
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
                holders = cluster.workers()
                if len(holders) == 2 and cluster.stats()["active_release"]:
                    victim = holders[0]
                time.sleep(0.005)
            assert victim is not None, "release never started"
            proc = cluster._worker_procs[victim.worker_id]
            os.kill(victim.pid, signal.SIGSTOP)
            runner.join(timeout=60)
            assert not runner.is_alive()
            assert digests["value"] == serial_digest
            # The victim is gone for good: killed, its id never re-registers.
            assert proc.exitcode == -signal.SIGKILL
            assert victim.worker_id not in {record.worker_id for record in cluster.workers()}
            assert len(_await_workers(cluster, 2)) == 2
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
            os.kill(cluster.workers()[0].pid, signal.SIGKILL)
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
