"""LocalCluster: the fleet coordinator, with subprocess workers for CI.

One :class:`LocalCluster` owns the whole coordinator side of the fleet
protocol (:mod:`repro.fleet.messaging`):

- a :class:`multiprocessing.connection.Listener` on localhost with an HMAC
  ``authkey`` — the same channel a multi-host deployment would run over TCP;
- a :class:`~repro.fleet.registry.WorkerRegistry` driven by worker
  heartbeats, with monotonic liveness expiry;
- a single **dispatcher thread** that owns all connection I/O and all
  mutable release state (multiplexed via ``connection.wait``), so the
  scheduler needs no locking discipline beyond the hand-off queues at its
  edges;
- ``workers`` forked subprocesses running :func:`~repro.fleet.worker.worker_main`
  (fork start method where available, so the chaos suite's installed
  :class:`~repro.reliability.FaultInjector` is inherited).

:meth:`run_tasks` is the release primitive the ``fleet`` engine backend
delegates to: the shared payload (the synthesis plan) is spooled **once per
cluster lifetime per object** and shipped to each worker once; each shard
task — carrying its own pre-spawned seed children — is assigned to the next
idle live worker.  A worker that dies (connection EOF), stalls past its
heartbeat liveness window, or exceeds ``task_timeout`` is evicted and its
unfinished shards are requeued *unchanged* — seed-preserving reassignment,
bounded by the backend's :class:`~repro.reliability.RetryPolicy` budget —
so a recovered release is bit-identical to a fault-free one.  A task
function that raises is deterministic and fails the release with a
:class:`~repro.reliability.ShardTaskError` carrying the worker-side
traceback, exactly like the single-node pools.

Entering the context installs the cluster as the process-wide *current
cluster* so ``synth.sample(..., backend="fleet")`` finds it::

    with LocalCluster(workers=4):
        table = synth.sample(n, rng=7, shards=8, backend="fleet")
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import shutil
import socket
import tempfile
import threading
import time
from collections import deque
from multiprocessing.connection import Listener, wait

from repro.fleet.messaging import (
    MSG_ASSIGN,
    MSG_COMPLETE,
    MSG_FAILED,
    MSG_HEARTBEAT,
    MSG_REGISTER,
    MSG_SHUTDOWN,
    MSG_WELCOME,
    Envelope,
    EnvelopeError,
    decode_envelope,
    encode_envelope,
    pack_task,
)
from repro.fleet.queue import ShardQueue
from repro.fleet.registry import WorkerRegistry
from repro.fleet.worker import worker_main
from repro.reliability import RetryPolicy, ShardTaskError

#: The active cluster ``get_backend("fleet")`` resolves against.
_CURRENT: "LocalCluster | None" = None


def current_cluster() -> "LocalCluster | None":
    """The cluster installed by the innermost ``LocalCluster`` context."""
    return _CURRENT


class FleetError(RuntimeError):
    """A fleet-level protocol or capacity failure."""


class _Release:
    """One ``run_tasks`` call in flight: tasks, queue, results, outcome."""

    def __init__(
        self,
        seq: int,
        fn,
        tasks: list[tuple],
        shared_path: str | None,
        task_timeout: float | None,
        retry: RetryPolicy,
    ) -> None:
        self.seq = seq
        self.fn_module = fn.__module__
        self.fn_name = fn.__qualname__
        self.packed = [pack_task(task) for task in tasks]
        self.shared_path = shared_path
        self.task_timeout = task_timeout
        self.retry = retry
        self.queue = ShardQueue(len(tasks))
        self.results: list = [None] * len(tasks)
        self.lease_started: dict[int, float] = {}
        self.error: BaseException | None = None
        self.done = threading.Event()


class LocalCluster:
    """Coordinator plus ``workers`` local subprocess fleet members.

    ``serving_root`` (a directory of ``.ndpsyn`` model files) additionally
    makes every worker stand up an HTTP query replica and advertise its URL
    at registration; :meth:`serving_urls` lists the live replicas for the
    round-robin client (:mod:`repro.fleet.serving`).
    """

    def __init__(
        self,
        workers: int = 2,
        heartbeat_interval: float = 0.25,
        liveness_factor: float = 4.0,
        serving_root=None,
        task_timeout: float | None = None,
        retry: "RetryPolicy | int | None" = None,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if retry is None:
            retry = RetryPolicy()
        elif not isinstance(retry, RetryPolicy):
            retry = RetryPolicy(max_retries=int(retry))
        self.retry = retry
        self.task_timeout = task_timeout
        self._n_initial = int(workers)
        self._serving_root = serving_root
        self._authkey = os.urandom(16)
        self._listener = Listener(("127.0.0.1", 0), authkey=self._authkey)
        self.address = self._listener.address
        self.registry = WorkerRegistry(
            heartbeat_interval=heartbeat_interval, liveness_factor=liveness_factor
        )
        self.spool = tempfile.mkdtemp(prefix="repro-fleet-")
        self._registry_lock = threading.Lock()
        self._release_lock = threading.Lock()
        self._wake_r, self._wake_w = multiprocessing.Pipe(duplex=False)
        self._inbox: deque = deque()  # ("join", conn, envelope) | ("release", r)
        self._conns: dict = {}  # conn -> worker_id
        self._worker_conns: dict[str, object] = {}
        self._active: _Release | None = None
        self._running = True
        self._seq = 0
        self._release_seq = 0
        self._next_worker = 0
        self._procs: list = []
        #: id(shared) -> (strong ref, spool path): each payload ships once.
        self._shared_paths: dict[int, tuple] = {}
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._dispatch_thread = threading.Thread(target=self._dispatch_loop, daemon=True)
        self._accept_thread.start()
        self._dispatch_thread.start()

    # -------------------------------------------------------------- lifecycle
    def __enter__(self) -> "LocalCluster":
        global _CURRENT
        self._previous = _CURRENT
        _CURRENT = self
        for _ in range(self._n_initial):
            self.spawn_worker()
        return self

    def __exit__(self, *exc_info) -> None:
        global _CURRENT
        _CURRENT = self._previous
        self.close()

    def spawn_worker(self, worker_id: str | None = None) -> str:
        """Fork one more fleet member; returns its worker id."""
        if worker_id is None:
            worker_id = f"w{self._next_worker}"
        self._next_worker += 1
        ctx = (
            multiprocessing.get_context("fork")
            if "fork" in multiprocessing.get_all_start_methods()
            else multiprocessing.get_context()
        )
        proc = ctx.Process(
            target=worker_main,
            kwargs=dict(
                address=self.address,
                authkey=self._authkey,
                worker_id=worker_id,
                spool=self.spool,
                serving_root=self._serving_root,
            ),
            daemon=True,
        )
        proc.start()
        self._procs.append(proc)
        return worker_id

    def close(self) -> None:
        """Shut the fleet down and reclaim every resource."""
        if not self._running:
            return
        self._running = False
        self._wake()
        # Closing the listener does not wake a thread blocked in accept();
        # a throw-away connection does, and it then sees ``_running`` unset.
        try:
            socket.create_connection(self.address, timeout=1.0).close()
        except OSError:  # pragma: no cover - listener already gone
            pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass
        self._dispatch_thread.join(timeout=5.0)
        self._accept_thread.join(timeout=5.0)
        for conn in list(self._conns):
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        shutil.rmtree(self.spool, ignore_errors=True)

    # ---------------------------------------------------------------- helpers
    def _wake(self) -> None:
        try:
            self._wake_w.send_bytes(b"x")
        except (OSError, ValueError):  # pragma: no cover - torn down
            pass

    def _send(self, conn, type_: str, payload: dict | None = None) -> None:
        self._seq += 1
        conn.send_bytes(
            encode_envelope(
                Envelope(
                    type=type_, sender="coordinator", seq=self._seq, payload=payload or {}
                )
            )
        )

    def _spool_shared(self, shared) -> str | None:
        """Spool a shared payload once per object; reuse the path after."""
        if shared is None:
            return None
        key = id(shared)
        cached = self._shared_paths.get(key)
        if cached is not None and cached[0] is shared:
            return cached[1]
        path = os.path.join(self.spool, f"shared-{len(self._shared_paths)}.pkl")
        with open(path, "wb") as fh:
            pickle.dump(shared, fh, protocol=pickle.HIGHEST_PROTOCOL)
        self._shared_paths[key] = (shared, path)
        return path

    # ------------------------------------------------------------ accept loop
    def _accept_loop(self) -> None:
        """Admit connections; registration itself happens on the dispatcher."""
        while self._running:
            try:
                conn = self._listener.accept()
            except (OSError, EOFError, multiprocessing.AuthenticationError):
                if not self._running:
                    return
                continue
            try:
                envelope = decode_envelope(conn.recv_bytes())
            except (EOFError, OSError, EnvelopeError):
                conn.close()
                continue
            if envelope.type != MSG_REGISTER:
                conn.close()
                continue
            self._inbox.append(("join", conn, envelope))
            self._wake()

    # --------------------------------------------------------- dispatcher loop
    def _dispatch_loop(self) -> None:
        tick = self.registry.heartbeat_interval / 2.0
        while self._running:
            self._drain_inbox()
            self._expire_overdue()
            self._check_task_timeouts()
            self._check_capacity()
            self._assign_pending()
            ready = wait([self._wake_r, *self._conns], timeout=tick)
            for obj in ready:
                if obj is self._wake_r:
                    try:
                        self._wake_r.recv_bytes()
                    except (EOFError, OSError):  # pragma: no cover
                        pass
                    continue
                self._receive(obj)
        # Teardown: tell every worker to exit.
        for conn in list(self._conns):
            try:
                self._send(conn, MSG_SHUTDOWN)
            except (OSError, ValueError):
                pass

    def _drain_inbox(self) -> None:
        while self._inbox:
            kind, *rest = self._inbox.popleft()
            if kind == "join":
                conn, envelope = rest
                self._admit(conn, envelope)
            elif kind == "release":
                (release,) = rest
                self._active = release

    def _admit(self, conn, envelope: Envelope) -> None:
        worker_id = envelope.sender
        payload = envelope.payload
        with self._registry_lock:
            self.registry.register(
                worker_id,
                pid=int(payload.get("pid", 0)),
                role=str(payload.get("role", "sampler")),
                meta={k: v for k, v in payload.items() if k not in ("pid", "role")},
            )
        stale = self._worker_conns.pop(worker_id, None)
        if stale is not None:
            self._drop_conn(stale, evict=False)
        self._conns[conn] = worker_id
        self._worker_conns[worker_id] = conn
        try:
            self._send(
                conn,
                MSG_WELCOME,
                {
                    "worker_id": worker_id,
                    "heartbeat_interval": self.registry.heartbeat_interval,
                },
            )
        except (OSError, ValueError):
            self._worker_loss(conn)

    def _drop_conn(self, conn, evict: bool = True) -> None:
        worker_id = self._conns.pop(conn, None)
        if worker_id is not None and self._worker_conns.get(worker_id) is conn:
            del self._worker_conns[worker_id]
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass
        if evict and worker_id is not None:
            with self._registry_lock:
                self.registry.evict(worker_id)

    # ---------------------------------------------------------- fault handling
    def _worker_loss(self, conn) -> None:
        """A dead/hung member: evict it and requeue its shards, seeds intact."""
        worker_id = self._conns.get(conn)
        self._drop_conn(conn, evict=True)
        if worker_id is not None:
            self._requeue_lost(worker_id)

    def _requeue_lost(self, worker_id: str) -> None:
        release = self._active
        if release is None:
            return
        for index in release.queue.release_worker(worker_id):
            release.lease_started.pop(index, None)
            retries = release.queue.attempts[index] - 1 + 1  # runs lost so far
            if not release.retry.retryable(retries):
                self._finish(
                    release,
                    error=ShardTaskError(
                        f"task {index} failed after {release.queue.attempts[index]} "
                        f"attempt(s) (transient fault: worker {worker_id!r} lost)",
                        index=index,
                        attempts=release.queue.attempts[index],
                        transient=True,
                    ),
                )
                return

    def _expire_overdue(self) -> None:
        with self._registry_lock:
            expired = self.registry.expire()
        for worker_id in expired:
            conn = self._worker_conns.get(worker_id)
            if conn is not None:
                # Closing the connection makes a merely-stalled worker's next
                # send fail, which triggers its reconnect-and-re-register
                # path — the clean resume the registry counts.
                self._drop_conn(conn, evict=False)
            self._requeue_lost(worker_id)

    def _check_task_timeouts(self) -> None:
        release = self._active
        if release is None or release.task_timeout is None:
            return
        now = time.monotonic()
        for index, started in list(release.lease_started.items()):
            if now - started <= release.task_timeout:
                continue
            holder = release.queue.lease_holders().get(index)
            conn = self._worker_conns.get(holder) if holder else None
            if conn is not None:
                self._worker_loss(conn)
            else:  # pragma: no cover - lease without a connection
                self._requeue_lost(holder)

    def _check_capacity(self) -> None:
        release = self._active
        if release is None or release.done.is_set():
            return
        with self._registry_lock:
            alive = self.registry.alive()
        if alive or any(proc.is_alive() for proc in self._procs):
            return
        self._finish(
            release,
            error=FleetError(
                "no live fleet workers remain and none are starting; "
                f"{release.queue.pending + release.queue.leased} shard(s) unfinished"
            ),
        )

    # ------------------------------------------------------------- scheduling
    def _assign_pending(self) -> None:
        release = self._active
        if release is None or release.done.is_set():
            return
        busy = set(release.queue.lease_holders().values())
        with self._registry_lock:
            alive = self.registry.alive()
        for record in alive:
            if not release.queue.pending:
                break
            if record.worker_id in busy:
                continue
            conn = self._worker_conns.get(record.worker_id)
            if conn is None:
                continue
            index = release.queue.lease(record.worker_id)
            if index is None:
                break
            release.lease_started[index] = time.monotonic()
            try:
                self._send(
                    conn,
                    MSG_ASSIGN,
                    {
                        "release": release.seq,
                        "index": index,
                        "fn_module": release.fn_module,
                        "fn_name": release.fn_name,
                        "shared_path": release.shared_path,
                        "task": release.packed[index],
                    },
                )
            except (OSError, ValueError):
                self._worker_loss(conn)
                return
            busy.add(record.worker_id)

    def _receive(self, conn) -> None:
        try:
            envelope = decode_envelope(conn.recv_bytes())
        except (EOFError, OSError, EnvelopeError):
            self._worker_loss(conn)
            return
        worker_id = self._conns.get(conn)
        if envelope.type == MSG_HEARTBEAT:
            with self._registry_lock:
                self.registry.heartbeat(worker_id)
        elif envelope.type == MSG_COMPLETE:
            self._on_complete(worker_id, envelope.payload)
        elif envelope.type == MSG_FAILED:
            self._on_failed(envelope.payload)

    def _on_complete(self, worker_id: str, payload: dict) -> None:
        release = self._active
        path = payload.get("path")
        index = int(payload.get("index", -1))
        stale = (
            release is None
            or release.done.is_set()
            or int(payload.get("release", -1)) != release.seq
            or not release.queue.complete(index, worker_id)
        )
        if stale:
            # A reassigned shard's original runner reported late; the retried
            # copy is bit-identical, so the duplicate is simply discarded.
            if path:
                try:
                    os.unlink(path)
                except OSError:
                    pass
            return
        try:
            with open(path, "rb") as fh:
                release.results[index] = pickle.load(fh)
            os.unlink(path)
        except (OSError, pickle.UnpicklingError) as exc:
            # The spooled result vanished or is torn (worker died mid-spool
            # rename would normally surface as a lost worker instead): treat
            # as a transient loss of just this shard.
            release.queue._done.discard(index)
            release.queue._pending.appendleft(index)
            retries = release.queue.attempts[index]
            if not release.retry.retryable(retries):
                self._finish(
                    release,
                    error=ShardTaskError(
                        f"task {index} result unreadable after "
                        f"{release.queue.attempts[index]} attempt(s): {exc}",
                        index=index,
                        attempts=release.queue.attempts[index],
                        transient=True,
                    ),
                )
            return
        release.lease_started.pop(index, None)
        if release.queue.done:
            self._finish(release)

    def _on_failed(self, payload: dict) -> None:
        release = self._active
        if release is None or int(payload.get("release", -1)) != release.seq:
            return
        index = int(payload.get("index", -1))
        self._finish(
            release,
            error=ShardTaskError(
                f"task {index} failed deterministically on a fleet worker "
                f"({payload.get('error', 'unknown error')})",
                index=index,
                attempts=release.queue.attempts.get(index, 1),
                transient=False,
                remote_traceback=payload.get("traceback"),
            ),
        )

    def _finish(self, release: _Release, error: BaseException | None = None) -> None:
        if release.done.is_set():
            return
        release.error = error
        if self._active is release:
            self._active = None
        release.done.set()

    # ------------------------------------------------------------ release API
    def run_tasks(
        self,
        fn,
        tasks: list[tuple],
        shared=None,
        task_timeout: float | None = None,
        retry: "RetryPolicy | None" = None,
    ) -> list:
        """Run one release across the fleet; results in task order.

        Same contract as :meth:`repro.engine.backends.Backend.run_tasks`:
        ``fn`` must be module-level and every task tuple picklable.
        ``task_timeout``/``retry`` override the cluster defaults for this
        release only.  Raises :class:`~repro.reliability.ShardTaskError`
        (deterministic task failure, or a shard out of transient-retry
        budget) or :class:`FleetError` (no live workers).
        """
        tasks = list(tasks)
        if not tasks:
            return []
        if not self._running:
            raise FleetError("cluster is closed")
        with self._release_lock:
            self._release_seq += 1
            release = _Release(
                seq=self._release_seq,
                fn=fn,
                tasks=tasks,
                shared_path=self._spool_shared(shared),
                task_timeout=self.task_timeout if task_timeout is None else task_timeout,
                retry=self.retry if retry is None else retry,
            )
            self._inbox.append(("release", release))
            self._wake()
            release.done.wait()
        if release.error is not None:
            raise release.error
        return release.results

    # --------------------------------------------------------------- queries
    def serving_urls(self) -> list[str]:
        """Base URLs of the live serving replicas, registration order."""
        with self._registry_lock:
            return [
                record.meta["url"]
                for record in self.registry.alive()
                if "url" in record.meta
            ]

    def stats(self) -> dict:
        with self._registry_lock:
            registry = self.registry.stats()
        active = self._active
        return {
            "registry": registry,
            "active_release": None
            if active is None
            else {
                "seq": active.seq,
                "pending": active.queue.pending,
                "leased": active.queue.leased,
                "max_attempts": active.queue.max_attempts(),
            },
            "processes": sum(1 for proc in self._procs if proc.is_alive()),
        }
