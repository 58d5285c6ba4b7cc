"""LocalCluster: the coordinator and its child workers — the one multi-process runtime.

One :class:`LocalCluster` owns the whole coordinator side of the fleet
protocol (:mod:`repro.fleet.messaging`):

- one :func:`multiprocessing.Pipe` (a socketpair) per worker it starts: the
  child end goes to the worker as a process argument, the parent end is how
  the coordinator knows the worker from the moment it is spawned — no
  listener, no handshake, no registration;
- the started, not-lost workers, one :class:`WorkerRecord` each
  (:meth:`LocalCluster.workers`);
- a single **dispatcher thread** that owns all connection I/O and all
  mutable release state (multiplexed via ``connection.wait``), so the
  scheduler needs no locking discipline beyond the hand-off queues at its
  edges;
- ``workers`` subprocesses running :func:`~repro.fleet.worker.worker_main`.
  A fleet forks them where the platform can, so the chaos suite's
  installed :class:`~repro.reliability.FaultInjector` is inherited; a
  :meth:`~LocalCluster.private` cluster starts them with the caller's
  configured start method, as a process pool would.  The initial workers
  start before the dispatcher thread does; a replacement for a lost worker
  starts from the dispatcher thread.

:meth:`imap_tasks` is the release primitive of every multi-process engine
backend — ``process`` on a :meth:`private` cluster, ``fleet`` on the active
one: results in task order, at most ``window`` shards leased ahead of the
consumer, each result the descriptor of its ``/dev/shm`` files
(:mod:`repro.engine.shm`) imported on the dispatcher, several releases in
flight at once (oldest first).  The cluster names those files: worker
``w3`` writes under ``nds{pid:x}-{token}-w3-``, so a lost worker's
leftovers and the cluster's are each one prefix to unlink.

One liveness rule holds for every cluster: a worker is lost when its
connection ends (EOF) or its shard overruns ``task_timeout``.  The cluster
then kills the process it spawned for it and starts a replacement, and the
lost worker's unfinished shards are requeued *unchanged*, leasable again
after the :class:`~repro.reliability.RetryPolicy` backoff and bounded per
shard by its budget, so a recovered release is bit-identical to a
fault-free one.  A worker that stalls without dying (``SIGSTOP``) is
noticed only through ``task_timeout``; with none set, its shard waits for
it.  A task function that raises fails the release
with a :class:`~repro.reliability.ShardTaskError` carrying the worker-side
traceback.

Entering the context installs the cluster as the process-wide *current
cluster* so ``synth.sample(..., backend="fleet")`` finds it::

    with LocalCluster(workers=4):
        table = synth.sample(n, rng=7, shards=8, backend="fleet")
"""

from __future__ import annotations

import contextlib
import itertools
import multiprocessing
import os
import pickle
import shutil
import tempfile
import threading
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait

from repro.engine.shm import import_result, release_result, unlink_prefix
from repro.fleet.messaging import (
    MSG_ASSIGN,
    MSG_COMPLETE,
    MSG_FAILED,
    MSG_SHUTDOWN,
    SHARED_INHERITED,
)
from repro.fleet.queue import ShardQueue
from repro.fleet.worker import worker_main
from repro.reliability import Deadline, RetryPolicy, ShardTaskError

#: The active cluster ``get_backend("fleet")`` resolves against.
_CURRENT: "LocalCluster | None" = None

#: How long a waiting consumer sleeps between checks that the dispatcher is
#: still running (it is woken at once whenever its release changes).
_POLL_S = 0.5

#: The longest the dispatcher sleeps between checks of lease ages
#: (``task_timeout``) and of capacity; any message or hand-off wakes it.
_TICK_S = 0.125


def current_cluster() -> "LocalCluster | None":
    """The cluster installed by the innermost ``LocalCluster`` context."""
    return _CURRENT


class FleetError(RuntimeError):
    """A fleet-level protocol or capacity failure."""


def _join_all(procs, timeout: float) -> None:
    """Join every process in ``procs`` against one shared ``timeout``."""
    deadline = Deadline(timeout)
    for proc in procs:
        proc.join(timeout=deadline.remaining())


@dataclass(frozen=True)
class WorkerRecord:
    """One started worker as the coordinator sees it: its id and pid."""

    worker_id: str
    pid: int


class _Release:
    """One ``imap_tasks`` call in flight: tasks, queue, results, outcome.

    The dispatcher thread owns every field but ``consumed``, which only the
    consuming generator writes; ``cond`` guards the hand-over of ``results``
    and ``error``.
    """

    def __init__(self, seq, fn, packed, shared, window, task_timeout, retry) -> None:
        self.seq = seq
        self.fn = fn
        #: The task tuples, each pickled once in the caller's thread.
        self.packed = packed
        self.shared = shared
        self.window = window
        self.task_timeout = task_timeout
        self.retry = retry
        self.queue = ShardQueue(len(packed))
        #: Imported results not yet handed to the consumer.
        self.results: dict[int, object] = {}
        #: Results the consumer has taken; leases stay below this + window.
        self.consumed = 0
        self.error: BaseException | None = None
        #: The consumer is gone (finished, failed or abandoned the stream).
        self.retired = False
        #: Set once the release is retired and none of its shards still runs.
        self.reaped = threading.Event()
        self.cond = threading.Condition()

    @property
    def open(self) -> bool:
        """Whether the release still leases shards and accepts results."""
        return self.error is None and not self.retired


class LocalCluster:
    """Coordinator plus ``workers`` local subprocess fleet members that run shards."""

    def __init__(
        self,
        workers: int = 2,
        task_timeout: float | None = None,
        retry: "RetryPolicy | int | None" = None,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.retry = RetryPolicy.coerce(retry)
        self.task_timeout = task_timeout
        self._n_initial = int(workers)
        #: The payload workers start with, and how they start (both set by
        #: :meth:`private`, which picks the caller's start method).
        self._inherited = None
        self._context = (
            multiprocessing.get_context("fork")
            if "fork" in multiprocessing.get_all_start_methods()
            else multiprocessing.get_context()
        )
        #: Directory for pickled shared payloads, made on first need.
        self.spool: str | None = None
        #: Path prefix of every result file this cluster's workers write: the
        #: pid and a random token keep clusters apart, and worker ids, never
        #: reused, keep workers apart.
        results = "/dev/shm" if os.path.isdir("/dev/shm") else self._spool_dir()
        self._result_prefix = os.path.join(
            results, f"nds{os.getpid():x}-{os.urandom(4).hex()}-"
        )
        self._spool_lock = threading.Lock()
        self._wake_r, self._wake_w = multiprocessing.Pipe(duplex=False)
        self._inbox: deque = deque()  # (kind, release)
        #: parent end -> worker id, start order.  Written by
        #: :meth:`_spawn_worker` and :meth:`_lose` only, so only before the
        #: dispatcher starts or on it.
        self._conns: dict = {}
        #: seq -> release, oldest first: the releases the dispatcher serves.
        self._releases: dict[int, _Release] = {}
        self._running = True
        self._release_seq = itertools.count(1)
        self._next_worker = 0
        #: worker id -> the process this cluster started for it, until lost;
        #: same writers as ``_conns``.
        self._worker_procs: dict[str, object] = {}
        #: Workers sent ``shutdown`` at teardown.
        self._told: set[str] = set()
        #: (payload, path) of the newest payload pickled to the spool; an
        #: older file is unlinked once no open release uses it.
        self._spooled: tuple | None = None
        #: spool path -> open releases that use it.
        self._spool_users: dict[str, int] = {}
        self._spool_names = itertools.count()
        self._dispatch_thread = threading.Thread(target=self._dispatch_loop, daemon=True)

    @classmethod
    def private(cls, workers: int, shared=None, task_timeout=None, retry=None) -> "LocalCluster":
        """A running cluster owned by one caller, as a process pool is.

        Its ``workers`` start now with the caller's configured start method
        (:func:`multiprocessing.get_context`) and carry ``shared``: under
        fork they inherit it, so that payload is never pickled; under spawn
        or forkserver it is pickled once per worker, as a pool initializer
        would.  The cluster is not installed as the current one; the caller
        must :meth:`close` it.
        """
        cluster = cls(workers, task_timeout=task_timeout, retry=retry)
        cluster._inherited = shared
        cluster._context = multiprocessing.get_context()
        cluster._start()
        return cluster

    # -------------------------------------------------------------- lifecycle
    def __enter__(self) -> "LocalCluster":
        global _CURRENT
        self._previous = _CURRENT
        _CURRENT = self
        self._start()
        return self

    def __exit__(self, *exc_info) -> None:
        global _CURRENT
        _CURRENT = self._previous
        self.close()

    def _start(self) -> None:
        # Workers start before the dispatcher, so no thread of ours is
        # running when they fork.
        for _ in range(self._n_initial):
            self._spawn_worker()
        self._dispatch_thread.start()

    def _spawn_worker(self) -> str:
        """Start one more worker on its own socketpair; returns its worker id.

        The child end travels as a process argument (under spawn or
        forkserver it is passed over to the new process) and the
        coordinator closes its copy, so the parent end reads EOF as soon as
        the worker dies.  A forked worker closes every coordinator end it
        inherited, its own included: a worker holding a parent end would
        keep that connection open after the coordinator dies.  Runs before
        the dispatcher starts or on it, which owns ``_conns``.
        """
        worker_id = f"w{self._next_worker}"
        self._next_worker += 1
        conn, child_conn = multiprocessing.Pipe()
        forked = self._context.get_start_method() == "fork"
        close_fds = [self._wake_r.fileno(), self._wake_w.fileno(), conn.fileno()]
        close_fds += [other.fileno() for other in self._conns]
        # ``inherited`` unpickles before ``conn`` under spawn or forkserver,
        # so a child whose payload does not load exits before it holds a
        # connection object: its status is set by the time its end closes.
        proc = self._context.Process(
            target=worker_main,
            kwargs=dict(
                inherited=self._inherited,
                conn=child_conn,
                result_prefix=f"{self._result_prefix}{worker_id}-",
                close_fds=close_fds if forked else (),
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._worker_procs[worker_id] = proc
        self._conns[conn] = worker_id
        return worker_id

    def close(self) -> None:
        """Shut the fleet down and reclaim every resource."""
        if not self._running:
            return
        self._running = False
        self._wake()
        if self._dispatch_thread.ident is not None:  # started
            self._dispatch_thread.join(timeout=5.0)
        for conn in self._conns:
            conn.close()
        self._wake_r.close()
        self._wake_w.close()
        # A worker told to shut down exits by itself; one that was not is
        # terminated at once.  A stopped process leaves SIGTERM pending, so
        # a worker that outlives it is killed.  Each step joins every worker
        # against one deadline, so N stuck workers cost what one does.
        _join_all([p for w, p in self._worker_procs.items() if w in self._told], 2.0)
        for step in ("terminate", "kill"):
            survivors = [p for p in self._worker_procs.values() if p.is_alive()]
            for proc in survivors:
                getattr(proc, step)()
            _join_all(survivors, 1.0)
        unlink_prefix(self._result_prefix)
        with self._spool_lock:
            if self.spool is not None:
                shutil.rmtree(self.spool, ignore_errors=True)

    # ---------------------------------------------------------------- helpers
    def _wake(self) -> None:
        try:
            self._wake_w.send_bytes(b"x")
        except OSError:  # pragma: no cover - torn down
            pass

    def _post(self, kind: str, *items) -> None:
        self._inbox.append((kind, *items))
        self._wake()

    def _send(self, conn, type_: str, payload: dict | None = None) -> None:
        conn.send((type_, payload or {}))

    def _spool_dir(self) -> str:
        if self.spool is None:
            self.spool = tempfile.mkdtemp(prefix="repro-fleet-")
        return self.spool

    def _acquire_shared(self, shared) -> str | None:
        """How one new release's ``assign`` names ``shared``.

        ``None``, the inherited payload, or a spool file.  Only the newest
        spooled payload is kept for later releases, so one payload shared by
        consecutive releases is pickled once.  A release holds its file
        until :meth:`_release_shared`: workers load it on their first
        ``assign``, so it is never unlinked while a release that uses it is
        open.
        """
        if shared is None:
            return None
        if shared is self._inherited:
            return SHARED_INHERITED
        with self._spool_lock:
            if self._spooled is None or self._spooled[0] is not shared:
                path = os.path.join(self._spool_dir(), f"shared-{next(self._spool_names)}.pkl")
                with open(path, "wb") as fh:
                    pickle.dump(shared, fh, protocol=pickle.HIGHEST_PROTOCOL)
                previous, self._spooled = self._spooled, (shared, path)
                if previous is not None:
                    self._unlink_unused(previous[1])
            path = self._spooled[1]
            self._spool_users[path] = self._spool_users.get(path, 0) + 1
            return path

    def _release_shared(self, ref: str | None) -> None:
        """A release that used ``ref`` retired: unlink the file if now unused."""
        if ref is None or ref == SHARED_INHERITED:
            return
        with self._spool_lock:
            self._spool_users[ref] -= 1
            self._unlink_unused(ref)

    def _unlink_unused(self, path: str) -> None:
        """Unlink a spool file no open release uses and that is not the newest."""
        if self._spool_users.get(path) or path == self._spooled[1]:
            return
        self._spool_users.pop(path, None)
        with contextlib.suppress(FileNotFoundError):  # close() removed the spool
            os.unlink(path)

    # --------------------------------------------------------- dispatcher loop
    def _dispatch_loop(self) -> None:
        try:
            while self._running:
                self._drain_inbox()
                self._check_task_timeouts()
                self._check_capacity()
                self._assign_pending()
                # Wake when the next backed-off shard becomes leasable.
                timeout = min(
                    [_TICK_S, *(release.queue.held_for() for release in self._releases.values())]
                )
                for obj in wait([self._wake_r, *self._conns], timeout=timeout):
                    if obj is self._wake_r:
                        while self._wake_r.poll():
                            self._wake_r.recv_bytes()
                    elif obj in self._conns:  # not dropped earlier this turn
                        self._receive(obj)
        finally:
            # Teardown: tell every worker to exit, fail what is still open.
            self._drain_inbox()
            for conn, worker_id in list(self._conns.items()):
                try:
                    self._send(conn, MSG_SHUTDOWN)
                    self._told.add(worker_id)
                except (OSError, ValueError):
                    pass
            for release in list(self._releases.values()):
                self._finish(release, FleetError("cluster is closed"))
                release.reaped.set()
            self._releases.clear()

    def _drain_inbox(self) -> None:
        while self._inbox:
            kind, release = self._inbox.popleft()
            if kind == "release":
                self._releases[release.seq] = release
            else:  # "retire": the consumer is gone
                release.retired = True
                release.queue.cancel()
                self._reap(release)

    # ---------------------------------------------------------- fault handling
    def _lose(self, worker_id: str) -> None:
        """A dead or overdue worker: kill it and requeue its shards, seeds intact.

        Its process is replaced, so the cluster keeps its size across faults
        — unless it had already exited with a failure status: a worker that
        cannot start (say, its payload does not unpickle under spawn) would
        fail the same way again, and the capacity check fails the release
        once none is left.  Any file the dead worker exported but never
        handed over is unlinked once it is gone.
        """
        for conn, holder in list(self._conns.items()):
            if holder == worker_id:
                del self._conns[conn]
                conn.close()
        proc = self._worker_procs.pop(worker_id)
        proc.kill()
        proc.join(timeout=1.0)
        unlink_prefix(f"{self._result_prefix}{worker_id}-")
        if self._running and (proc.exitcode is None or proc.exitcode <= 0):
            self._spawn_worker()
        self._requeue_lost(worker_id)

    def _requeue_lost(self, worker_id: str) -> None:
        for release in list(self._releases.values()):
            for index in release.queue.release_worker(worker_id):
                if release.open:
                    self._check_retry(release, index, f"worker {worker_id!r} lost")
            if not release.open:
                release.queue.cancel()
                self._reap(release)

    def _check_retry(self, release: _Release, index: int, cause: str) -> None:
        """Back a requeued shard off, or fail the release once its budget is spent."""
        attempts = release.queue.attempts[index]
        if release.retry.retryable(attempts):
            release.queue.hold(index, release.retry.delay(attempts))
        else:
            message = f"task {index} failed after {attempts} attempt(s) (transient fault: {cause})"
            self._finish(release, ShardTaskError(message, index, attempts, transient=True))

    def _check_task_timeouts(self) -> None:
        overdue = set()
        for release in self._releases.values():
            if release.task_timeout is not None:
                overdue |= release.queue.overdue(release.task_timeout)
        for worker_id in overdue:
            self._lose(worker_id)

    def _check_capacity(self) -> None:
        if not any(release.open for release in self._releases.values()):
            return
        if self._conns:
            return
        for release in list(self._releases.values()):
            unfinished = release.queue.pending + release.queue.leased
            self._finish(
                release,
                FleetError(
                    "no live fleet workers remain; "
                    f"{unfinished} shard(s) unfinished"
                ),
            )

    # ------------------------------------------------------------- scheduling
    def _assign_pending(self) -> None:
        """Lease one shard to every idle live worker, oldest release first."""
        busy = {
            holder
            for release in self._releases.values()
            for holder in release.queue.lease_holders().values()
        }
        for conn, worker_id in list(self._conns.items()):
            if worker_id in busy:
                continue
            for release in self._releases.values():
                index = (
                    release.queue.lease(worker_id, limit=release.consumed + release.window)
                    if release.open
                    else None
                )
                if index is not None:
                    break
            else:
                return  # nothing is leasable right now
            try:
                self._send(
                    conn,
                    MSG_ASSIGN,
                    {
                        "release": release.seq,
                        "index": index,
                        "fn_module": release.fn.__module__,
                        "fn_name": release.fn.__qualname__,
                        "shared": release.shared,
                        "task": release.packed[index],
                    },
                )
            except (OSError, ValueError):
                self._lose(worker_id)
                return

    def _receive(self, conn) -> None:
        worker_id = self._conns[conn]
        try:
            type_, payload = conn.recv()
        except Exception:  # EOF, or a frame that does not load
            self._lose(worker_id)
            return
        if type_ == MSG_COMPLETE:
            self._on_complete(worker_id, payload)
        elif type_ == MSG_FAILED:
            self._on_failed(worker_id, payload)

    def _on_complete(self, worker_id: str, payload: dict) -> None:
        try:
            raw = pickle.loads(payload["result"])
        except Exception as exc:  # it would fail to load from any worker
            # Files the result names cannot be released without loading it;
            # they go with the worker's prefix when it is lost, or on close().
            self._fail_shard(
                worker_id,
                payload,
                f"result does not unpickle: {type(exc).__name__}: {exc}",
                "".join(traceback.format_exception(exc)),
                exc,
            )
            return
        release = self._releases.get(payload["release"])
        index = payload["index"]
        if release is None or not release.queue.complete(index, worker_id):
            # A reassigned shard's original runner reported late; the retried
            # copy is bit-identical, so the duplicate is simply discarded.
            release_result(raw)
            return
        if not release.open:
            release_result(raw)
            self._reap(release)
            return
        try:
            result = import_result(raw)
        except FileNotFoundError as exc:
            # A file vanished between export and import: a transient loss of
            # this shard alone.  Its other files are unlinked.
            release_result(raw)
            release.queue.requeue(index)
            self._check_retry(release, index, f"result file vanished: {exc}")
            return
        with release.cond:
            release.results[index] = result
            release.cond.notify_all()

    def _on_failed(self, worker_id: str, payload: dict) -> None:
        try:
            cause = pickle.loads(payload["exception"])
        except Exception:  # absent, or it does not unpickle here
            cause = None
        self._fail_shard(worker_id, payload, payload["error"], payload["traceback"], cause)

    def _fail_shard(self, worker_id, payload, error, remote_traceback, cause) -> None:
        """Fail the release for a deterministic error of the shard ``payload`` names."""
        release = self._releases.get(payload["release"])
        index = payload["index"]
        if release is None or not release.queue.complete(index, worker_id):
            return
        if release.open:
            attempts = release.queue.attempts[index]
            shard_error = ShardTaskError(
                f"task {index} failed after {attempts} attempt(s) (failure: {error})",
                index=index,
                attempts=attempts,
                transient=False,
                remote_traceback=remote_traceback,
            )
            shard_error.__cause__ = cause
            self._finish(release, shard_error)
        self._reap(release)

    def _finish(self, release: _Release, error: BaseException) -> None:
        """Fail ``release`` (first error wins) and wake its consumer."""
        if release.error is None:
            release.error = error
            release.queue.cancel()
        with release.cond:
            release.cond.notify_all()

    def _reap(self, release: _Release) -> None:
        """Forget a retired release once none of its shards still runs."""
        if release.retired and not release.queue.leased:
            self._releases.pop(release.seq, None)
            release.reaped.set()

    # ------------------------------------------------------------ release API
    def imap_tasks(
        self,
        fn,
        tasks: list[tuple],
        shared=None,
        window: int | None = None,
        task_timeout: float | None = None,
        retry: "RetryPolicy | None" = None,
    ):
        """Run one release across the fleet; yield results in task order.

        Same contract as :meth:`repro.engine.backends.Backend.imap_tasks`,
        with at most ``window`` shards (default: all) leased ahead of the
        consumer; ``task_timeout``/``retry`` override the cluster defaults
        for this release.  Raises :class:`~repro.reliability.ShardTaskError`
        or :class:`FleetError` (no live workers, cluster closed).  When the
        consumer stops early, or a shard fails, nothing more is leased and
        the generator returns once every running shard has been reaped.
        """
        packed = [pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL) for task in tasks]
        if not packed:
            return
        if not self._running:
            raise FleetError("cluster is closed")
        if self._dispatch_thread.ident is None:
            raise FleetError("cluster is not started: enter its context first")
        release = _Release(
            seq=next(self._release_seq),
            fn=fn,
            packed=packed,
            shared=self._acquire_shared(shared),
            window=len(packed) if window is None else max(1, int(window)),
            task_timeout=self.task_timeout if task_timeout is None else task_timeout,
            retry=self.retry if retry is None else retry,
        )
        self._post("release", release)
        try:
            for index in range(len(packed)):
                yield self._take(release, index)
        finally:
            self._retire(release)

    def _take(self, release: _Release, index: int):
        """Wait for result ``index`` of ``release`` and hand it over."""
        with release.cond:
            while index not in release.results and release.error is None:
                if not self._dispatch_thread.is_alive():
                    raise FleetError("cluster is closed")
                release.cond.wait(_POLL_S)
            if release.error is not None:
                raise release.error
            result = release.results.pop(index)
        release.consumed = index + 1
        if release.queue.pending:
            self._wake()  # the window moved: more shards may be leased
        return result

    def _retire(self, release: _Release) -> None:
        self._post("retire", release)
        if release.consumed < len(release.packed):
            # Stopped early: reap the shards still running, so their
            # result files are released before the caller moves on.
            while not release.reaped.wait(_POLL_S):
                if not self._dispatch_thread.is_alive():
                    break
        with release.cond:
            release.results.clear()
        self._release_shared(release.shared)

    def run_tasks(self, fn, tasks: list[tuple], shared=None, **overrides) -> list:
        """:meth:`imap_tasks` with every task in the window, as a list."""
        return list(self.imap_tasks(fn, tasks, shared=shared, **overrides))

    # --------------------------------------------------------------- queries
    def workers(self) -> list[WorkerRecord]:
        """The started, not-lost workers, start order."""
        procs = list(self._worker_procs.items())
        return [WorkerRecord(worker_id, proc.pid) for worker_id, proc in procs]

    def stats(self) -> dict:
        active = next(
            (release for release in list(self._releases.values()) if release.open), None
        )
        return {
            "workers": len(self.workers()),
            "active_release": None
            if active is None
            else {
                "seq": active.seq,
                "pending": active.queue.pending,
                "leased": active.queue.leased,
                "max_attempts": active.queue.max_attempts(),
            },
            "processes": sum(1 for proc in list(self._worker_procs.values()) if proc.is_alive()),
        }
