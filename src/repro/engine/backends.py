"""Execution backends: a generic map-style task executor, serial or process pool.

Every backend implements :meth:`Backend.run_tasks` — run a module-level
function over a list of argument tuples, returning results in task order —
plus the streaming :meth:`Backend.imap_tasks` (results yielded in task order
with a bounded submission window, the memory bound behind the streaming
synthesis API).  Because every task result is a pure function of its
inputs, all backends produce identical results for the same inputs; the only
thing that changes is where the work runs and how results travel back.

A ``shared`` payload (e.g. the encoded data matrix, or the synthesis plan)
is passed to every task as its first argument.  The process backend ships it
to workers **once per pool** — via fork inheritance where the start method
allows it, or via the pool initializer otherwise — instead of pickling it
per task; :meth:`Backend.open` binds a persistent pool to one payload so the
shipment happens once per pool *lifetime* across many calls.  Large ndarray
results come back through :mod:`multiprocessing.shared_memory` segments
(see :mod:`repro.engine.shm`) instead of the pickled result pipe.
"""

from __future__ import annotations

import abc
import multiprocessing
import os
import threading
from collections import deque
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import TYPE_CHECKING

import numpy as np

from repro.engine.config import canonical_backend
from repro.engine.shm import (
    export_result,
    import_result,
    release_result,
    sweep_orphan_segments,
)
from repro.reliability import (
    FaultError,
    RetryPolicy,
    ShardTaskError,
    remote_traceback_of,
)
from repro.reliability.faults import (
    KIND_DROP_SHM,
    SITE_SHARD,
    SITE_SHM_EXPORT,
    maybe_fire,
)

if TYPE_CHECKING:  # import would cycle through plan -> synthesis -> marginals
    from repro.engine.plan import ShardResult, SynthesisPlan

#: Worker-side shared payload for :class:`ProcessBackend` under the fork
#: start method: workers fork during ``submit`` and inherit the value
#: (spawn/forkserver ship it via the pool initializer instead).  The parent
#: only mutates it — and only submits, since that is where forks happen —
#: while holding :data:`_TASK_SHARED_LOCK`, so concurrent pools on different
#: threads can never fork a worker carrying another pool's payload.
_TASK_SHARED = None
_TASK_SHARED_LOCK = threading.Lock()


def default_workers() -> int:
    """The worker count used when none is configured: one per CPU.

    ``os.cpu_count()`` may return ``None`` (``multiprocessing.cpu_count()``
    raises instead), so the ``or 1`` fallback is reachable.
    """
    return os.cpu_count() or 1


def _set_task_shared(value) -> None:
    global _TASK_SHARED
    _TASK_SHARED = value


def _call_task(fn, args):
    """Invoke one task against the worker's shared payload.

    Large array results are parked in shared memory here, in the worker,
    and only their handles cross the pipe.  Module-level so the process
    backend can pickle it; ``fn`` itself must be a module-level callable for
    the same reason.
    """
    out = export_result(fn(_TASK_SHARED, *args))
    # Chaos hook: a ``drop_shm`` fault simulates the segment vanishing
    # between the worker's export and the parent's import — the handles
    # still travel, but the import raises FileNotFoundError (the real
    # symptom), which the parent treats as transient and retries.
    spec = maybe_fire(SITE_SHM_EXPORT)
    if spec is not None and spec.kind == KIND_DROP_SHM:
        release_result(out)
    return out


def _run_shard_task(
    plan: SynthesisPlan,
    n: int,
    rng: np.random.Generator,
    decode_rng: np.random.Generator | None,
    index: int,
    kernel: str,
) -> ShardResult:
    """One shard's synthesis *and decode* as a task; ``shared`` is the plan."""
    maybe_fire(SITE_SHARD, index=index)
    return plan.run_shard(n, rng, decode_rng, index=index, kernel=kernel)


class Backend(abc.ABC):
    """A strategy for running independent, order-indexed jobs.

    ``task_timeout`` bounds how long the caller waits on any one task
    result; ``retry`` is the :class:`~repro.reliability.RetryPolicy`
    governing resubmission after *transient* faults (worker death, task
    timeout, vanished shm segment).  Because every task is a pure function
    of its arguments — engine shard tasks carry their own pre-spawned
    ``SeedSequence``-child generator in the task tuple — a resubmitted task
    reproduces its original result bit-for-bit, so retrying never changes
    what a run computes, only whether it survives.  Both knobs only bind on
    the process-pool backend; the serial backend has no worker to lose.
    """

    name: str = "abstract"

    def __init__(
        self,
        max_workers: int | None = None,
        task_timeout: float | None = None,
        retry: "RetryPolicy | int | None" = None,
    ) -> None:
        self.max_workers = max_workers
        self.task_timeout = task_timeout
        if retry is None:
            retry = RetryPolicy()
        elif not isinstance(retry, RetryPolicy):
            retry = RetryPolicy(max_retries=int(retry))
        self.retry = retry

    @abc.abstractmethod
    def run_tasks(self, fn, tasks: list[tuple], shared=None) -> list:
        """Map ``fn(shared, *task)`` over ``tasks``; results in task order.

        ``fn`` must be a module-level (picklable) callable and every task a
        tuple of picklable arguments.  ``shared`` is a read-only payload each
        task receives as its first argument.
        """

    def imap_tasks(self, fn, tasks: list[tuple], shared=None, window: int | None = None):
        """Yield ``fn(shared, *task)`` results lazily, in task order.

        At most ``window`` tasks are in flight at once (default: worker count
        plus one), so a consumer that processes results as they arrive keeps
        bounded memory regardless of the task count.  The default
        implementation is eager; the concrete backends override it.
        """
        yield from self.run_tasks(fn, list(tasks), shared=shared)

    def open(self, shared=None) -> None:
        """Bind a persistent worker pool to ``shared`` (optional).

        Subsequent ``run_tasks(..., shared=<the same object>)`` calls reuse
        the pool instead of paying startup per call; other payloads still get
        a per-call pool.  Callers that ``open()`` must ``close()`` (the fit
        pipeline and ``NetDPSyn.pool()`` do both).  No-op for in-process
        backends.
        """

    def close(self) -> None:
        """Tear down the persistent pool opened by :meth:`open`, if any."""

    def _workers(self, n_tasks: int) -> int:
        # Default: one worker per task, but no more than one per CPU — extra
        # processes only time-slice the same cores and slow every shard.
        limit = self.max_workers or min(n_tasks, default_workers())
        return max(1, min(limit, n_tasks))

    def _window(self, window: int | None) -> int:
        if window is not None:
            return max(1, int(window))
        return (self.max_workers or default_workers()) + 1


class SerialBackend(Backend):
    """Run every task in the calling thread, one after another."""

    name = "serial"

    def run_tasks(self, fn, tasks, shared=None):
        return [fn(shared, *task) for task in tasks]

    def imap_tasks(self, fn, tasks, shared=None, window=None):
        # Fully lazy: one task runs per result consumed, so a streaming
        # consumer holds at most one task output at a time.
        for task in tasks:
            yield fn(shared, *task)


class ProcessBackend(Backend):
    """Run tasks on a process pool; large array results bypass the pipe.

    The ``shared`` payload travels once per pool — by fork inheritance under
    the (Linux-default) fork start method, through the pool initializer
    otherwise.  Sidesteps the GIL entirely.  :meth:`open` binds a persistent
    pool to one payload so consecutive calls (e.g. the fit pipeline's
    selection and publish stages, or every chunk of one streaming
    ``sample_to``) share a single worker startup and payload shipment.

    Every result passes through :func:`~repro.engine.shm.export_result` in
    the worker and :func:`~repro.engine.shm.import_result` in the parent:
    big numeric ndarrays (shard matrices, decoded trace columns) come back
    as :mod:`multiprocessing.shared_memory` segments — one memcpy instead of
    the pickle-encode/pipe/pickle-decode round trip — while values under
    :data:`~repro.engine.shm.SHM_MIN_BYTES` pickle through the pipe and are
    charged to the copy ledger.  Pool teardown (``close()``, every drain,
    every rebuild after a fault) sweeps segments orphaned by dead workers.
    """

    name = "process"

    def __init__(
        self,
        max_workers: int | None = None,
        task_timeout: float | None = None,
        retry: "RetryPolicy | int | None" = None,
    ) -> None:
        super().__init__(max_workers, task_timeout=task_timeout, retry=retry)
        self._pool: ProcessPoolExecutor | None = None
        self._pool_shared = None

    @staticmethod
    def _forking() -> bool:
        return multiprocessing.get_start_method() == "fork"

    @staticmethod
    def _drain(futures) -> None:
        """Reap unfinished futures, release their segments, sweep orphans.

        Called on every teardown path — early generator exit, a failed
        sibling task — because exported results live in ``/dev/shm`` until
        imported or released.  A worker killed between exporting a segment
        and the parent importing it leaves no handle to release, but its
        segment names are reconstructable (they embed this pid and the
        worker's), so the sweep reclaims them.  Live workers' segments are
        never touched.
        """
        for future in futures:
            try:
                raw = future.result()
            except BaseException:
                continue
            try:
                release_result(raw)
            except BaseException:  # pragma: no cover - best-effort cleanup
                pass
        sweep_orphan_segments()

    def _make_pool(self, workers: int, shared) -> ProcessPoolExecutor:
        """A pool whose (lazily forked) workers will carry ``shared``.

        Under fork, :meth:`_submit_one` re-asserts the module global around
        every submit (forks happen synchronously inside ``submit``); under
        spawn/forkserver the initializer pickles the payload once per worker.
        """
        if self._forking():
            return ProcessPoolExecutor(max_workers=workers)
        return ProcessPoolExecutor(
            max_workers=workers, initializer=_set_task_shared, initargs=(shared,)
        )

    def _submit_one(self, pool: ProcessPoolExecutor, shared, fn, task):
        """Submit one task; under fork, pin the payload global meanwhile.

        Worker processes are forked inside ``submit`` when the pool is below
        its worker cap, so holding the lock across the call guarantees each
        fork inherits this pool's payload even with concurrent pools on
        other threads.
        """
        if not self._forking():
            return pool.submit(_call_task, fn, task)
        with _TASK_SHARED_LOCK:
            _set_task_shared(shared)
            try:
                return pool.submit(_call_task, fn, task)
            finally:
                _set_task_shared(None)

    def _persist(self, shared) -> ProcessPoolExecutor:
        """Stand up the persistent pool bound to ``shared``."""
        self._pool = self._make_pool(self.max_workers or default_workers(), shared)
        self._pool_shared = shared
        return self._pool

    def open(self, shared=None) -> None:
        self.close()
        self._persist(shared)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
            self._pool_shared = None
        sweep_orphan_segments()

    def _pool_for(self, shared, n_tasks: int) -> tuple[ProcessPoolExecutor, bool]:
        """The persistent pool when it carries ``shared``, else a fresh one.

        A persistent pool that broke under a previous call (a worker died
        and the failure escaped past recovery) is rebuilt in place before
        reuse, so one faulted run never poisons the next.
        """
        if self._pool is not None and shared is self._pool_shared:
            if getattr(self._pool, "_broken", False):
                return self._rebuild(self._pool, True, shared, n_tasks)
            return self._pool, True
        return self._make_pool(self._workers(n_tasks), shared), False

    # -------------------------------------------------------------- recovery
    @staticmethod
    def _transient(exc: BaseException) -> bool:
        """Failures worth resubmitting: the *worker* died, stalled, or lost a
        result in transit — never the task function raising, which would
        deterministically raise again."""
        return isinstance(exc, (TimeoutError, BrokenExecutor, FaultError))

    def _shard_error(
        self, index: int, exc: BaseException, attempts: int, transient: bool = False
    ) -> ShardTaskError:
        kind = "transient fault" if transient else "failure"
        return ShardTaskError(
            f"task {index} failed after {attempts} attempt(s) "
            f"({kind}: {type(exc).__name__}: {exc})",
            index=index,
            attempts=attempts,
            transient=transient,
            remote_traceback=remote_traceback_of(exc),
        )

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Tear down a broken or hung pool without waiting for its tasks.

        Ends with an orphan sweep: segments the dead workers exported but
        nobody will import are reclaimed.  Callers import every salvageable
        result *before* calling this, so only true orphans are destroyed.
        """
        procs = list((getattr(pool, "_processes", None) or {}).values())
        for proc in procs:
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - process already reaped
                pass
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - SIGTERM was ignored
                proc.kill()
                proc.join(timeout=1.0)
        sweep_orphan_segments()

    def _rebuild(
        self, pool: ProcessPoolExecutor, reuse: bool, shared, n_tasks: int
    ) -> tuple[ProcessPoolExecutor, bool]:
        """Kill a faulted pool, reclaim its leftovers, stand up a successor.

        A persistent pool is replaced *as* the persistent pool (still bound
        to its payload), so recovery is invisible to ``open()``/``close()``
        callers.
        """
        self._kill_pool(pool)
        if reuse:
            return self._persist(shared), True
        return self._make_pool(self._workers(n_tasks), shared), False

    def run_tasks(self, fn, tasks, shared=None):
        return list(self.imap_tasks(fn, tasks, shared=shared, window=len(tasks)))

    def imap_tasks(self, fn, tasks, shared=None, window=None):
        tasks = list(tasks)
        if not tasks:
            return
        window = self._window(window)
        pool, reuse = self._pool_for(shared, len(tasks))
        pending: deque = deque()  # (index, future), always in index order
        ready: dict = {}  # results recovered ahead of their emission turn
        tries: dict[int, int] = {}
        emit = 0
        submit = 0
        round_no = 0
        try:
            while emit < len(tasks):
                if emit in ready:
                    yield ready.pop(emit)
                    emit += 1
                    continue
                fault = None  # (index, exc) of this turn's transient fault
                try:
                    # Fill the window.  A submit-time BrokenExecutor means a
                    # worker died while the pool was still being fed; it is
                    # recovered exactly like a mid-task death.
                    while submit < len(tasks) and len(pending) < window:
                        future = self._submit_one(pool, shared, fn, tasks[submit])
                        tries[submit] = tries.get(submit, 0) + 1
                        pending.append((submit, future))
                        submit += 1
                except BrokenExecutor as exc:
                    tries.setdefault(submit, 0)
                    fault = (submit, exc)
                if fault is None:
                    idx, future = pending[0]
                    try:
                        raw = future.result(timeout=self.task_timeout)
                    except Exception as exc:
                        if not self._transient(exc):
                            pending.popleft()
                            raise self._shard_error(idx, exc, tries[idx]) from exc
                        fault = (idx, exc)
                    else:
                        pending.popleft()
                        try:
                            ready[idx] = import_result(raw)
                            continue
                        except FileNotFoundError as exc:
                            # The segment behind the head result vanished
                            # before import; requeue its future so the
                            # salvage pass below classifies it for rerun.
                            pending.appendleft((idx, future))
                            fault = (idx, exc)
                # Transient fault: salvage in-window siblings that finished
                # before the fault (importing their shm results *pre-sweep*),
                # then rerun everything else on a fresh pool.
                index, exc = fault
                round_no += 1
                if not self.retry.retryable(round_no):
                    pending.clear()
                    self._kill_pool(pool)
                    if reuse:
                        self._pool = self._pool_shared = None
                    raise self._shard_error(
                        index, exc, tries.get(index, 1), transient=True
                    ) from exc
                refire: list[int] = []
                for j, f in pending:
                    if f.done():
                        try:
                            ready[j] = import_result(f.result())
                            continue
                        except Exception:
                            pass
                    refire.append(j)
                pending.clear()
                pool, reuse = self._rebuild(pool, reuse, shared, max(len(refire), 1))
                self.retry.sleep(round_no)
                for j in refire:
                    tries[j] += 1
                    pending.append((j, self._submit_one(pool, shared, fn, tasks[j])))
        finally:
            # Runs when the consumer abandons the generator (GeneratorExit)
            # or a task raises: the in-flight futures must still be reaped so
            # exported shm results are released, not leaked.
            self._drain(f for _, f in pending)
            if not reuse:
                pool.shutdown()


def scatter_map(
    executor: Backend | None, fn, items: list, shared=None, n_chunks=None
) -> list:
    """Chunked map: run ``fn(shared, chunk)`` per chunk, return per-item results.

    Items are dealt round-robin into ``n_chunks`` chunks (default: one per
    executor worker, falling back to the core count when the executor has no
    worker cap), so heterogeneous per-item costs spread evenly.  ``fn``
    receives a list of items and must return one result per item, in order;
    the per-item results are reassembled into the original item order.
    ``executor=None`` runs ``fn`` once over all items, in-process.
    """
    if not items:
        return []
    if executor is None:
        return fn(shared, list(items))
    if n_chunks is None:
        n_chunks = executor.max_workers or default_workers()
    k = max(1, min(int(n_chunks), len(items)))
    chunks = [items[i::k] for i in range(k)]
    chunk_results = executor.run_tasks(fn, [(chunk,) for chunk in chunks], shared=shared)
    out = [None] * len(items)
    for i, results in enumerate(chunk_results):
        if len(results) != len(chunks[i]):
            raise RuntimeError(
                f"task returned {len(results)} results for {len(chunks[i])} items"
            )
        for j, value in enumerate(results):
            out[i + j * k] = value
    return out


_BACKEND_CLASSES = {
    SerialBackend.name: SerialBackend,
    ProcessBackend.name: ProcessBackend,
}


def get_backend(
    name: str,
    max_workers: int | None = None,
    *,
    task_timeout: float | None = None,
    retry: "RetryPolicy | int | None" = None,
) -> Backend:
    """Instantiate a backend by name (``serial``, ``process``, ``fleet``;
    ``shared`` is an accepted spelling of ``process``).

    ``task_timeout`` bounds the wait on any single task result;
    ``retry`` (a :class:`~repro.reliability.RetryPolicy`, or an int for
    ``max_retries``) governs resubmission after transient worker faults.
    The ``fleet`` backend dispatches to the active
    :class:`repro.fleet.LocalCluster` context (imported lazily: the fleet
    package depends on this module).
    """
    name = canonical_backend(name)
    if name == "fleet":
        from repro.fleet.backend import FleetBackend

        return FleetBackend(
            max_workers=max_workers, task_timeout=task_timeout, retry=retry
        )
    cls = _BACKEND_CLASSES[name]
    return cls(max_workers=max_workers, task_timeout=task_timeout, retry=retry)
