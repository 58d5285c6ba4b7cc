"""Execution backends: a generic map-style task executor, serial to shared-memory.

Every backend implements :meth:`Backend.run_tasks` — run a module-level
function over a list of argument tuples, returning results in task order —
plus the streaming :meth:`Backend.imap_tasks` (results yielded in task order
with a bounded submission window, the memory bound behind the streaming
synthesis API) and the shard-oriented :meth:`Backend.run` used by the
sampling engine.  Because every task result is a pure function of its
inputs, all backends produce identical results for the same inputs; the only
thing that changes is where the work runs and how results travel back.

A ``shared`` payload (e.g. the encoded data matrix, or the synthesis plan)
is passed to every task as its first argument.  The process backends ship it
to workers **once per pool** — via fork inheritance where the start method
allows it, or via the pool initializer otherwise — instead of pickling it
per task; :meth:`Backend.open` binds a persistent pool to one payload so the
shipment happens once per pool *lifetime* across many calls.

The ``shared`` backend additionally returns large ndarray results through
:mod:`multiprocessing.shared_memory` segments (see :mod:`repro.engine.shm`)
instead of the pickled result pipe.
"""

from __future__ import annotations

import abc
import multiprocessing
import threading
from collections import deque
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import TYPE_CHECKING

import numpy as np

from repro.engine.config import ALL_BACKENDS
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

#: Worker-side shared payload for :meth:`ProcessBackend.run_tasks` under the
#: fork start method: workers fork during ``submit`` and inherit the value
#: (spawn/forkserver ship it via the pool initializer instead).  The parent
#: only mutates it — and only submits, since that is where forks happen —
#: while holding :data:`_TASK_SHARED_LOCK`, so concurrent pools on different
#: threads can never fork a worker carrying another pool's payload.
_TASK_SHARED = None
_TASK_SHARED_LOCK = threading.Lock()


def _set_task_shared(value) -> None:
    global _TASK_SHARED
    _TASK_SHARED = value


def _call_task(fn, args):
    """Invoke one task against the worker's shared payload.

    Module-level so the process backend can pickle it; ``fn`` itself must be
    a module-level callable for the same reason.
    """
    return fn(_TASK_SHARED, *args)


def _call_task_shm(fn, args):
    """Like :func:`_call_task`, but park large array results in shared memory."""
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
    index: int,
    kernel: str,
) -> ShardResult:
    """GUM shard synthesis as a ``run_tasks`` task; ``shared`` is the plan."""
    maybe_fire(SITE_SHARD, index=index)
    return plan.run_shard(n, rng, index=index, kernel=kernel)


def _run_decoded_shard_task(
    plan: SynthesisPlan,
    n: int,
    rng: np.random.Generator,
    decode_rng: np.random.Generator,
    index: int,
    kernel: str,
):
    """Shard synthesis *plus decode* as one task (the streaming hot path)."""
    maybe_fire(SITE_SHARD, index=index)
    return plan.run_shard_decoded(n, rng, decode_rng, index=index, kernel=kernel)


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
    the process-pool backends; in-process backends have no worker to lose.
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

    def run(
        self,
        plan: SynthesisPlan,
        sizes: list[int],
        rngs: list[np.random.Generator],
        kernel: str,
    ) -> list[ShardResult]:
        """Run one GUM shard per ``(size, rng)`` pair; results in shard order.

        ``kernel`` is the concrete (pre-resolved) GUM kernel name every
        shard executes with.
        """
        tasks = [
            (n, rng, index, kernel) for index, (n, rng) in enumerate(zip(sizes, rngs))
        ]
        return self.run_tasks(_run_shard_task, tasks, shared=plan)

    def _workers(self, n_tasks: int) -> int:
        limit = self.max_workers if self.max_workers is not None else n_tasks
        return max(1, min(limit, n_tasks))

    def _window(self, window: int | None) -> int:
        if window is not None:
            return max(1, int(window))
        return (self.max_workers or multiprocessing.cpu_count() or 1) + 1


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


class ThreadBackend(Backend):
    """Run tasks on a thread pool.

    NumPy releases the GIL inside the heavy kernels (sort, bincount,
    gather), so threads overlap part of the work without any pickling cost;
    the process backends are the stronger choice for CPU-bound scaling.
    """

    name = "thread"

    def run_tasks(self, fn, tasks, shared=None):
        if not tasks:
            return []
        with ThreadPoolExecutor(max_workers=self._workers(len(tasks))) as pool:
            futures = [pool.submit(fn, shared, *task) for task in tasks]
            return [f.result() for f in futures]

    def imap_tasks(self, fn, tasks, shared=None, window=None):
        tasks = list(tasks)
        if not tasks:
            return
        window = self._window(window)
        with ThreadPoolExecutor(max_workers=self._workers(len(tasks))) as pool:
            pending: deque = deque()
            for task in tasks:
                pending.append(pool.submit(fn, shared, *task))
                while len(pending) >= window:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()


class ProcessBackend(Backend):
    """Run tasks on a process pool.

    Task arguments and results are pickled per task; the ``shared`` payload
    travels once per pool — by fork inheritance under the (Linux-default)
    fork start method, through the pool initializer otherwise.  Sidesteps
    the GIL entirely.  :meth:`open` binds a persistent pool to one payload so
    consecutive ``run_tasks`` calls (e.g. the fit pipeline's selection and
    publish stages, or every chunk of one streaming ``sample_to``) share a
    single worker startup and a single payload shipment.
    """

    name = "process"

    #: Worker-side wrapper each task is submitted through; the shared-memory
    #: subclass swaps in the shm-exporting variant.  Must be module-level so
    #: the pool can pickle it.
    _caller = staticmethod(_call_task)

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

    def _finish(self, raw):
        """Post-process one raw future result (hook for the shm subclass)."""
        return raw

    def _discard(self, raw) -> None:
        """Dispose of a raw result that will never be finished (shm hook)."""

    def _drain(self, futures) -> None:
        """Consume and discard unfinished futures so no result leaks.

        Called on every teardown path — early generator exit, a failed
        sibling task — because the shared-memory subclass parks results in
        ``/dev/shm`` segments that only die when imported or released.
        """
        for future in futures:
            try:
                raw = future.result()
            except BaseException:
                continue
            try:
                self._discard(raw)
            except BaseException:  # pragma: no cover - best-effort cleanup
                pass

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
            return pool.submit(self._caller, fn, task)
        with _TASK_SHARED_LOCK:
            _set_task_shared(shared)
            try:
                return pool.submit(self._caller, fn, task)
            finally:
                _set_task_shared(None)

    def open(self, shared=None) -> None:
        self.close()
        workers = self.max_workers or (multiprocessing.cpu_count() or 1)
        self._pool = self._make_pool(workers, shared)
        self._pool_shared = shared

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
            self._pool_shared = None

    def _pool_for(self, shared, n_tasks: int) -> tuple[ProcessPoolExecutor, bool]:
        """The persistent pool when it carries ``shared``, else a fresh one.

        A persistent pool that broke under a previous call (a worker died
        and the failure escaped past recovery) is rebuilt in place before
        reuse, so one faulted run never poisons the next.
        """
        if self._pool is not None and shared is self._pool_shared:
            if getattr(self._pool, "_broken", False):
                self._kill_pool(self._pool)
                self._after_failure()
                workers = self.max_workers or (multiprocessing.cpu_count() or 1)
                self._pool = self._make_pool(workers, shared)
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

    def _kill_pool(self, pool: ProcessPoolExecutor) -> None:
        """Tear down a broken or hung pool without waiting for its tasks."""
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

    def _after_failure(self) -> None:
        """Post-teardown hook (the shm subclass sweeps orphan segments)."""

    def _rebuild(
        self, pool: ProcessPoolExecutor, reuse: bool, shared, n_tasks: int
    ) -> tuple[ProcessPoolExecutor, bool]:
        """Kill a faulted pool, reclaim its leftovers, stand up a successor.

        A persistent pool is replaced *as* the persistent pool (still bound
        to its payload), so recovery is invisible to ``open()``/``close()``
        callers.
        """
        self._kill_pool(pool)
        self._after_failure()
        if reuse:
            workers = self.max_workers or (multiprocessing.cpu_count() or 1)
            self._pool = self._make_pool(workers, shared)
            self._pool_shared = shared
            return self._pool, True
        return self._make_pool(self._workers(n_tasks), shared), False

    def _dispose(self, pool: ProcessPoolExecutor, reuse: bool) -> None:
        """Final teardown after giving up on a faulted pool."""
        self._kill_pool(pool)
        self._after_failure()
        if reuse:
            self._pool = None
            self._pool_shared = None

    def _consume(self, futures: list, results: list, tries: dict):
        """Wait for every submitted ``(index, future)`` pair, in index order.

        Successful results are finished (shm handles imported) here,
        *before* any pool teardown — the recovery path's orphan sweep would
        otherwise destroy completed-but-unimported segments.  Returns
        ``(failed_indices, (index, cause))`` on transient faults (the listed
        tasks must be resubmitted); raises :class:`ShardTaskError` outright
        when a task function failed deterministically.
        """
        failed: list[int] = []
        cause = None
        salvage = False
        for pos, (idx, future) in enumerate(futures):
            if salvage and not future.done():
                # Already giving up on this pool; whatever is still running
                # dies with it and reruns on the successor.
                failed.append(idx)
                continue
            try:
                raw = future.result(timeout=self.task_timeout)
            except Exception as exc:
                if self._transient(exc):
                    if cause is None:
                        cause = (idx, exc)
                    failed.append(idx)
                    salvage = True
                    continue
                self._drain(f for _, f in futures[pos + 1 :])
                raise self._shard_error(idx, exc, tries[idx]) from exc
            try:
                results[idx] = self._finish(raw)
            except FileNotFoundError as exc:
                # The segment behind a completed task vanished before import:
                # rerun just that task.
                if cause is None:
                    cause = (idx, exc)
                failed.append(idx)
        return failed, cause

    def run_tasks(self, fn, tasks, shared=None):
        if not tasks:
            return []
        pool, reuse = self._pool_for(shared, len(tasks))
        results = [None] * len(tasks)
        remaining = list(range(len(tasks)))
        tries = dict.fromkeys(remaining, 0)
        round_no = 0
        try:
            while remaining:
                futures = []
                submit_exc = None
                for idx in remaining:
                    try:
                        futures.append(
                            (idx, self._submit_one(pool, shared, fn, tasks[idx]))
                        )
                    except BrokenExecutor as exc:
                        # The pool died while the round was still being fed;
                        # everything unsubmitted joins the retry round.
                        submit_exc = exc
                        break
                    tries[idx] += 1
                failed, cause = self._consume(futures, results, tries)
                if submit_exc is not None:
                    failed = failed + remaining[len(futures) :]
                    if cause is None:
                        cause = (remaining[len(futures)], submit_exc)
                if not failed:
                    break
                index, exc = cause
                round_no += 1
                if not self.retry.retryable(round_no):
                    self._dispose(pool, reuse)
                    raise self._shard_error(
                        index, exc, tries[index], transient=True
                    ) from exc
                pool, reuse = self._rebuild(pool, reuse, shared, len(failed))
                self.retry.sleep(round_no)
                remaining = failed
            return results
        finally:
            if not reuse:
                pool.shutdown()

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
                            ready[idx] = self._finish(raw)
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
                    self._dispose(pool, reuse)
                    raise self._shard_error(
                        index, exc, tries.get(index, 1), transient=True
                    ) from exc
                refire: list[int] = []
                for j, f in pending:
                    if f.done():
                        try:
                            ready[j] = self._finish(f.result())
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


class SharedMemoryBackend(ProcessBackend):
    """A process pool whose large array results bypass the result pipe.

    Identical task semantics to :class:`ProcessBackend` — the payload still
    ships once per pool, results still arrive in task order — but any result
    containing big numeric ndarrays (shard matrices, decoded trace columns)
    comes back as :mod:`multiprocessing.shared_memory` segments: the worker
    copies the array into a segment and sends a name-sized handle; the
    parent attaches a view, materializes it, and unlinks.  One memcpy
    replaces the pickle-encode/pipe/pickle-decode round trip, which is what
    the per-shard serialization cost is mostly made of.  See
    :mod:`repro.engine.shm` for the ownership protocol.
    """

    name = "shared"

    _caller = staticmethod(_call_task_shm)

    def _finish(self, raw):
        return import_result(raw)

    def _discard(self, raw):
        release_result(raw)

    def _drain(self, futures) -> None:
        """Reap futures, then sweep segments orphaned by dead workers.

        A worker killed between exporting a segment and the parent importing
        it leaves no handle to release — every future it touched raises —
        but its segment names are reconstructable (they embed this pid and
        the worker's), so the sweep reclaims them here, on every teardown
        path.  Live workers' segments are never touched.
        """
        super()._drain(futures)
        sweep_orphan_segments()

    def _after_failure(self) -> None:
        """Recovery hook: reclaim segments orphaned by the workers that just
        died.  Runs strictly after :meth:`_consume` imported the survivors,
        so only results nobody will ever import are destroyed."""
        sweep_orphan_segments()

    def close(self) -> None:
        super().close()
        sweep_orphan_segments()


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
        n_chunks = executor.max_workers or (multiprocessing.cpu_count() or 1)
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
    ThreadBackend.name: ThreadBackend,
    ProcessBackend.name: ProcessBackend,
    SharedMemoryBackend.name: SharedMemoryBackend,
}


def get_backend(
    name: str,
    max_workers: int | None = None,
    *,
    task_timeout: float | None = None,
    retry: "RetryPolicy | int | None" = None,
) -> Backend:
    """Instantiate a backend by name (``serial``, ``thread``, ``process``,
    ``shared``, ``fleet``).

    ``task_timeout`` bounds the wait on any single task result;
    ``retry`` (a :class:`~repro.reliability.RetryPolicy`, or an int for
    ``max_retries``) governs resubmission after transient worker faults.
    The ``fleet`` backend dispatches to the active
    :class:`repro.fleet.LocalCluster` context (imported lazily: the fleet
    package depends on this module).
    """
    if name == "fleet":
        from repro.fleet.backend import FleetBackend

        return FleetBackend(
            max_workers=max_workers, task_timeout=task_timeout, retry=retry
        )
    try:
        cls = _BACKEND_CLASSES[name]
    except KeyError:
        raise ValueError(
            f"backend must be one of {ALL_BACKENDS}, got {name!r}"
        ) from None
    return cls(max_workers=max_workers, task_timeout=task_timeout, retry=retry)
