"""Fleet worker: execute shards on the connection the coordinator started it with.

:func:`worker_main` is the entry point :class:`~repro.fleet.cluster.LocalCluster`
runs in each subprocess.  The runtime is one loop over the child end of the
socketpair the cluster made for this worker, exchanging pickled
``(type, payload)`` messages (:mod:`repro.fleet.messaging`).  It receives
``assign`` messages and executes ``fn(shared, *task)``
— the task tuple carries the shard's own pre-spawned seed children, so
*who* runs it cannot change the output.  It parks the result in
``/dev/shm`` files under the prefix the cluster gave it
(:func:`~repro.engine.shm.export_result`) and reports ``complete``
with the descriptor pickled to bytes of its own (so the coordinator can
tell a result that does not load from a lost worker), or ``failed`` with
the traceback (and the exception itself, when it pickles) for
deterministic errors: a task function raising, or returning a result that
does not pickle, would do so again on any worker, so it is reported, not
retried.

The loop ends on ``shutdown``, or when the connection ends (EOF or
``OSError``): the coordinator died, or closed it because the worker was
lost.  The coordinator kills a lost worker and starts a replacement.

A forked worker starts with copies of the coordinator's descriptors (its
wake pipe, its end of this worker's connection and of the connections of
the workers before it); it closes the ones the coordinator names first, so
that the coordinator's death ends every connection.

Because ``LocalCluster`` forks workers, the module-global
:class:`~repro.reliability.FaultInjector` installed in the parent is
inherited here — worker-side chaos (kill mid-shard via ``SITE_SHARD``)
needs no extra plumbing.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import pickle
import traceback

from repro.engine.shm import export_result, release_result
from repro.fleet.messaging import (
    MSG_ASSIGN,
    MSG_COMPLETE,
    MSG_FAILED,
    MSG_SHUTDOWN,
    SHARED_INHERITED,
)
from repro.reliability.faults import KIND_DROP_SHM, SITE_SHM_EXPORT, maybe_fire


class _WorkerRuntime:
    """State of one worker process: connection and payload cache."""

    def __init__(self, conn, result_prefix: str, inherited=None) -> None:
        self.conn = conn
        #: Path prefix of every result file this worker writes.
        self.result_prefix = result_prefix
        self.inherited = inherited  # the payload it was forked with
        #: (spool path, unpickled payload) of the last spooled payload it
        #: loaded: a release's plan unpickles once per worker, not once per
        #: shard, and an older payload is not kept.
        self._spooled: tuple | None = None

    def send(self, type_: str, payload: dict | None = None) -> None:
        self.conn.send((type_, payload or {}))

    # ------------------------------------------------------------- execution
    def _shared(self, ref: str | None):
        if ref is None:
            return None
        if ref == SHARED_INHERITED:
            return self.inherited
        if self._spooled is None or self._spooled[0] != ref:
            self._spooled = None  # drop the old payload before loading the new
            with open(ref, "rb") as fh:
                self._spooled = (ref, pickle.load(fh))
        return self._spooled[1]

    def fail(self, reply: dict, exc: BaseException) -> None:
        """Report a deterministic failure of the shard ``reply`` names."""
        reply = {
            **reply,
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": "".join(traceback.format_exception(exc)),
        }
        try:
            reply["exception"] = pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:  # an unpicklable exception travels as text only
            pass
        self.send(MSG_FAILED, reply)

    def handle_assign(self, payload: dict) -> None:
        reply = {"release": payload["release"], "index": payload["index"]}
        try:
            module = importlib.import_module(payload["fn_module"])
            fn = getattr(module, payload["fn_name"])
            task = pickle.loads(payload["task"])
            out = export_result(fn(self._shared(payload["shared"]), *task), self.result_prefix)
        except BaseException as exc:  # noqa: BLE001 - reported, not retried
            self.fail(reply, exc)
            return
        # Chaos hook: a ``drop_shm`` fault simulates the file vanishing
        # between this export and the coordinator's import — the descriptor
        # still travels, but the import raises FileNotFoundError (the real
        # symptom), which the coordinator treats as a transient loss.
        spec = maybe_fire(SITE_SHM_EXPORT)
        if spec is not None and spec.kind == KIND_DROP_SHM:
            release_result(out)
        try:
            result = pickle.dumps(out, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # the result does not pickle, on any worker
            release_result(out)
            self.fail(reply, exc)
            return
        try:
            self.send(MSG_COMPLETE, {**reply, "result": result})
        except (EOFError, OSError):
            release_result(out)  # nobody will import it
            raise

    # ------------------------------------------------------------- main loop
    def run(self) -> None:
        try:
            with self.conn:
                while True:
                    type_, payload = self.conn.recv()
                    if type_ == MSG_SHUTDOWN:
                        return
                    if type_ == MSG_ASSIGN:
                        self.handle_assign(payload)
        except (EOFError, OSError):
            return  # the coordinator is gone, or dropped this worker


def worker_main(conn, result_prefix: str, inherited=None, close_fds=()) -> None:
    """Entry point of one fleet worker process, on connection ``conn``.

    ``close_fds`` are the coordinator's descriptors a forked worker
    inherited and must not hold.
    """
    for fd in close_fds:
        with contextlib.suppress(OSError):
            os.close(fd)
    _WorkerRuntime(conn, result_prefix, inherited).run()
