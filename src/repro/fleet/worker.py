"""Fleet worker: connect, register, heartbeat, execute shards, serve queries.

:func:`worker_main` is the entry point :class:`~repro.fleet.cluster.LocalCluster`
runs in each subprocess.  The runtime is two threads over one authenticated
:mod:`multiprocessing.connection` channel, exchanging pickled
``(type, payload)`` messages (:mod:`repro.fleet.messaging`):

- the **main loop** receives ``assign`` messages and executes
  ``fn(shared, *task)`` — the task tuple carries the shard's own
  pre-spawned seed children, so *who* runs it cannot change the output.  It
  parks the result in shared memory (:func:`~repro.engine.shm.export_result`)
  and reports ``complete`` with the descriptor pickled to bytes of its own
  (so the coordinator can tell a result that does not load from a lost
  worker), or ``failed`` with the
  traceback (and the exception itself, when it pickles) for deterministic
  errors: a task function raising, or returning a result that does not
  pickle, would do so again on any worker, so it is reported, not retried;
- the **heartbeat thread** sends one ``heartbeat`` message per interval
  (the interval is dictated by the coordinator's ``welcome``).  It passes
  the ``SITE_FLEET_HEARTBEAT`` fault site first, so the chaos suite can
  kill a worker mid-heartbeat as easily as mid-shard.

A lost connection is survivable: the main loop reconnects and re-registers
(bounded attempts), which is also how a worker expired during a stall
(e.g. ``SIGSTOP``) resumes after the coordinator dropped it — the registry
counts the re-registration, the work-queue already reassigned its shards,
and any stale result it still reports is discarded by the coordinator's
lease check.

Because ``LocalCluster`` forks workers, the module-global
:class:`~repro.reliability.FaultInjector` installed in the parent is
inherited here — worker-side chaos (kill mid-shard via ``SITE_SHARD``,
mid-heartbeat via ``SITE_FLEET_HEARTBEAT``) needs no extra plumbing.
"""

from __future__ import annotations

import importlib
import os
import pickle
import threading
import time
import traceback
from multiprocessing.connection import Client

from repro.engine.shm import export_result, release_result
from repro.fleet.messaging import (
    MSG_ASSIGN,
    MSG_COMPLETE,
    MSG_FAILED,
    MSG_HEARTBEAT,
    MSG_REGISTER,
    MSG_SHUTDOWN,
    MSG_WELCOME,
    SHARED_INHERITED,
)
from repro.reliability.faults import (
    KIND_DROP_SHM,
    SITE_FLEET_HEARTBEAT,
    SITE_SHM_EXPORT,
    maybe_fire,
)

#: Reconnect attempts after a lost coordinator connection before giving up.
RECONNECT_ATTEMPTS = 3
RECONNECT_DELAY = 0.05


class _WorkerRuntime:
    """State of one worker process: connection, caches, heartbeat."""

    def __init__(self, address, authkey: bytes, worker_id: str, inherited=None) -> None:
        self.address = address
        self.authkey = authkey
        self.inherited = inherited  # the payload it was forked with
        self.conn = None
        self.heartbeat_interval = 0.5
        self._send_lock = threading.Lock()
        self._stop = threading.Event()
        #: spool path -> unpickled shared payload; a release's plan ships
        #: (and unpickles) once per worker, not once per shard.
        self._shared_cache: dict[str, object] = {}
        self._register_payload: dict = {"worker_id": worker_id, "pid": os.getpid()}

    # ------------------------------------------------------------- transport
    def send(self, type_: str, payload: dict | None = None) -> None:
        with self._send_lock:
            self.conn.send((type_, payload or {}))

    def connect(self) -> None:
        """Dial the coordinator, register, and adopt its heartbeat interval."""
        self.conn = Client(self.address, authkey=self.authkey)
        self.send(MSG_REGISTER, self._register_payload)
        type_, payload = self.conn.recv()
        if type_ != MSG_WELCOME:
            raise RuntimeError(f"expected welcome, got {type_!r}")
        self.heartbeat_interval = float(payload["heartbeat_interval"])

    def reconnect(self) -> bool:
        """Re-dial and re-register after a lost connection."""
        for attempt in range(RECONNECT_ATTEMPTS):
            try:
                old = self.conn
                self.conn = None
                if old is not None:
                    old.close()
                self.connect()
                return True
            except OSError:
                time.sleep(RECONNECT_DELAY * (attempt + 1))
        return False

    # ------------------------------------------------------------- heartbeat
    def heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            maybe_fire(SITE_FLEET_HEARTBEAT)
            try:
                self.send(MSG_HEARTBEAT)
            except (OSError, ValueError, AttributeError):
                # Connection mid-replacement or gone; the main loop owns
                # reconnection — skip this beat rather than fight over it.
                continue

    # ------------------------------------------------------------- execution
    def _shared(self, ref: str | None):
        if ref is None:
            return None
        if ref == SHARED_INHERITED:
            return self.inherited
        if ref not in self._shared_cache:
            with open(ref, "rb") as fh:
                self._shared_cache[ref] = pickle.load(fh)
        return self._shared_cache[ref]

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
            out = export_result(fn(self._shared(payload["shared"]), *task))
        except BaseException as exc:  # noqa: BLE001 - reported, not retried
            self.fail(reply, exc)
            return
        # Chaos hook: a ``drop_shm`` fault simulates the segment vanishing
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
            self.connect()
        except (OSError, EOFError):
            return  # the coordinator closed before this worker registered
        beat = threading.Thread(target=self.heartbeat_loop, daemon=True)
        beat.start()
        try:
            while True:
                try:
                    type_, payload = self.conn.recv()
                except (EOFError, OSError):
                    if not self.reconnect():
                        break
                    continue
                if type_ == MSG_SHUTDOWN:
                    break
                if type_ == MSG_ASSIGN:
                    try:
                        self.handle_assign(payload)
                    except (EOFError, OSError):
                        # The coordinator dropped us mid-task (e.g. we were
                        # expired during a stall and the result report hit a
                        # closed pipe).  The shard was already reassigned;
                        # reconnect and re-register rather than die.
                        if not self.reconnect():
                            break
        finally:
            self._stop.set()
            try:
                self.conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass


def _start_serving(runtime: _WorkerRuntime, serving_root) -> None:
    """Stand up an HTTP query replica and advertise its URL at register time.

    Every replica serves from its own :class:`~repro.serving.ModelRegistry`
    over the same model files, so answers are bit-identical across replicas
    — the property the round-robin client's failover relies on.
    """
    from repro.serving import ModelRegistry, QueryService
    from repro.serving.http import serve_in_thread

    service = QueryService(ModelRegistry(serving_root))
    server, _thread = serve_in_thread(service)
    host, port = server.server_address[:2]
    runtime._register_payload["url"] = f"http://{host}:{port}"


def worker_main(
    address,
    authkey: bytes,
    worker_id: str,
    serving_root=None,
    inherited=None,
) -> None:
    """Entry point of one fleet worker process."""
    runtime = _WorkerRuntime(address, authkey, worker_id, inherited)
    if serving_root is not None:
        _start_serving(runtime, serving_root)
    runtime.run()
