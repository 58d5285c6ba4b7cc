"""Fleet worker: connect, register, heartbeat, execute shards, serve queries.

:func:`worker_main` is the entry point :class:`~repro.fleet.cluster.LocalCluster`
runs in each subprocess (and what a multi-host deployment would run per
node).  The runtime is two threads over one authenticated
:mod:`multiprocessing.connection` channel:

- the **main loop** receives ``assign`` envelopes and executes
  ``fn(shared, *task)`` — the task tuple carries the shard's own
  pre-spawned seed children, so *who* runs it cannot change the output.  It
  parks the result in shared memory (:func:`~repro.engine.shm.export_result`)
  and reports ``complete`` with the descriptor, or ``failed`` with the
  traceback (and the exception itself, when it pickles) for deterministic
  errors: a task function raising would raise again on any worker, so it is
  reported, not retried;
- the **heartbeat thread** sends one ``heartbeat`` envelope per interval
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
    ROLE_SAMPLER,
    ROLE_SERVING,
    SHARED_INHERITED,
    Envelope,
    decode_envelope,
    encode_envelope,
    pack_value,
    unpack_value,
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
        self.worker_id = worker_id
        self.inherited = inherited  # the payload it was forked with
        self.conn = None
        self.heartbeat_interval = 0.5
        self._send_lock = threading.Lock()
        self._seq = 0
        self._stop = threading.Event()
        #: spool path -> unpickled shared payload; a release's plan ships
        #: (and unpickles) once per worker, not once per shard.
        self._shared_cache: dict[str, object] = {}
        self._register_payload: dict = {"pid": os.getpid(), "role": ROLE_SAMPLER}

    # ------------------------------------------------------------- transport
    def send(self, type_: str, payload: dict | None = None) -> None:
        with self._send_lock:
            self._seq += 1
            frame = encode_envelope(
                Envelope(
                    type=type_,
                    sender=self.worker_id,
                    seq=self._seq,
                    payload=payload or {},
                )
            )
            self.conn.send_bytes(frame)

    def connect(self) -> None:
        """Dial the coordinator, register, and adopt its heartbeat interval."""
        self.conn = Client(self.address, authkey=self.authkey)
        self.send(MSG_REGISTER, self._register_payload)
        welcome = decode_envelope(self.conn.recv_bytes())
        if welcome.type != MSG_WELCOME:
            raise RuntimeError(f"expected welcome, got {welcome.type!r}")
        self.heartbeat_interval = float(
            welcome.payload.get("heartbeat_interval", self.heartbeat_interval)
        )

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

    def handle_assign(self, envelope: Envelope) -> None:
        payload = envelope.payload
        reply = {"release": int(payload["release"]), "index": int(payload["index"])}
        try:
            module = importlib.import_module(payload["fn_module"])
            fn = getattr(module, payload["fn_name"])
            task = unpack_value(payload["task"])
            out = export_result(fn(self._shared(payload.get("shared")), *task))
        except BaseException as exc:  # noqa: BLE001 - reported, not retried
            reply["error"] = f"{type(exc).__name__}: {exc}"
            reply["traceback"] = traceback.format_exc()
            try:
                reply["exception"] = pack_value(exc)
            except Exception:  # an unpicklable exception travels as text only
                pass
            self.send(MSG_FAILED, reply)
            return
        # Chaos hook: a ``drop_shm`` fault simulates the segment vanishing
        # between this export and the coordinator's import — the descriptor
        # still travels, but the import raises FileNotFoundError (the real
        # symptom), which the coordinator treats as a transient loss.
        spec = maybe_fire(SITE_SHM_EXPORT)
        if spec is not None and spec.kind == KIND_DROP_SHM:
            release_result(out)
        try:
            self.send(MSG_COMPLETE, {**reply, "result": pack_value(out)})
        except BaseException:
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
                    envelope = decode_envelope(self.conn.recv_bytes())
                except (EOFError, OSError):
                    if not self.reconnect():
                        break
                    continue
                if envelope.type == MSG_SHUTDOWN:
                    break
                if envelope.type == MSG_ASSIGN:
                    try:
                        self.handle_assign(envelope)
                    except (EOFError, OSError):
                        # The coordinator dropped us mid-task (e.g. we were
                        # expired during a stall and the result report hit a
                        # closed pipe).  The shard was already reassigned;
                        # reconnect and re-register rather than die.
                        if not self.reconnect():
                            break
                # Anything else (a future coordinator speaking a newer minor
                # dialect) is ignored rather than fatal.
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
    runtime._register_payload["role"] = ROLE_SERVING
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
