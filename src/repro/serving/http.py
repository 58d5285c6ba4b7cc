"""Stdlib HTTP/JSON transport over :class:`~repro.serving.service.QueryService`.

No third-party dependency: ``http.server.ThreadingHTTPServer`` (one thread
per connection, HTTP/1.1 keep-alive) dispatches straight into the shared
thread-safe service — which is exactly the concurrency shape the service's
micro-batching exploits: requests arriving on different connection threads
while a batch executes ride the next single ``run_batch`` execution.

Endpoints (all JSON; errors use the envelope of
:meth:`~repro.serving.errors.ServingError.to_wire` with the taxonomy's
status codes — 400 invalid query/body, 401 bad API key, 404 unknown
model/route, 429 quota, 503 overloaded/breaker-open/model-unavailable,
504 deadline, 500 anything else — every non-2xx carries a typed
``error.code``, never a bare traceback):

- ``GET  /healthz`` — liveness probe (answers even while draining).
- ``GET  /readyz`` — readiness probe: 503 ``{"status": "draining"}`` once
  shutdown has begun, else 200 with the circuit breaker's state.
- ``GET  /v1/models`` — inventory with per-model generation.
- ``GET  /v1/models/{name}`` — one model's queryable surface.
- ``POST /v1/models/{name}/query`` — body ``{"query": {...}, "prefer"?}``;
  answers with the wire form of one :class:`QueryAnswer`.
- ``POST /v1/models/{name}/batch`` — body ``{"queries": [...], "prefer"?}``;
  answers ``{"answers": [...]}`` in input order.
- ``GET  /v1/stats`` — cache/batcher/registry/reliability counters.

Per-request deadlines ride the ``X-Request-Deadline-Ms`` header (overrides
the service default); an expired request answers 504 ``deadline_exceeded``.
Retryable 503/504s carry a ``Retry-After`` header when the service knows a
good backoff.  Authentication is the ``X-Api-Key`` header (ignored by the
default open authenticator).  The CLI entry point (``serve-http`` console
script, or ``python -m repro.serving.http``) serves a directory of
``.ndpsyn`` files and shuts down gracefully on SIGTERM/SIGINT: stop
accepting, drain in-flight requests for ``--grace`` seconds, close the
socket, exit 0.
"""

from __future__ import annotations

import argparse
import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.reliability import Deadline
from repro.serving.errors import (
    ModelNotFound,
    QueryValidationError,
    ServingError,
    error_from_exception,
)
from repro.serving.queries import Prefer
from repro.serving.registry import ModelRegistry
from repro.serving.service import ApiKeyAuth, QueryService, ServiceConfig, Tenant

#: Request bodies above this size are rejected before parsing (a batch of
#: thousands of queries fits comfortably; this is an abuse guard, not a
#: functional limit).
MAX_BODY_BYTES = 8 * 1024 * 1024

API_KEY_HEADER = "X-Api-Key"
DEADLINE_HEADER = "X-Request-Deadline-Ms"


class ServingHTTPServer(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` owning the shared :class:`QueryService`.

    Tracks its own in-flight request count (HTTP requests being handled,
    which is broader than the service's admitted-execution count) so a
    graceful shutdown can drain: :meth:`begin_drain` flips ``/readyz`` to
    503, then :meth:`await_drain` blocks until the last in-flight request
    has answered or the grace period runs out.
    """

    daemon_threads = True

    def __init__(self, address, service: QueryService) -> None:
        super().__init__(address, ServingRequestHandler)
        self.service = service
        self.draining = False
        self._inflight = 0
        self._inflight_lock = threading.Lock()

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    # ---------------------------------------------------------------- drain
    def request_began(self) -> None:
        with self._inflight_lock:
            self._inflight += 1

    def request_ended(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1

    @property
    def inflight(self) -> int:
        with self._inflight_lock:
            return self._inflight

    def begin_drain(self) -> None:
        """Flip ``/readyz`` to draining; new probes route traffic away."""
        self.draining = True

    def await_drain(self, grace: float = 5.0, poll: float = 0.02) -> bool:
        """Wait for in-flight requests to answer; True when drained clean.

        Bounded by ``grace`` seconds — a hung request must not block
        shutdown forever (connection threads are daemons, so exiting after
        an unclean drain is safe, just reported).
        """
        limit = time.monotonic() + max(0.0, grace)
        while self.inflight > 0 and time.monotonic() < limit:
            time.sleep(poll)
        return self.inflight == 0


class ServingRequestHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive: one connection, many queries
    server_version = "repro-serving/1"
    # One buffered write per response + TCP_NODELAY: the stdlib default
    # (unbuffered header write, then a body write, Nagle on) interacts with
    # the client's delayed ACK into ~40 ms stalls per request on Linux.
    wbufsize = -1
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------ verbs
    def do_GET(self) -> None:  # noqa: N802 - stdlib handler naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler naming
        self._dispatch("POST")

    def log_message(self, format, *args) -> None:  # noqa: A002 - stdlib shape
        pass  # per-request stderr logging would swamp benchmark runs

    # -------------------------------------------------------------- dispatch
    def _dispatch(self, method: str) -> None:
        self.server.request_began()
        try:
            try:
                status, payload = self._route(method)
            except ServingError as exc:
                status, payload = exc.http_status, exc.to_wire()
                self._respond(status, payload, retry_after=getattr(exc, "retry_after", None))
                return
            except Exception as exc:  # pragma: no cover - handler bug guard
                wrapped = error_from_exception(exc)
                self._respond(wrapped.http_status, wrapped.to_wire())
                return
            self._respond(status, payload)
        finally:
            self.server.request_ended()

    def _route(self, method: str) -> tuple:
        service = self.server.service
        path = self.path.split("?", 1)[0].rstrip("/")
        parts = [p for p in path.split("/") if p]
        if method == "GET":
            if parts == ["healthz"]:
                return 200, {"status": "ok"}
            if parts == ["readyz"]:
                if self.server.draining:
                    return 503, {"status": "draining"}
                return 200, {"status": "ready", "breaker": service.breaker.state}
            if parts == ["v1", "models"]:
                return 200, service.models()
            if parts == ["v1", "stats"]:
                return 200, service.stats()
            if len(parts) == 3 and parts[:2] == ["v1", "models"]:
                return 200, service.model_info(parts[2])
        elif method == "POST" and len(parts) == 4 and parts[:2] == ["v1", "models"]:
            name, action = parts[2], parts[3]
            api_key = self.headers.get(API_KEY_HEADER)
            # Body first, then deadline: the body must leave the socket even
            # when the header is rejected, or the keep-alive connection
            # desyncs (the leftover body would parse as the next request).
            body = self._read_json()
            deadline = self._deadline_from_headers()
            if action == "query":
                return 200, service.handle_query(
                    name, body, api_key=api_key, deadline=deadline
                )
            if action == "batch":
                return 200, service.handle_query_batch(
                    name, body, api_key=api_key, deadline=deadline
                )
        raise ModelNotFound(f"no route for {method} {path!r}")

    def _deadline_from_headers(self) -> Deadline | None:
        raw = self.headers.get(DEADLINE_HEADER)
        if raw is None:
            return None
        try:
            ms = float(raw)
        except (TypeError, ValueError):
            raise QueryValidationError(
                f"invalid {DEADLINE_HEADER} header: {raw!r}"
            ) from None
        if ms <= 0:
            raise QueryValidationError(
                f"{DEADLINE_HEADER} must be positive, got {raw!r}"
            )
        return Deadline.after(ms / 1000.0)

    def _read_json(self) -> dict:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            raise QueryValidationError("missing or invalid Content-Length") from None
        if length <= 0:
            raise QueryValidationError("request body required")
        if length > MAX_BODY_BYTES:
            raise QueryValidationError(
                f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise QueryValidationError(f"request body is not valid JSON: {exc}") from None

    def _respond(self, status: int, payload: dict, retry_after=None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", f"{max(retry_after, 0.001):.3f}")
        self.end_headers()
        try:
            self.wfile.write(body)
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # client went away mid-response; nothing to salvage


# ------------------------------------------------------------------- running
def make_server(
    service: QueryService, host: str = "127.0.0.1", port: int = 0
) -> ServingHTTPServer:
    """Bind (``port=0`` = ephemeral) without starting the serve loop."""
    return ServingHTTPServer((host, port), service)


def serve_in_thread(service: QueryService, host: str = "127.0.0.1", port: int = 0):
    """Start a daemonized server; returns ``(server, thread)``.

    The benchmark and tests use this; call ``server.shutdown()`` then
    ``server.server_close()`` to stop.
    """
    server = make_server(service, host, port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def _parse_tenant(spec: str) -> Tenant:
    """``name:key[:rate[:burst]]`` CLI tenant spec -> :class:`Tenant`."""
    fields = spec.split(":")
    if len(fields) < 2 or not fields[0] or not fields[1]:
        raise argparse.ArgumentTypeError(
            f"tenant spec {spec!r} is not name:key[:rate[:burst]]"
        )
    try:
        rate = float(fields[2]) if len(fields) > 2 else None
        burst = float(fields[3]) if len(fields) > 3 else None
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad rate/burst in tenant spec {spec!r}") from None
    return Tenant(name=fields[0], api_key=fields[1], rate=rate, burst=burst)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="serve-http",
        description="Serve DP queries over a directory of .ndpsyn models.",
    )
    parser.add_argument("root", help="directory of .ndpsyn model files")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument(
        "--no-batching",
        action="store_true",
        help="run each request by itself instead of micro-batching",
    )
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument("--no-cache", action="store_true", help="disable the answer cache")
    parser.add_argument("--cache-entries", type=int, default=10_000)
    parser.add_argument(
        "--prefer",
        default=str(Prefer.AUTO),
        type=Prefer.coerce,
        help="default execution path for requests that do not specify one",
    )
    parser.add_argument(
        "--sample-records",
        type=int,
        default=None,
        help="size of each engine's fallback sample cache",
    )
    parser.add_argument(
        "--tenant",
        action="append",
        default=[],
        type=_parse_tenant,
        metavar="NAME:KEY[:RATE[:BURST]]",
        help="require API keys; repeatable (rate = requests/sec, empty = unlimited)",
    )
    parser.add_argument(
        "--request-deadline-ms",
        type=float,
        default=None,
        help="default per-request deadline (clients override with the "
        f"{DEADLINE_HEADER} header); unset = unlimited",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=256,
        help="admission cap; requests past it are shed with a 503",
    )
    parser.add_argument(
        "--grace",
        type=float,
        default=5.0,
        help="seconds to drain in-flight requests on SIGTERM/SIGINT",
    )
    args = parser.parse_args(argv)

    engine_options = {}
    if args.sample_records is not None:
        engine_options["sample_records"] = args.sample_records
    config = ServiceConfig(
        micro_batch=not args.no_batching,
        max_batch=args.max_batch,
        cache_answers=not args.no_cache,
        cache_entries=args.cache_entries,
        default_prefer=args.prefer,
        engine_options=engine_options,
        request_deadline=(
            args.request_deadline_ms / 1000.0
            if args.request_deadline_ms is not None
            else None
        ),
        max_inflight=args.max_inflight,
    )
    authenticator = ApiKeyAuth(args.tenant) if args.tenant else None
    registry = ModelRegistry(args.root)
    service = QueryService(registry, config, authenticator=authenticator)
    server = make_server(service, args.host, args.port)

    # Graceful shutdown: the serve loop runs on a daemon thread while the
    # main thread parks on an event the signal handlers set.  On SIGTERM or
    # SIGINT: flip /readyz to draining, stop accepting, wait (bounded) for
    # in-flight requests to answer, close the socket, exit 0.  Handlers go
    # in before the announce lines — the moment the process claims to be
    # serving, a SIGTERM must already mean drain, not die.
    stop = threading.Event()

    def _request_stop(signum, frame) -> None:
        stop.set()

    previous = {
        sig: signal.signal(sig, _request_stop) for sig in (signal.SIGTERM, signal.SIGINT)
    }
    models = registry.list_models()
    print(f"serving {len(models)} model(s) {models} from {args.root} at {server.url}", flush=True)
    print(
        f"micro-batching {'off' if args.no_batching else 'on'}, cache "
        f"{'off' if args.no_cache else f'{args.cache_entries} entries'}, "
        f"auth {'api-key' if args.tenant else 'open'}",
        flush=True,
    )
    loop = threading.Thread(target=server.serve_forever, daemon=True)
    loop.start()
    try:
        stop.wait()
    except KeyboardInterrupt:
        pass
    print("draining", flush=True)
    server.begin_drain()
    server.shutdown()
    loop.join(5.0)
    drained = server.await_drain(args.grace)
    server.server_close()
    for sig, handler in previous.items():
        signal.signal(sig, handler)
    print("shutdown clean" if drained else "shutdown with requests still in flight", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
