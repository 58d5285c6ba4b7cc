"""ReplicatedQueryClient: round-robin dispatch over fleet serving replicas.

Serving a fitted model is pure post-processing — every replica loads the
same ``.ndpsyn`` files and the :class:`~repro.serving.QueryService` answer
path is deterministic per (model, query, seed) — so replicas are
interchangeable and answers are bit-identical no matter which replica
responds.  That makes the client side simple:

- **round-robin** across the replica URLs (a ``LocalCluster(serving_root=...)``
  advertises one per worker; a static URL list works too), so load spreads
  without coordination;
- a **per-replica** :class:`~repro.reliability.CircuitBreaker` (reusing the
  service-side breaker unchanged), so a dead or erroring replica is skipped
  after ``breaker_failures`` consecutive failures and probed again after
  ``breaker_reset`` seconds — requests fail over to the next replica in the
  same call rather than surfacing the outage to the caller.

Connection-level failures and 5xx responses trip the breaker and fail over;
4xx responses are the caller's problem (a malformed query is malformed on
every replica) and are returned as-is without penalising the replica.
"""

from __future__ import annotations

import json
import threading
import urllib.parse

from repro.reliability import CircuitBreaker


class NoReplicaAvailableError(RuntimeError):
    """Every replica is down, circuit-open, or erroring."""


class _Replica:
    """One serving endpoint: parsed address plus its circuit breaker."""

    def __init__(self, url: str, breaker: CircuitBreaker) -> None:
        parsed = urllib.parse.urlsplit(url)
        if parsed.scheme != "http" or not parsed.hostname:
            raise ValueError(f"replica URL must be http://host:port, got {url!r}")
        self.url = url.rstrip("/")
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self.breaker = breaker


class ReplicatedQueryClient:
    """Round-robin HTTP client over interchangeable serving replicas.

    ``replicas`` is a list of base URLs, or a
    :class:`~repro.fleet.cluster.LocalCluster` whose serving workers'
    advertised URLs are snapshotted at construction.
    """

    def __init__(
        self,
        replicas,
        timeout: float = 10.0,
        breaker_failures: int = 2,
        breaker_reset: float = 0.5,
    ) -> None:
        urls = replicas.serving_urls() if hasattr(replicas, "serving_urls") else replicas
        urls = list(urls)
        if not urls:
            raise ValueError("need at least one serving replica URL")
        self.timeout = float(timeout)
        self._replicas = [
            _Replica(
                url,
                CircuitBreaker(
                    failure_threshold=breaker_failures, reset_timeout=breaker_reset
                ),
            )
            for url in urls
        ]
        self._lock = threading.Lock()
        self._next = 0
        self.dispatched = 0
        self.failovers = 0

    # ------------------------------------------------------------------ HTTP
    def _order(self) -> list[_Replica]:
        """The replicas in this request's round-robin order."""
        with self._lock:
            start = self._next
            self._next = (self._next + 1) % len(self._replicas)
        return self._replicas[start:] + self._replicas[:start]

    def _one_request(self, replica: _Replica, method, path, body, headers):
        import http.client  # with ssl behind it; every process pool loads this package

        conn = http.client.HTTPConnection(
            replica.host, replica.port, timeout=self.timeout
        )
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def request(self, method: str, path: str, payload: dict | None = None) -> tuple:
        """Send one request, failing over across replicas; ``(status, body)``.

        Raises :class:`NoReplicaAvailableError` when no replica produced a
        non-5xx response (each attempt's error is listed).
        """
        import http.client
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        errors: list[str] = []
        skipped = 0
        for replica in self._order():
            if not replica.breaker.allow():
                skipped += 1
                continue
            try:
                status, raw = self._one_request(replica, method, path, body, headers)
            except (OSError, http.client.HTTPException) as exc:
                replica.breaker.record_failure()
                errors.append(f"{replica.url}: {type(exc).__name__}: {exc}")
                self.failovers += 1
                continue
            if status >= 500:
                replica.breaker.record_failure()
                errors.append(f"{replica.url}: HTTP {status}")
                self.failovers += 1
                continue
            replica.breaker.record_success()
            with self._lock:
                self.dispatched += 1
            return status, raw
        raise NoReplicaAvailableError(
            f"all {len(self._replicas)} replica(s) unavailable "
            f"({skipped} circuit-open): " + ("; ".join(errors) or "no attempts made")
        )

    # ------------------------------------------------------------ convenience
    def query(self, model: str, query: dict, **extra) -> dict:
        """POST ``/v1/models/{model}/query``; returns the decoded answer."""
        status, raw = self.request(
            "POST", f"/v1/models/{model}/query", {"query": query, **extra}
        )
        answer = json.loads(raw)
        if status != 200:
            raise RuntimeError(f"query failed: HTTP {status}: {answer}")
        return answer

    def get_json(self, path: str) -> dict:
        status, raw = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} failed: HTTP {status}")
        return json.loads(raw)

    def stats(self) -> dict:
        return {
            "replicas": [
                {"url": replica.url, "breaker": replica.breaker.stats()}
                for replica in self._replicas
            ],
            "dispatched": self.dispatched,
            "failovers": self.failovers,
        }
