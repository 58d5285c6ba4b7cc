"""serve-dashboard and serve-adhoc: closed-loop HTTP clients against the server.

The timed run drives the shipped ``serve-http`` CLI (``python -m
repro.serving.http``) as a subprocess over a saved ToN model.  ``nproc``
client threads in this process each hold one keep-alive connection and send
their next request only when the previous answer has arrived (a closed
loop).  Latency is what the client observes.  Every answer is checked
bit-for-bit against an independent ``QueryEngine.run`` over a separately
loaded copy of the model file.

- ``dashboard`` cycles the 48-query mix of
  :func:`repro.experiments.http_serving.build_http_workload`, so after
  warm-up nearly every request is an answer-cache hit.
- ``adhoc`` never repeats a query in a server's lifetime (every request is a
  cache miss): 3 of 4 are value-subset filtered counts over unpublished
  attribute pairs (sample path), the rest over published pairs (marginal
  path), so the micro-batcher and ``QueryEngine.run_batch`` do the work.

The traced run drives ``traced_server.py`` instead, which builds the same
service through the public API with spans around the serving layers.
"""

from __future__ import annotations

import gc
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import threading
import time
from http.client import HTTPConnection, HTTPException
from itertools import combinations
from pathlib import Path

import numpy as np

import inputs
from harness import (
    Outcome,
    Spans,
    mean_or_zero,
    metric,
    proc_peak_rss_mb,
    stats_delta,
    summarize_latencies,
)

N_FIT = 20_000
DISTINCT = 48
#: Adhoc queries sent during warm-up (never sent again to that server).
ADHOC_WARM = 16
SETUP_REPS = 3
MODEL = "ton"
#: Longest a server may take to announce itself or to exit on SIGTERM.
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0

HERE = Path(__file__).resolve().parent


def _clients() -> int:
    return os.cpu_count() or 1


# ------------------------------------------------------------------ queries
class DashboardQueries:
    """The 48 dashboard queries; each client cycles them from its own offset."""

    def __init__(self, model, seed: int) -> None:
        from repro.experiments.http_serving import build_http_workload

        self.queries = build_http_workload(model, n_distinct=DISTINCT, seed=seed)
        self.bodies = [_body(q) for q in self.queries]
        self._lock = threading.Lock()
        self._cursor: dict = {}

    def warm(self) -> list:
        return list(range(len(self.queries)))

    def next_for(self, client: int) -> int:
        with self._lock:
            i = self._cursor.get(client, client * (DISTINCT // max(_clients(), 1)))
            self._cursor[client] = i + 1
        return i % len(self.queries)


class AdhocQueries:
    """An endless stream of distinct filtered counts over attribute pairs.

    Three of every four filter on an attribute pair no published marginal
    covers (sample path); the fourth on a published pair (marginal path).
    Each filter picks a random subset of 1-3 values per attribute, and a
    query is never handed out twice, so none can hit the answer cache.
    """

    def __init__(self, model, seed: int) -> None:
        plan = model.plan()
        self._rng = np.random.default_rng(seed)
        self._values = {a: _filter_values(plan, a) for a in plan.original_schema.names}
        usable = sorted(a for a, v in self._values.items() if a in plan.domain and len(v) > 3)
        covered = {p for m in plan.published for p in combinations(sorted(m.attrs), 2)}
        pairs = list(combinations(usable, 2))
        self._sample = [p for p in pairs if p not in covered]
        self._marginal = [p for p in pairs if p in covered]
        if not self._sample or not self._marginal:
            raise RuntimeError("the model leaves no sample-path or no marginal-path pair")
        self.queries: list = []
        self.bodies: list = []
        self._seen: set = set()
        self._lock = threading.Lock()

    def _draw(self, pairs: list):
        from repro.serving import count

        a, b = pairs[int(self._rng.integers(len(pairs)))]
        where = {}
        for attr in (a, b):
            values = self._values[attr]
            picks = self._rng.choice(len(values), size=int(self._rng.integers(1, 4)), replace=False)
            where[attr] = [values[int(i)] for i in picks]
        return count(where=where)

    def _extend(self) -> int:
        while True:
            pairs = self._marginal if len(self.queries) % 4 == 3 else self._sample
            query = self._draw(pairs)
            if query not in self._seen:
                self._seen.add(query)
                self.queries.append(query)
                self.bodies.append(_body(query))
                return len(self.queries) - 1

    def warm(self) -> list:
        with self._lock:
            return [self._extend() for _ in range(ADHOC_WARM)]

    def next_for(self, client: int) -> int:
        with self._lock:
            return self._extend()


def _filter_values(plan, attr: str) -> list:
    """Raw values usable in a filter: categories, else numeric bin midpoints."""
    from repro.binning.categorical import CategoricalCodec

    codec = plan.codecs.get(attr)
    if codec is None:
        return []
    base = getattr(codec, "base", codec)
    if isinstance(base, CategoricalCodec):
        return [c.item() if hasattr(c, "item") else c for c in base.categories]
    bounds = codec.bin_bounds()
    if bounds is None:
        return []
    lo, hi = bounds
    return sorted({float(v) for v in (np.asarray(lo) + np.asarray(hi)) / 2.0})


def _body(query) -> bytes:
    from repro.serving import query_to_wire

    return json.dumps({"query": query_to_wire(query), "prefer": "auto"}).encode()


# ------------------------------------------------------------------- server
class Server:
    """A serving subprocess: the stock CLI, or the traced entry point."""

    def __init__(self, models: Path, spans_path: Path | None = None) -> None:
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro.serving.http", str(models), "--port", "0"]
        else:
            cmd = [sys.executable, str(HERE / "traced_server.py"), str(models),
                   "--port", "0", "--spans", str(spans_path)]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            self.port = self._await_port()
        except BaseException:
            self.stop()
            raise

    def _await_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not selector.select(timeout=deadline - time.monotonic()):
                    break
                line = self.proc.stdout.readline()
                if not line:
                    break
                if line.startswith("serving") and " at http://" in line:
                    return int(line.rsplit(":", 1)[1])
        raise RuntimeError(f"server did not start (exit code {self.proc.poll()})")

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> dict:
        """SIGTERM, then wait: ``{"serve.shutdown_s", "serve.exit_code"}``."""
        start = time.perf_counter()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        return {
            "serve.shutdown_s": time.perf_counter() - start,
            "serve.exit_code": float(self.proc.returncode),
        }


def _get_json(port: int, path: str) -> dict:
    conn = HTTPConnection("127.0.0.1", port, timeout=STOP_TIMEOUT)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        payload = json.loads(response.read())
        if response.status != 200:
            raise RuntimeError(f"GET {path} answered {response.status}: {payload}")
        return payload
    finally:
        conn.close()


# ------------------------------------------------------------------- clients
class _Client(threading.Thread):
    """One closed-loop client on one keep-alive connection."""

    def __init__(self, index: int, port: int, queries, until: float) -> None:
        super().__init__(daemon=True)
        self.index, self.port, self.queries, self.until = index, port, queries, until
        self.records: list = []  # (query index, status or None, body, start, seconds)

    def run(self) -> None:
        path = f"/v1/models/{MODEL}/query"
        headers = {"Content-Type": "application/json"}
        conn = HTTPConnection("127.0.0.1", self.port, timeout=STOP_TIMEOUT)
        try:
            while time.monotonic() < self.until:
                key = self.queries.next_for(self.index)
                start = time.monotonic()
                try:
                    conn.request("POST", path, body=self.queries.bodies[key], headers=headers)
                    response = conn.getresponse()
                    body, status = response.read(), response.status
                except (OSError, HTTPException):
                    body, status = b"", None
                    conn.close()
                    conn = HTTPConnection("127.0.0.1", self.port, timeout=STOP_TIMEOUT)
                self.records.append((key, status, body, start, time.monotonic() - start))
        finally:
            conn.close()


def _drive(port: int, queries, seconds: float) -> tuple:
    """Run the closed loop for ``seconds``: ``(records, start, wall, stats delta)``."""
    before = _get_json(port, "/v1/stats")
    # The load generator's own garbage collector would pause the clients
    # (their record lists grow all run long) and show up as server tail
    # latency; the program under test keeps its collector.
    gc.disable()
    try:
        start = time.monotonic()
        clients = [_Client(i, port, queries, start + seconds) for i in range(_clients())]
        for client in clients:
            client.start()
        for client in clients:
            client.join(seconds + 2 * STOP_TIMEOUT)
    finally:
        gc.enable()
    records = [r for c in clients for r in c.records]
    wall = max(r[3] + r[4] for r in records) - start
    delta = stats_delta(before, _get_json(port, "/v1/stats"))
    return records, start, wall, delta


def _warm(port: int, queries) -> None:
    conn = HTTPConnection("127.0.0.1", port, timeout=STOP_TIMEOUT)
    try:
        for key in queries.warm():
            conn.request("POST", f"/v1/models/{MODEL}/query", body=queries.bodies[key],
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            payload = response.read()
            if response.status != 200:
                raise RuntimeError(f"warm-up query answered {response.status}: {payload[:200]}")
    finally:
        conn.close()


class Verifier:
    """Checks served answers against an independent engine, bit for bit."""

    def __init__(self, model_path: Path, queries) -> None:
        from repro.core import NetDPSyn
        from repro.serving import QueryEngine

        self.engine = QueryEngine(NetDPSyn.load(model_path))
        self.queries = queries
        self._good: dict = {}  # query index -> a body already proven correct

    def check(self, outcome: Outcome, records: list) -> list:
        """Count every record; return the latencies of the correct ones."""
        from repro.serving import answer_from_wire, answers_equal

        ok = []
        for key, status, body, _, seconds in records:
            if status != 200:
                outcome.check(False, f"request answered {status}")
                continue
            good = self._good.get(key) == body
            if not good:
                want = self.engine.run(self.queries.queries[key])
                good = answers_equal(answer_from_wire(json.loads(body)), want)
                if good:
                    self._good[key] = body
            if outcome.check(good, f"served answer to query {key} differs from the engine"):
                ok.append(seconds)
        return ok


# --------------------------------------------------------------------- run
def _setup(mode: str, seed: int, work: Path, spans_path: Path | None = None) -> dict:
    models = work / "models"
    models.mkdir(exist_ok=True)
    model = inputs.fit(inputs.table("ton", N_FIT, seed))
    model_path = models / f"{MODEL}.ndpsyn"
    model.save(model_path)
    queries = (DashboardQueries if mode == "dashboard" else AdhocQueries)(model, seed)
    server = Server(models, spans_path)
    try:
        _warm(server.port, queries)
    except BaseException:
        server.stop()
        raise
    return {"server": server, "queries": queries, "model_path": model_path}


def run(mode: str, seed: int, seconds: float, trace: bool, work: Path, log) -> tuple:
    shutdowns = []
    state, setup_s = inputs.repeat_setup(
        lambda: _setup(mode, seed, work),
        lambda s: shutdowns.append(s["server"].stop()),
        1 if trace else SETUP_REPS,
    )
    outcome = Outcome()
    try:
        records, _, wall, delta = _drive(
            state["server"].port, state["queries"], seconds / 2 if trace else seconds
        )
        rss = state["server"].peak_rss_mb()
    finally:
        shutdowns.append(state["server"].stop())
    verifier = Verifier(state["model_path"], state["queries"])
    ok = verifier.check(outcome, records)
    lat = summarize_latencies(ok, failed=len(records) - len(ok))
    log(f"serve-{mode}: {len(records)} requests from {_clients()} clients in {wall:.2f} s, "
        f"p50 {lat['p50_ms']:.3f} ms, p{lat['tail_pct']} {lat['tail_ms']:.3f} ms "
        f"({lat['beyond']} samples beyond), stats {delta}")
    if not trace:
        if lat["tail_pct"] is None or lat["tail_pct"] < 99.0:
            log(f"warning: {len(records)} requests leave fewer than 10 beyond p99")
        return outcome, {
            "setup_s": metric(statistics.median(setup_s), "s"),
            "throughput_per_s": metric(len(ok) / wall, "1/s"),
            "latency_p50_ms": metric(lat["p50_ms"], "ms"),
            "peak_rss_mb": metric(rss, "MiB"),
        }

    # Traced half: the benchmark's own server entry point, fresh process,
    # same model and the same query stream from its start.
    spans_path = work / "serve-spans.json"
    traced = _setup(mode, seed, work, spans_path)
    try:
        t_records, t_start, t_wall, t_delta = _drive(
            traced["server"].port, traced["queries"], seconds / 2
        )
    finally:
        traced_stop = traced["server"].stop()
    t_ok = Verifier(traced["model_path"], traced["queries"]).check(outcome, t_records)
    spans = Spans.from_json(json.loads(spans_path.read_text()))
    window = (t_start, t_start + t_wall)

    def mean_s(name: str) -> float:
        return mean_or_zero(spans.seconds(name, *window))

    client_s = mean_or_zero([r[4] for r in t_records])
    layers = {
        "serve.parse_us": mean_s("serve.parse") * 1e6,
        "serve.render_us": mean_s("serve.render") * 1e6,
        "serve.transport_ms": (client_s - mean_s("serve.handle_query")) * 1e3,
        "serve.queue_wait_ms": mean_s("serve.queue_wait") * 1e3,
        "serve.batch_exec_ms": mean_s("serve.batch_exec") * 1e3,
        "serve.service_ms": mean_s("serve.service") * 1e3,
        "serve.cache_hit_ratio": t_delta["cache_hit_ratio"],
        "serve.mean_batch_size": t_delta["mean_batch_size"],
        "serve.batches": t_delta["batches"],
        "serve.shed": t_delta["shed"],
        "serve.engine_faults": t_delta["engine_faults"],
        # The stock CLI's SIGTERM behaviour, not the traced entry point's.
        **shutdowns[-1],
        "trace_overhead": mean_or_zero(t_ok) / mean_or_zero(ok),
        "latency_tail_ms": lat["tail_ms"],
    }
    log(f"serve-{mode} traced: {len(t_records)} requests ({len(t_ok)} correct) in "
        f"{t_wall:.2f} s, stats {t_delta}, traced server stop {traced_stop}")
    return outcome, layers
