"""Shared fixtures and helpers for the benchmark suite.

Every paper benchmark regenerates one paper table/figure through
:mod:`repro.experiments` and attaches the resulting rows to the
pytest-benchmark record (``extra_info``) so ``--benchmark-json`` output
carries the numbers EXPERIMENTS.md reports.  The performance benchmarks
(``bench_engine_scaling``, ``bench_fit_scaling``,
``bench_stream_throughput``, ``bench_serving``, ``bench_http_serving``,
``bench_reliability``, ``bench_fleet``) carry their own drivers; each also
runs standalone as ``python benchmarks/bench_<name>.py [out.json]``.  The
pieces they share live here: the ToN fit (:func:`fit_ton`), the best-of
timer (:func:`best_of`), the closed-loop HTTP load client
(:func:`closed_loop`) and the standalone JSON dump (:func:`dump`).

Scale is controlled by the REPRO_BENCH_RECORDS environment variable
(default 6000); the synthetic-output cache in the runner is shared across
benches within one pytest session, so e.g. Table 1 reuses Figure 3's
synthesis runs.

Setting REPRO_BENCH_SMOKE=1 caps every benchmark at a small record count
and one repetition — CI uses this to record the perf trajectory per PR
without paying full benchmark cost.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from http.client import HTTPConnection, RemoteDisconnected

import pytest

from repro.core import NetDPSyn, SynthesisConfig
from repro.data.arena import copy_stats
from repro.datasets import load_dataset
from repro.experiments import ExperimentScale
from repro.utils.memory import peak_rss_bytes


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        return default


#: CI smoke mode: tiny workloads, single repetitions, no perf assertions.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    """The session-wide laptop-scale configuration."""
    n_records = _env_int("REPRO_BENCH_RECORDS", 6000)
    if SMOKE:
        n_records = min(n_records, _env_int("REPRO_BENCH_SMOKE_RECORDS", 1000))
    return ExperimentScale(
        n_records=n_records,
        seed=_env_int("REPRO_BENCH_SEED", 0),
    )


def attach(benchmark, payload: dict) -> None:
    """Record experiment rows on the benchmark for JSON export.

    Every record also carries the harness process's peak RSS at attach time
    (``resource.getrusage`` high-water mark) and the columnar arena
    allocation high-water mark (``copy_stats`` ledger), so the per-PR timing
    artifact tracks both memory trajectories alongside the timings.
    """
    benchmark.extra_info["result"] = payload
    benchmark.extra_info["peak_rss_bytes"] = peak_rss_bytes()
    benchmark.extra_info["arena_bytes"] = copy_stats.snapshot()["arena_bytes_peak"]


def dump(payload: dict) -> None:
    """Standalone entry point: write ``payload`` as JSON to ``argv[1]``, or print it."""
    text = json.dumps(payload, indent=2, default=float)
    if len(sys.argv) > 1:
        with open(sys.argv[1], "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {sys.argv[1]}")
    else:
        print(text)


def fmt(value) -> str:
    """Render a result cell (None -> the paper's N/A)."""
    if value is None:
        return "N/A"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def fit_ton(scale: ExperimentScale) -> NetDPSyn:
    """Fit NetDPSyn on ``scale.n_records`` ToN flows; the plan is built too.

    The plan is built here so that no timed region pays for it.
    """
    table = load_dataset("ton", n_records=scale.n_records, seed=scale.seed)
    config = SynthesisConfig(epsilon=scale.epsilon, delta=scale.delta)
    config.gum.iterations = scale.gum_iterations
    synthesizer = NetDPSyn(config, rng=scale.seed + 1).fit(table)
    synthesizer.plan()
    return synthesizer


def best_of(repetitions: int, run, seconds=None) -> tuple[float, list]:
    """Call ``run()`` ``repetitions`` times (at least once): best time, every result.

    A call's time is its wall clock, or ``seconds(result)`` when the work
    reports its own (the engine bench reads the sampling phase's
    instrumentation).
    """
    best = None
    results = []
    for _ in range(max(repetitions, 1)):
        start = time.perf_counter()
        result = run()
        elapsed = time.perf_counter() - start if seconds is None else seconds(result)
        results.append(result)
        if best is None or elapsed < best:
            best = elapsed
    return best, results


def _post(conn: HTTPConnection, path: str, body: str) -> tuple:
    """One POST: ``(status, error code)``; the code is read off non-200 bodies."""
    conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    payload = response.read()
    if response.status == 200:
        return 200, None
    return response.status, (json.loads(payload).get("error") or {}).get("code")


class _Client(threading.Thread):
    """One closed-loop keep-alive client: fire, wait for the answer, fire again."""

    def __init__(self, address, path, bodies, reps, offset, barrier):
        super().__init__(daemon=True)
        self.address, self.path = address, path
        self.bodies, self.reps, self.offset = bodies, reps, offset
        self.barrier = barrier
        self.observations: list = []
        self.failure: str | None = None

    def run(self) -> None:
        conn = HTTPConnection(*self.address)
        try:
            _post(conn, self.path, self.bodies[self.offset % len(self.bodies)])  # warm
            self.barrier.wait()
            for i in range(self.reps):
                body = self.bodies[(self.offset + i) % len(self.bodies)]
                start = time.perf_counter()
                try:
                    status, code = _post(conn, self.path, body)
                except (RemoteDisconnected, ConnectionError, BrokenPipeError):
                    conn.close()
                    conn = HTTPConnection(*self.address)  # one reconnect retry
                    status, code = _post(conn, self.path, body)
                self.observations.append((status, code, time.perf_counter() - start))
        except Exception as exc:  # surfaced by closed_loop
            self.failure = repr(exc)
            try:
                self.barrier.wait(timeout=1)
            except threading.BrokenBarrierError:
                pass
        finally:
            conn.close()


def closed_loop(server, path: str, bodies: list, clients: int, reps: int) -> tuple[float, list]:
    """Drive ``server`` with ``clients`` closed-loop clients, ``reps`` POSTs each.

    Clients start together after one untimed warm-up request each, and
    cycle through ``bodies`` from offsets spread evenly across the list.
    Returns the wall seconds of the timed phase and every request's
    ``(status, error code, latency seconds)``.  A client that fails outside
    HTTP (a harness fault) raises.
    """
    address = server.server_address[:2]
    barrier = threading.Barrier(clients + 1)
    step = max(1, len(bodies) // max(clients, 1))
    workers = [
        _Client(address, path, bodies, reps, i * step, barrier) for i in range(clients)
    ]
    for worker in workers:
        worker.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass  # a client died pre-start; its failure is raised below
    start = time.perf_counter()
    for worker in workers:
        worker.join()
    elapsed = time.perf_counter() - start
    failures = [w.failure for w in workers if w.failure]
    if failures:
        raise AssertionError(f"{len(failures)} client failure(s); first: {failures[0]}")
    return elapsed, [obs for w in workers for obs in w.observations]
