"""Shared pieces of the benchmark: paths, timing, spans, census, results.

Everything here is stdlib only and has no dependency on the program under
test, so the self-tests (``test_harness.py``) run without ``src/``.
"""

from __future__ import annotations

import functools
import json
import math
import os
import resource
import signal
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: Root of the checkout the benchmark runs in (the directory above this one).
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Scratch space for generated inputs, model files, CSV outputs and spans.
WORK_ROOT = ROOT / ".perfbench-work"

#: Percentiles a latency summary may report as its tail, highest first.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
#: A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10
#: Stand-in latency of a failed operation: it misses every limit.
MISSED = math.inf


# ------------------------------------------------------------------ latency
def nearest_rank(sorted_values: list, pct: float) -> tuple:
    """``(value, samples beyond it)`` of the nearest-rank ``pct`` percentile."""
    n = len(sorted_values)
    rank = min(n, max(1, math.ceil(pct / 100.0 * n)))
    return sorted_values[rank - 1], n - rank


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile leaving >= ``MIN_BEYOND`` of ``n`` beyond it."""
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= MIN_BEYOND:
            return pct
    return None


def summarize_latencies(seconds: list, failed: int = 0) -> dict:
    """Median and tail of per-operation latencies, in milliseconds.

    Failed or refused operations count as attempted and as missing every
    limit (an infinite latency).  The tail is the highest percentile of
    :data:`TAIL_LADDER` with at least :data:`MIN_BEYOND` samples beyond it;
    runs too short for any such percentile report their maximum instead and
    say so with ``tail_pct=None``.
    """
    values = sorted(float(s) * 1000.0 for s in seconds) + [MISSED] * int(failed)
    if not values:
        raise ValueError("no latency samples")
    pct = tail_percentile(len(values))
    p50, _ = nearest_rank(values, 50.0)
    if pct is None:
        tail, beyond = values[-1], 0
    else:
        tail, beyond = nearest_rank(values, pct)
    return {"n": len(values), "p50_ms": p50, "tail_pct": pct, "tail_ms": tail, "beyond": beyond}


# -------------------------------------------------------------------- stats
def stats_delta(before: dict, after: dict) -> dict:
    """Counter movement between two ``GET /v1/stats`` snapshots.

    Counters are monotonic over a server's life, so the difference of two
    snapshots is what happened in between; the ratios are recomputed from
    the differences, never taken from either snapshot.
    """

    def moved(*path):
        a, b = after, before
        for key in path:
            a, b = a.get(key, {}), b.get(key, {})
        return (a or 0) - (b or 0)

    hits, misses = moved("cache", "hits"), moved("cache", "misses")
    batches, batched = moved("batcher", "batches"), moved("batcher", "batched_queries")
    return {
        "requests": moved("requests"),
        "cache_hits": hits,
        "cache_misses": misses,
        "cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "batches": batches,
        "batched_queries": batched,
        "mean_batch_size": batched / batches if batches else 0.0,
        "shed": moved("reliability", "shed"),
        "engine_faults": moved("reliability", "engine_faults"),
    }


# -------------------------------------------------------------------- spans
class Spans:
    """Durations and counts recorded at layer boundaries.

    Spans live in memory in the process that created the recorder.  A
    forked worker process (the ``shared`` release pool) cannot hand its
    memory back, so there each record is appended to a per-process spool
    file under ``spool_dir`` instead, and :meth:`collect` folds the spool
    files in when the run ends.
    """

    def __init__(self, spool_dir: Path | None = None) -> None:
        self.spool_dir = spool_dir
        self.durations: dict = defaultdict(list)
        self.counts: dict = defaultdict(float)
        self._owner = os.getpid()

    def _spool(self, record: dict) -> bool:
        if os.getpid() == self._owner or self.spool_dir is None:
            return False
        path = self.spool_dir / f"spans-{os.getpid()}.jsonl"
        with path.open("a") as handle:
            handle.write(json.dumps(record) + "\n")
        return True

    def add(self, name: str, start: float, seconds: float) -> None:
        if not self._spool({"d": name, "start": start, "s": seconds}):
            self.durations[name].append((start, seconds))

    def extend(self, name: str, seconds: list) -> None:
        """Many durations of one name at once (e.g. every GUM kernel step)."""
        if not self._spool({"e": name, "s": list(seconds)}):
            self.durations[name].extend((0.0, s) for s in seconds)

    def count(self, name: str, value: float = 1.0) -> None:
        if not self._spool({"c": name, "v": value}):
            self.counts[name] += value

    @contextmanager
    def span(self, name: str):
        start = time.monotonic()
        try:
            yield
        finally:
            self.add(name, start, time.monotonic() - start)

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a ``name`` span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def collect(self) -> None:
        """Fold worker spool files into this recorder (and delete them)."""
        if self.spool_dir is None:
            return
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            for line in path.read_text().splitlines():
                record = json.loads(line)
                if "d" in record:
                    self.durations[record["d"]].append((record["start"], record["s"]))
                elif "e" in record:
                    self.durations[record["e"]].extend((0.0, s) for s in record["s"])
                else:
                    self.counts[record["c"]] += record["v"]
            path.unlink()

    def seconds(self, name: str, since: float | None = None, until: float | None = None) -> list:
        """Durations of ``name``, optionally only spans starting in a window."""
        return [
            s
            for start, s in self.durations.get(name, ())
            if (since is None or start >= since) and (until is None or start <= until)
        ]

    def total(self, name: str) -> float:
        return float(sum(self.seconds(name)))

    def to_json(self) -> dict:
        return {"durations": dict(self.durations), "counts": dict(self.counts)}

    @classmethod
    def from_json(cls, payload: dict) -> "Spans":
        spans = cls()
        for name, rows in payload["durations"].items():
            spans.durations[name] = [tuple(row) for row in rows]
        spans.counts.update(payload["counts"])
        return spans


def mean_or_zero(values: list) -> float:
    return float(statistics.fmean(values)) if values else 0.0


@contextmanager
def patched(target, name: str, replacement):
    """Temporarily rebind ``target.name`` (a module or class attribute)."""
    original = getattr(target, name)
    setattr(target, name, replacement)
    try:
        yield
    finally:
        setattr(target, name, original)


# ----------------------------------------------------------------- process
def peak_rss_mb() -> float:
    """This process's lifetime resident-set high-water mark, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Another process's resident-set high-water mark (``VmHWM``), in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def live_children() -> list:
    """Pids of this process's children.

    The ``multiprocessing`` resource tracker is left out: it is started once
    per process by the first shared-memory segment and lives, by design,
    until its parent exits.
    """
    pid = os.getpid()
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read()
        except OSError:
            continue
        fields = stat[stat.rindex(b")") + 2 :].split()
        if int(fields[1]) == pid and b"resource_tracker" not in cmdline:
            children.append(int(entry))
    return children


def _reap(pid: int, timeout: float) -> bool:
    """Wait up to ``timeout`` seconds for child ``pid`` to end; True once reaped."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return True
        if done:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.02)


def _end(pid: int, timeout: float = 10.0) -> None:
    """Reap child ``pid``, escalating to SIGTERM and then SIGKILL if it lingers."""
    for sig in (None, signal.SIGTERM, signal.SIGKILL):
        if sig is not None:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        if _reap(pid, timeout):
            return


def stop_children() -> None:
    """End and reap every child process before the benchmark exits.

    The ``multiprocessing`` resource tracker ends when the last copy of its
    pipe closes, which would otherwise happen only as this process exits,
    leaving the tracker running (or unreaped) after the run.  Its pipe is
    closed here, then every other child still alive is terminated (a forked
    child holds a copy of that pipe), and each is waited for.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        fd, pid = tracker._fd, tracker._pid
        tracker._fd = tracker._pid = None
    if fd is not None:
        os.close(fd)
    for child in live_children():
        _end(child, timeout=2.0)
    if pid is not None:
        _end(pid)


def census(tmpdir: Path) -> dict:
    """What a run left behind: child processes, shm segments, spool dirs.

    Shared-memory segments are counted by this process's name prefix
    (``nds<pid hex>-``, the engine's naming scheme), so segments of other
    programs on the host never count; spool dirs are counted in the run's
    own temporary directory.
    """
    prefix = f"nds{os.getpid():x}-"
    shm = Path("/dev/shm")
    segments = [p for p in shm.iterdir() if p.name.startswith(prefix)] if shm.is_dir() else []
    spools = list(tmpdir.glob("repro-fleet-*")) if tmpdir.is_dir() else []
    return {
        "teardown.live_children": len(live_children()),
        "teardown.shm_segments": len(segments),
        "teardown.spool_dirs": len(spools),
    }


# ------------------------------------------------------------------ output
class Outcome:
    """Operations attempted and failed, plus why each failure happened."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []

    def check(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)
        return ok


def metric(value: float, unit: str) -> dict:
    if not math.isfinite(value):
        value = 1e12  # a missed limit: finite, so the line stays valid JSON
    return {"value": float(value), "unit": unit}


def result_line(outcome: Outcome, metrics: dict) -> str:
    """The result object, printed as the last stdout line of a run."""
    return json.dumps(
        {
            "correct": outcome.failed == 0 and outcome.attempted > 0,
            "attempted": int(max(outcome.attempted, 1)),
            "failed": int(outcome.failed),
            "metrics": metrics,
        }
    )
