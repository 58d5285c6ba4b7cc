"""Suite-wide hang backstop and leak census.

``pyproject.toml`` sets ``timeout = 300`` for pytest-timeout, which is only
in the ``[test]`` extras; without it that key does nothing and a deadlocked
test would stall the whole run.  In that case every test (setup, call and
teardown) instead runs under ``faulthandler.dump_traceback_later``: past the
same ceiling it dumps every thread's stack to the real stderr and exits the
process, so a hang still fails loudly with the diagnostic that matters.

The leak census (:func:`leak_census`, autouse) fails any test that leaves
behind a new ``/dev/shm`` result file of this process's engine pools (named,
or unlinked but still mapped by a table the test kept alive), a live
``multiprocessing`` child, a live thread it started (daemon threads count:
a cluster's dispatcher thread is a daemon) or a ``repro-fleet-*``
spool directory.
"""

from __future__ import annotations

import faulthandler
import gc
import glob
import importlib.util
import multiprocessing
import os
import tempfile
import threading
import time

import pytest

#: Per-test ceiling in seconds; matches the ``timeout`` ini key.
HANG_CEILING_S = 300

#: How long threads a test started may take to finish after it returns
#: (a server's ``shutdown()`` returns before its thread has exited).
THREAD_GRACE_S = 2.0

_dump_file = None

if importlib.util.find_spec("pytest_timeout") is None:

    def pytest_addoption(parser):
        # Claim pytest-timeout's ini keys so pyproject.toml's settings do not
        # trip "Unknown config option" warnings; the hook below enforces them.
        parser.addini("timeout", "per-test hang ceiling in seconds")
        parser.addini("timeout_method", "pytest-timeout's method (unused here)")

    def pytest_configure(config):
        # Output capture is suspended while plugins configure, so fd 2 is the
        # terminal's stderr here; tests run with it redirected to a capture
        # file that dies with the process, so the dump goes to a copy.
        global _dump_file
        _dump_file = os.fdopen(os.dup(2), "w")

    def pytest_unconfigure(config):
        if _dump_file is not None:
            _dump_file.close()

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(item, nextitem):
        faulthandler.dump_traceback_later(HANG_CEILING_S, exit=True, file=_dump_file)
        try:
            yield
        finally:
            faulthandler.cancel_dump_traceback_later()


def _own_segments() -> set:
    """This process's result files (``nds{pid:x}-*``, see repro.engine.shm).

    Both the names in ``/dev/shm`` and the unlinked files this process still
    maps: an imported table unlinks its file at once, so only the mapping
    (``(deleted)`` in ``/proc/self/maps``) shows a table that outlives its test.
    """
    prefix = f"nds{os.getpid():x}-"
    try:
        names = {name for name in os.listdir("/dev/shm") if name.startswith(prefix)}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()
    with open("/proc/self/maps") as maps:
        for line in maps:
            path = line.split(None, 5)[-1].strip()
            if path.startswith(f"/dev/shm/{prefix}") and path.endswith(" (deleted)"):
                names.add("mapped:" + os.path.basename(path.removesuffix(" (deleted)")))
    return names


def _live_children() -> set:
    return {proc.pid for proc in multiprocessing.active_children()}


def _spool_dirs() -> set:
    """Fleet spool directories (``LocalCluster.spool``) in the temp dir."""
    return set(glob.glob(os.path.join(tempfile.gettempdir(), "repro-fleet-*")))


def _threads_outliving(before: set) -> list:
    """Threads started since ``before`` that stay alive past the grace period."""
    deadline = time.monotonic() + THREAD_GRACE_S
    started = set(threading.enumerate()) - before
    for thread in started:
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
    return sorted(thread.name for thread in started if thread.is_alive())


@pytest.fixture(autouse=True)
def leak_census():
    """Fail a test that leaks result files, children, threads or spool dirs.

    An imported shard table unmaps its file when collected, so a leak
    candidate triggers one ``gc.collect()`` before it counts; clean tests
    pay two directory scans, two ``/proc/self/maps`` reads and no collection.
    """
    segments, children = _own_segments(), _live_children()
    threads, spools = set(threading.enumerate()), _spool_dirs()
    yield
    leaked = _own_segments() - segments
    spawned = _live_children() - children
    if leaked or spawned:
        gc.collect()
        leaked = _own_segments() - segments
        spawned = _live_children() - children
    assert not leaked, f"test leaked /dev/shm result files: {sorted(leaked)}"
    assert not spawned, f"test left multiprocessing children alive: {sorted(spawned)}"
    running = _threads_outliving(threads)
    assert not running, f"test left threads running: {running}"
    spooled = _spool_dirs() - spools
    assert not spooled, f"test left fleet spool dirs behind: {sorted(spooled)}"
