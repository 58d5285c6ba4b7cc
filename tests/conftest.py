"""Suite-wide hang backstop and leak census.

``pyproject.toml`` sets ``timeout = 300`` for pytest-timeout, which is only
in the ``[test]`` extras; without it that key does nothing and a deadlocked
test would stall the whole run.  In that case every test (setup, call and
teardown) instead runs under ``faulthandler.dump_traceback_later``: past the
same ceiling it dumps every thread's stack to the real stderr and exits the
process, so a hang still fails loudly with the diagnostic that matters.

The leak census (:func:`leak_census`, autouse) fails any test that leaves
behind a new ``/dev/shm`` segment of this process's engine pools or a live
``multiprocessing`` child.
"""

from __future__ import annotations

import faulthandler
import gc
import importlib.util
import multiprocessing
import os

import pytest

#: Per-test ceiling in seconds; matches the ``timeout`` ini key.
HANG_CEILING_S = 300

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
    """This process's engine segments (``nds{pid:x}-*``, see repro.engine.shm)."""
    prefix = f"nds{os.getpid():x}-"
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith(prefix)}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


def _live_children() -> set:
    return {proc.pid for proc in multiprocessing.active_children()}


@pytest.fixture(autouse=True)
def leak_census():
    """Fail a test that leaks shm segments or ``multiprocessing`` children.

    Imported shard tables unlink their segment when collected, so a leak
    candidate triggers one ``gc.collect()`` before it counts; clean tests
    pay two directory scans and no collection.
    """
    segments, children = _own_segments(), _live_children()
    yield
    leaked = _own_segments() - segments
    spawned = _live_children() - children
    if leaked or spawned:
        gc.collect()
        leaked = _own_segments() - segments
        spawned = _live_children() - children
    assert not leaked, f"test leaked shm segments: {sorted(leaked)}"
    assert not spawned, f"test left multiprocessing children alive: {sorted(spawned)}"
