"""Suite-wide hang backstop for environments without pytest-timeout.

``pyproject.toml`` sets ``timeout = 300`` for pytest-timeout, which is only
in the ``[test]`` extras; without it that key does nothing and a deadlocked
test would stall the whole run.  In that case every test (setup, call and
teardown) instead runs under ``faulthandler.dump_traceback_later``: past the
same ceiling it dumps every thread's stack to the real stderr and exits the
process, so a hang still fails loudly with the diagnostic that matters.
"""

from __future__ import annotations

import faulthandler
import importlib.util
import os

import pytest

#: Per-test ceiling in seconds; matches the ``timeout`` ini key.
HANG_CEILING_S = 300

_dump_file = None

if importlib.util.find_spec("pytest_timeout") is None:

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
