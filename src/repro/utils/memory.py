"""Process-memory introspection (stdlib-only, POSIX)."""

from __future__ import annotations

import sys


def peak_rss_bytes() -> int:
    """Lifetime peak resident set size of this process, in bytes.

    ``getrusage`` reports the high-water mark since process start (kilobytes
    on Linux, bytes on macOS), so bounded-memory claims are probed from a
    fresh subprocess — see ``benchmarks/bench_stream_throughput.py``.  Returns
    0 on platforms without :mod:`resource`.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(peak if sys.platform == "darwin" else peak * 1024)
