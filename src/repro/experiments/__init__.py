"""One module per paper table/figure, plus the shared experiment runner.

Every paper module exposes a ``run(scale=...)`` function returning plain
dicts of the same rows/series the paper reports; the paper benchmarks
(``benchmarks/bench_fig*``, ``bench_tab*``, ...) are thin wrappers over
them.  Two support modules serve the performance benchmarks, which carry
their own drivers (``python benchmarks/bench_<name>.py``):
:mod:`~repro.experiments.goldens` (the pinned output digests) and
:mod:`~repro.experiments.http_serving` (deterministic query workloads).
"""

from repro.experiments.runner import (
    ALL_METHODS,
    ExperimentScale,
    clear_cache,
    synthesize_cached,
)

__all__ = ["ALL_METHODS", "ExperimentScale", "clear_cache", "synthesize_cached"]
