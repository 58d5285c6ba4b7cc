"""Generated inputs shared by the workloads: datasets and the synthesis config.

The program only ever sees what these functions build from the workload
seed; the same seed always gives the same tables, models and queries.
"""

from __future__ import annotations

import time

from repro import NetDPSyn, SynthesisConfig, load_dataset
from repro.synthesis.gum import GumConfig

#: GUM iterations of every release.  ``patience`` equal to the iteration
#: count disables early stopping, so every seed runs the same number of
#: kernel steps per marginal and release times compare across seeds.
GUM_ITERATIONS = 20

EPSILON = 2.0

#: The DP noise stream of every fit.  The noise decides which marginals are
#: published, and that structure sets what a release costs; with the noise
#: fixed, ToN models fitted on different seeds' tables publish the same
#: structure (22 marginals, ~55k cells at 200k records, seeds 0-7), so
#: release times compare across seeds while the data still varies.
FIT_RNG = 0


def synthesis_config() -> SynthesisConfig:
    """Paper defaults at epsilon=2, with a fixed GUM iteration count."""
    return SynthesisConfig(
        epsilon=EPSILON,
        gum=GumConfig(iterations=GUM_ITERATIONS, patience=GUM_ITERATIONS),
    )


def table(dataset: str, n_records: int, seed: int):
    """One generated trace (``ton`` flows or ``caida`` packets)."""
    return load_dataset(dataset, n_records=n_records, seed=seed)


def fit(table) -> NetDPSyn:
    return NetDPSyn(synthesis_config(), rng=FIT_RNG).fit(table)


def repeat_setup(setup, teardown, reps: int) -> tuple:
    """Run ``setup()`` ``reps`` times; ``(last result, per-rep seconds)``.

    Every rep but the last is torn down with ``teardown(result)`` before the
    next one starts, outside the timed region.
    """
    result, seconds = None, []
    for rep in range(reps):
        if rep:
            teardown(result)
        start = time.perf_counter()
        result = setup()
        seconds.append(time.perf_counter() - start)
    return result, seconds
