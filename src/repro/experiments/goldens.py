"""Golden digests that pin the synthesizer's output across refactors.

Both were captured on one workload (ton n=2500 seed=31, eps=2.0, 15 GUM
iterations, fit rng=7).  Tier-1 (``tests/test_engine.py``,
``tests/test_pipeline.py``) and the engine and fit benchmarks assert them;
every refactor of the fit pipeline or the sampling engine must keep them.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: SHA-256 of the trace the PRE-ENGINE ``sample()`` produces for the pinned
#: workload with ``sample(2000, rng=123)`` (captured from the seed repo with
#: the marginal-combination order made deterministic).  The engine's
#: single-shard path must keep reproducing it bit for bit.
PRE_REFACTOR_GOLDEN = "4a64762ef8c2fc6ca8fd194d44af15be7c34c09213662866c853880dac4f3e4b"

#: :func:`published_digest` of the marginals the PRE-PIPELINE serial
#: ``fit()`` publishes for the pinned workload (captured from the seed repo
#: before the staged-pipeline refactor).  Serial and executor fits alike must
#: keep reproducing it bit for bit.
FIT_GOLDEN = "a6a8d533b8bbc883d0ebea428cb67587575aced749623177cbff977e2c9b2c6a"


def published_digest(marginals) -> str:
    """Stable content hash of a published-marginal list (order-sensitive)."""
    h = hashlib.sha256()
    for m in marginals:
        h.update(("|".join(m.attrs)).encode())
        h.update(np.ascontiguousarray(m.counts, dtype=np.float64).tobytes())
        h.update(repr((m.rho, m.sigma)).encode())
    return h.hexdigest()
