"""InDif: the pairwise dependency measure behind DenseMarg (PrivSyn §4.1).

``InDif(a, b) = || M_ab - M_a ⊗ M_b / n ||_1`` — the L1 gap between the
observed 2-way marginal and the product of its 1-way marginals.  Independent
attributes score ~0; strongly correlated attributes score up to 2n.  One
record changes InDif by at most 4, so noisy publication uses the Gaussian
mechanism with sensitivity 4.

Reproducibility contract (shared with :mod:`repro.marginals.publish`): the
exact pair marginals are deterministic, so they may be computed in-process or
fanned out across an :class:`~repro.engine.backends.Backend` executor — both
run one batched kernel that builds each pair marginal from per-attribute cell
codes (``codes_a * |b| + codes_b`` + bincount), which yields the same integer
counts as :func:`~repro.marginals.compute.compute_marginal` without a
per-pair column-projection copy.  All Gaussian noise is then drawn in **one
vectorized call on the caller's generator in the fixed pair order** — NumPy
``Generator.normal`` fills element-by-element, so this consumes the stream
exactly like the historical one-draw-per-pair loop and the published scores
are bit-identical to it (pinned by ``tests/test_pipeline.py``).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.binning.encoder import EncodedDataset
from repro.dp.mechanisms import gaussian_mechanism
from repro.engine.backends import Backend, scatter_map
from repro.marginals.compute import compute_marginal, exact_count_payload
from repro.utils.rng import ensure_rng

INDIF_SENSITIVITY = 4.0


def _indif_from_joint(joint: np.ndarray) -> float:
    """InDif of a 2-way count table against its independent approximation."""
    n = joint.sum()
    if n == 0:
        return 0.0
    row = joint.sum(axis=1, keepdims=True)
    col = joint.sum(axis=0, keepdims=True)
    return float(np.abs(joint - row * col / n).sum())


def independent_difference(encoded: EncodedDataset, a: str, b: str) -> float:
    """Exact InDif between attributes ``a`` and ``b`` (reference path)."""
    return _indif_from_joint(compute_marginal(encoded, (a, b)).counts)


def _exact_indif_chunk(shared, pairs: list) -> list:
    """Executor task: exact InDif for a chunk of attribute-index pairs.

    ``shared`` is the :func:`~repro.marginals.compute.exact_count_payload`
    ``(data, sizes)``.  Pair codes stay in the data's native int32 when the
    joint domain fits (it always does for 2-way marginals of binned
    attributes), halving the memory traffic of the fold.
    """
    data, sizes = shared
    out = []
    for ia, ib in pairs:
        sa, sb = int(sizes[ia]), int(sizes[ib])
        col_a, col_b = data[:, ia], data[:, ib]
        if sa * sb >= 2**31:
            col_a = col_a.astype(np.int64)
        codes = col_a * sb + col_b
        joint = np.bincount(codes, minlength=sa * sb).astype(np.float64)
        out.append(_indif_from_joint(joint.reshape(sa, sb)))
    return out


def exact_indif_scores(
    encoded: EncodedDataset,
    pairs: list,
    executor: Backend | None = None,
    shared: tuple | None = None,
) -> dict:
    """Exact InDif for every pair; executor choice cannot change the values.

    The batched cell-code kernel runs in-process (``executor=None``) or is
    fanned out across a backend's workers; exact counts are deterministic
    integers, so both return the same floats.  ``shared`` is an optional
    prebuilt :func:`~repro.marginals.compute.exact_count_payload` (pass the
    same object across calls to reuse an opened worker pool).
    """
    if shared is None:
        shared = exact_count_payload(encoded)
    index = {name: j for j, name in enumerate(encoded.attrs)}
    pair_idx = [(index[a], index[b]) for a, b in pairs]
    values = scatter_map(executor, _exact_indif_chunk, pair_idx, shared=shared)
    return {pair: value for pair, value in zip(pairs, values)}


def noisy_indif_scores(
    encoded: EncodedDataset,
    rho: float,
    rng: np.random.Generator | int | None = None,
    pairs: list | None = None,
    executor: Backend | None = None,
    shared: tuple | None = None,
) -> dict:
    """Publish noisy InDif for every attribute pair under budget ``rho``.

    The budget is split uniformly across the ``d(d-1)/2`` scores; the noise
    for all pairs is one vectorized Gaussian draw in pair order (see the
    module docstring for why that is stream-identical to per-pair draws).
    ``rho=None`` (no DP) returns exact scores — ablation use only.
    """
    rng = ensure_rng(rng)
    if pairs is None:
        pairs = list(combinations(encoded.attrs, 2))
    if not pairs:
        return {}
    exact = exact_indif_scores(encoded, pairs, executor=executor, shared=shared)
    if rho is None:
        return {pair: exact[pair] for pair in pairs}
    rho_each = rho / len(pairs)
    values = np.array([exact[pair] for pair in pairs])
    noisy = gaussian_mechanism(values, INDIF_SENSITIVITY, rho_each, rng)
    return {pair: float(max(value, 0.0)) for pair, value in zip(pairs, noisy)}
