"""Noisy marginal publication with weighted budget allocation (paper §3.3).

The exact contingency tables are deterministic, so the batched cell-code
kernel (the one :mod:`repro.marginals.indif` uses) may run in-process or be
fanned out across an :class:`~repro.engine.backends.Backend` executor; the
Gaussian noise is then added serially on the caller's generator in the fixed
``attr_sets`` order, so published output is bit-identical regardless of how
the exact counts were produced.
"""

from __future__ import annotations

import numpy as np

from repro.binning.encoder import EncodedDataset
from repro.dp.allocation import uniform_marginal_budgets, weighted_marginal_budgets
from repro.dp.mechanisms import gaussian_mechanism, gaussian_sigma
from repro.engine.backends import Backend, scatter_map
from repro.marginals.compute import exact_count_payload
from repro.marginals.marginal import Marginal
from repro.utils.rng import ensure_rng

#: One record contributes one count to a marginal, so the L2 sensitivity of
#: the full count vector under add/remove-one-record is 1 (paper Theorem 6
#: reference to PrivSyn).
MARGINAL_SENSITIVITY = 1.0


def _exact_counts_chunk(shared, idx_sets: list) -> list:
    """Executor task: exact counts for a chunk of attribute-index sets.

    ``shared`` is the :func:`~repro.marginals.compute.exact_count_payload`
    ``(data, sizes)``; each set's rows are flattened to cell codes by
    successive ``codes * size + column`` folds (identical integers to
    ``ravel_multi_index``) and histogrammed with ``bincount``.  Codes stay
    int32 while the folded domain fits (combined marginals are capped at a
    few thousand cells, so they always do in practice).
    """
    data, sizes = shared
    out = []
    for idx_set in idx_sets:
        n_cells = 1
        for j in idx_set:
            n_cells *= int(sizes[j])
        codes = data[:, idx_set[0]]
        if n_cells >= 2**31:
            codes = codes.astype(np.int64)
        for j in idx_set[1:]:
            codes = codes * int(sizes[j]) + data[:, j]
        counts = np.bincount(codes, minlength=n_cells).astype(np.float64)
        out.append(counts)
    return out


def exact_marginals(
    encoded: EncodedDataset,
    attr_sets,
    executor: Backend | None = None,
    shared: tuple | None = None,
) -> list:
    """Exact :class:`Marginal` per attribute set, in ``attr_sets`` order.

    The batched cell-code kernel runs in-process (``executor=None``) or
    across a backend's workers, with the same counts either way.  ``shared``
    is an optional prebuilt
    :func:`~repro.marginals.compute.exact_count_payload` (pass the same
    object across calls to reuse an opened worker pool).
    """
    attr_sets = [tuple(s) for s in attr_sets]
    if shared is None:
        shared = exact_count_payload(encoded)
    index = {name: j for j, name in enumerate(encoded.attrs)}
    idx_sets = [tuple(index[a] for a in attrs) for attrs in attr_sets]
    flats = scatter_map(executor, _exact_counts_chunk, idx_sets, shared=shared)
    return [
        Marginal(attrs, flat.reshape(encoded.domain.shape(attrs)))
        for attrs, flat in zip(attr_sets, flats)
    ]


def publish_marginals(
    encoded: EncodedDataset,
    attr_sets,
    rho: float | None,
    rng: np.random.Generator | int | None = None,
    weighted: bool = True,
    executor: Backend | None = None,
    shared: tuple | None = None,
) -> list:
    """Compute and publish marginals over each attribute set.

    ``rho`` is shared across all marginals — weighted by ``c^{2/3}`` by
    default (PrivSyn's optimal split), or uniformly.  ``rho=None`` publishes
    exact marginals (ablation/testing).  Noise is drawn per marginal in
    ``attr_sets`` order on the single ``rng`` stream whatever the executor.
    """
    rng = ensure_rng(rng)
    attr_sets = [tuple(s) for s in attr_sets]
    if not attr_sets:
        return []
    cells = [encoded.domain.cells(s) for s in attr_sets]
    if rho is None:
        budgets = [None] * len(attr_sets)
    elif weighted:
        budgets = weighted_marginal_budgets(rho, cells)
    else:
        budgets = uniform_marginal_budgets(rho, len(attr_sets))

    exacts = exact_marginals(encoded, attr_sets, executor=executor, shared=shared)
    published = []
    for exact, rho_i in zip(exacts, budgets):
        if rho_i is None:
            published.append(exact)
            continue
        noisy = gaussian_mechanism(exact.counts, MARGINAL_SENSITIVITY, rho_i, rng)
        sigma = gaussian_sigma(MARGINAL_SENSITIVITY, rho_i)
        published.append(Marginal(exact.attrs, noisy, rho=float(rho_i), sigma=sigma))
    return published
