"""Table 4 (Appendix C): example marginal tables on TON's dstport × type.

Regenerates the appendix's illustration: exact 1-way marginals for dstport
and type, the raw-noise 2-way marginal straight out of the Gaussian
mechanism, and the same marginal after post-processing (non-negative,
integer-consistent) — including the paper's marquee cells (port 80's
injection spike, port 15600's backdoor traffic).
"""

from __future__ import annotations

import numpy as np

from repro.binning.encoder import DatasetEncoder, EncoderConfig
from repro.consistency.engine import make_consistent
from repro.dp.accountant import BudgetLedger
from repro.experiments.runner import ExperimentScale, load_raw_cached
from repro.marginals.compute import compute_marginal
from repro.marginals.publish import publish_marginals
from repro.utils.rng import ensure_rng


def _top_rows(counts: np.ndarray, labels_a, labels_b, k: int = 6) -> list:
    """The k highest-mass (a, b) cells as printable rows."""
    flat = counts.reshape(-1)
    order = np.argsort(flat)[::-1][:k]
    rows = []
    for idx in order:
        i, j = np.unravel_index(idx, counts.shape)
        rows.append((labels_a[i], labels_b[j], float(flat[idx])))
    return rows


def run(scale: ExperimentScale | None = None, top_k: int = 6) -> dict:
    """Return the four panels of Table 4 as row lists."""
    scale = scale or ExperimentScale()
    rng = ensure_rng(scale.seed + 41)
    raw = load_raw_cached("ton", scale)
    ledger = BudgetLedger.from_eps_delta(scale.epsilon, scale.delta)

    encoder = DatasetEncoder(EncoderConfig())
    encoded = encoder.fit_encode(raw, ledger.spend(0.1 * ledger.total, "binning"), rng)

    dstport_bounds = encoder.codecs["dstport"].bin_bounds()
    port_labels = [
        f"{int(lo)}" if hi - lo <= 1 else f"{int(lo)}-{int(hi) - 1}"
        for lo, hi in zip(*dstport_bounds)
    ]
    type_labels = list(encoder.codecs["type"].base.categories)

    one_way_port = compute_marginal(encoded, ("dstport",))
    one_way_type = compute_marginal(encoded, ("type",))
    exact_2way = compute_marginal(encoded, ("dstport", "type"))
    noisy = publish_marginals(
        encoded, [("dstport", "type")], ledger.spend(0.8 * ledger.total, "publish"), rng
    )[0]
    processed = make_consistent([noisy], rounds=2)[0]

    port_order = np.argsort(one_way_port.counts)[::-1][:top_k]
    return {
        "one_way_dstport": [
            (port_labels[i], float(one_way_port.counts[i])) for i in port_order
        ],
        "one_way_type": [
            (type_labels[i], float(c)) for i, c in enumerate(one_way_type.counts)
        ],
        "noisy_2way": _top_rows(noisy.counts, port_labels, type_labels, top_k),
        "postprocessed_2way": _top_rows(processed.counts, port_labels, type_labels, top_k),
        "exact_2way": _top_rows(exact_2way.counts, port_labels, type_labels, top_k),
    }
