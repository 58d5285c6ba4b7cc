"""PGM baseline synthesizer: tree Bayesian network + ancestral sampling.

Following the paper's §4.1 setup, the 2-way marginals containing the label
attribute are always added to the measured set ("we manually select all
2-way marginals that contain the label attribute of each dataset"); the
remaining structure is a DP-learned spanning tree.  Sampling is ancestral
along a BFS tree rooted at the label.

PGM samples records independently — it has no row-duplication mechanism —
so joint structure beyond the tree edges (e.g. recurring 5-tuples) is lost.
That emergent weakness is exactly what the paper observes on CAIDA ("only a
few flows contain two packets").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines.base import BaselineSynthesizer, finalize_encoded_sample
from repro.binning.encoder import DatasetEncoder, EncoderConfig
from repro.consistency.projection import norm_sub
from repro.consistency.rules import build_default_rules
from repro.baselines.pgm.structure import select_tree_structure
from repro.data.schema import FieldKind
from repro.data.table import TraceTable
from repro.dp.accountant import BudgetLedger
from repro.dp.allocation import split_budget
from repro.marginals.marginal import Marginal
from repro.marginals.publish import publish_marginals
from repro.utils.rng import ensure_rng

PGM_STAGES = {"binning": 0.1, "structure": 0.1, "measure": 0.8}


@dataclass
class PgmConfig:
    """Knobs of the PGM baseline."""

    epsilon: float = 2.0
    delta: float = 1e-5
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    #: Attribute whose 2-way marginals are always measured (None = label).
    required_attr: str | None = None
    #: Iterations of the model-estimation loop (the real Private-PGM's mirror
    #: descent; here iterative-proportional-fitting-style reconciliation) —
    #: the honest source of PGM's runtime cost in the paper's Table 3.
    estimation_iterations: int = 2500
    stage_split: dict = field(default_factory=lambda: dict(PGM_STAGES))


class PgmSynthesizer(BaselineSynthesizer):
    """DP Bayesian-network baseline (paper Appendix D)."""

    name = "pgm"

    def __init__(
        self,
        config: PgmConfig | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.config = config or PgmConfig()
        self._rng = ensure_rng(rng)
        self.ledger: BudgetLedger | None = None
        self.encoder: DatasetEncoder | None = None
        self.edges: list = []
        self.marginals: dict = {}
        self._template = None
        self._original_schema = None
        self._root: str | None = None
        self._rules: list = []

    # ------------------------------------------------------------------- fit
    def fit(self, table: TraceTable) -> "PgmSynthesizer":
        cfg = self.config
        rng = self._rng
        self._original_schema = table.schema
        self.ledger = BudgetLedger.from_eps_delta(cfg.epsilon, cfg.delta)
        stages = split_budget(self.ledger.total, cfg.stage_split)

        rho_bin = self.ledger.spend(stages["binning"], "binning")
        self.encoder = DatasetEncoder(cfg.encoder)
        encoded = self.encoder.fit_encode(table, rho_bin, rng)
        self._template = encoded.replace_data(
            np.empty((0, len(encoded.attrs)), dtype=np.int32)
        )

        self._root = self._resolve_required(table)
        rho_struct = self.ledger.spend(stages["structure"], "structure selection")
        self.edges = select_tree_structure(encoded, rho_struct, rng, root=self._root)

        # Measured set: tree edges + every (label, other) pair.
        attr_sets = [tuple(sorted(e)) for e in self.edges]
        for attr in encoded.attrs:
            if attr != self._root:
                pair = tuple(sorted((self._root, attr)))
                if pair not in attr_sets:
                    attr_sets.append(pair)
        rho_measure = self.ledger.spend(stages["measure"], "marginal measurement")
        published = publish_marginals(encoded, attr_sets, rho_measure, rng)
        calibrated = []
        for m in published:
            counts = norm_sub(m.counts, max(float(np.clip(m.counts, 0, None).sum()), 1.0))
            calibrated.append(Marginal(m.attrs, counts, rho=m.rho, sigma=m.sigma))
        calibrated = self._estimate_model(calibrated)
        self.marginals = {m.attrs: m for m in calibrated}
        self._rules = build_default_rules(self.encoder.schema)
        self._n_estimate = max(
            int(round(np.mean([m.total for m in self.marginals.values()]))), 1
        )
        return self

    def _estimate_model(self, marginals: list) -> list:
        """Iterative reconciliation of the measured marginals.

        Stands in for Private-PGM's mirror-descent estimation: each round
        reconciles every shared attribute across measurements and re-projects
        onto valid distributions, converging to a mutually consistent model.
        """
        from repro.consistency.weighted_average import attribute_consistency

        current = marginals
        for _ in range(max(self.config.estimation_iterations, 0)):
            current = attribute_consistency(current)
        total = max(float(np.mean([m.total for m in current])), 1.0)
        return [
            Marginal(m.attrs, norm_sub(m.counts, total), rho=m.rho, sigma=m.sigma)
            for m in current
        ]

    def _resolve_required(self, table: TraceTable) -> str:
        if self.config.required_attr is not None:
            return self.config.required_attr
        label = table.schema.label_field
        if label is not None:
            return label.name
        for spec in table.schema:
            if spec.kind is FieldKind.CATEGORICAL:
                return spec.name
        return table.schema.names[0]

    # ----------------------------------------------------------------- sample
    def sample(self, n: int | None = None) -> TraceTable:
        if self.encoder is None:
            raise RuntimeError("fit() must be called before sample()")
        rng = self._rng
        n = n if n is not None else self._n_estimate
        attrs = self._template.attrs
        domain = self._template.domain

        # BFS order over the union graph (tree edges ∪ label edges), rooted
        # at the label so its correlations drive the sampling.
        adjacency: dict = {a: [] for a in attrs}
        for pair in self.marginals:
            if len(pair) == 2:
                a, b = pair
                adjacency[a].append(b)
                adjacency[b].append(a)
        parent: dict = {self._root: None}
        order = [self._root]
        queue = [self._root]
        while queue:
            node = queue.pop(0)
            for neigh in adjacency[node]:
                if neigh not in parent:
                    parent[neigh] = node
                    order.append(neigh)
                    queue.append(neigh)
        for attr in attrs:  # disconnected attributes fall back to priors
            if attr not in parent:
                parent[attr] = None
                order.append(attr)

        columns: dict = {}
        for attr in order:
            par = parent[attr]
            if par is None:
                probs = self._prior(attr, domain)
                columns[attr] = rng.choice(len(probs), size=n, p=probs)
            else:
                columns[attr] = self._sample_conditional(
                    attr, par, columns[par], domain, rng
                )
        data = np.stack([columns[a] for a in attrs], axis=1).astype(np.int32)
        return finalize_encoded_sample(
            data, self._template, self.encoder, self._original_schema, rng, self._rules
        )

    def _pair_marginal(self, a: str, b: str) -> Marginal | None:
        for key in ((a, b), (b, a)):
            if key in self.marginals:
                return self.marginals[key]
        return None

    def _prior(self, attr: str, domain) -> np.ndarray:
        """1-way distribution projected from any measured marginal."""
        for m in self.marginals.values():
            if attr in m.attrs:
                counts = np.clip(m.project((attr,)).counts, 0.0, None)
                total = counts.sum()
                if total > 0:
                    return counts / total
        return np.full(domain.size(attr), 1.0 / domain.size(attr))

    def _sample_conditional(
        self, attr: str, parent: str, parent_col: np.ndarray, domain, rng
    ) -> np.ndarray:
        m = self._pair_marginal(attr, parent)
        if m is None:  # pragma: no cover - BFS guarantees an edge exists
            probs = self._prior(attr, domain)
            return rng.choice(len(probs), size=len(parent_col), p=probs)
        counts = m.counts if m.attrs == (parent, attr) else m.counts.T
        counts = np.clip(counts, 0.0, None)
        out = np.empty(len(parent_col), dtype=np.int64)
        fallback = self._prior(attr, domain)
        for value in np.unique(parent_col):
            idx = np.nonzero(parent_col == value)[0]
            row = counts[value]
            total = row.sum()
            probs = row / total if total > 0 else fallback
            out[idx] = rng.choice(len(probs), size=len(idx), p=probs)
        return out
