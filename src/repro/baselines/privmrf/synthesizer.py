"""PrivMRF baseline synthesizer (Cai et al., per the paper's Appendix D)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines.base import BaselineSynthesizer, finalize_encoded_sample
from repro.baselines.privmrf.memory import MemoryAccountant
from repro.baselines.privmrf.mrf import MarkovRandomField, charge_model_memory
from repro.baselines.privmrf.selection import select_mrf_marginals
from repro.binning.encoder import DatasetEncoder, EncoderConfig
from repro.consistency.engine import make_consistent
from repro.consistency.rules import build_default_rules
from repro.data.table import TraceTable
from repro.dp.accountant import BudgetLedger
from repro.dp.allocation import split_budget
from repro.marginals.publish import publish_marginals
from repro.utils.rng import ensure_rng

PRIVMRF_STAGES = {"binning": 0.1, "selection": 0.1, "measure": 0.8}

#: The paper's 256 GB workstation, applied to the *modeled* junction tree
#: (see mrf.JT_MODEL_SCALE): TON's tree fits, UGR16/CIDDS/CAIDA/DC's do not
#: — deterministically reproducing the paper's N/A pattern.
DEFAULT_MEMORY_BUDGET_BYTES = 256 * 1024**3


@dataclass
class PrivMrfConfig:
    """Knobs of the PrivMRF baseline."""

    epsilon: float = 2.0
    delta: float = 1e-5
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES
    pair_keep_fraction: float = 0.6
    n_triples: int = 8
    gibbs_sweeps: int = 6
    #: PCD moment-matching iterations — the (honest) source of PrivMRF's
    #: runtime cost relative to the other methods (paper Table 3).
    estimation_iterations: int = 50
    estimation_particles: int = 3000
    stage_split: dict = field(default_factory=lambda: dict(PRIVMRF_STAGES))


class PrivMrfSynthesizer(BaselineSynthesizer):
    """MRF-based DP synthesizer with explicit memory accounting."""

    name = "privmrf"

    def __init__(
        self,
        config: PrivMrfConfig | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.config = config or PrivMrfConfig()
        self._rng = ensure_rng(rng)
        self.ledger: BudgetLedger | None = None
        self.encoder: DatasetEncoder | None = None
        self.mrf: MarkovRandomField | None = None
        self.accountant: MemoryAccountant | None = None
        self.marginals: list = []
        self._template = None
        self._original_schema = None
        self._rules: list = []
        self._n_estimate = 1

    def fit(self, table: TraceTable) -> "PrivMrfSynthesizer":
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

        rho_sel = self.ledger.spend(stages["selection"], "marginal selection")
        attr_sets = select_mrf_marginals(
            encoded,
            rho_sel,
            rng,
            pair_keep_fraction=cfg.pair_keep_fraction,
            n_triples=cfg.n_triples,
        )
        # Guarantee coverage of every attribute.
        covered = {a for s in attr_sets for a in s}
        attr_sets += [(a,) for a in encoded.attrs if a not in covered]

        # Price the model BEFORE any table is materialized: this is where
        # PrivMRF's memory explodes, and the accountant must raise before
        # the process would actually allocate oversized potentials.  The
        # junction tree is priced over the pre-merge base domains (the real
        # PrivMRF runs its own discretization, not our frequency merging).
        from repro.binning.base import MergedCodec
        from repro.data.domain import Domain

        base_domain = Domain(
            {
                name: codec.base.domain_size
                if isinstance(codec, MergedCodec)
                else codec.domain_size
                for name, codec in self.encoder.codecs.items()
            }
        )
        self.accountant = MemoryAccountant(cfg.memory_budget_bytes)
        charge_model_memory(
            attr_sets, encoded.domain, self.accountant, base_domain=base_domain
        )

        rho_measure = self.ledger.spend(stages["measure"], "marginal measurement")
        published = publish_marginals(encoded, attr_sets, rho_measure, rng)
        self.marginals = make_consistent(published, rounds=2)
        self._n_estimate = max(int(round(self.marginals[0].total)), 1)
        self.mrf = MarkovRandomField(self.marginals, encoded.domain, self.accountant)
        self.estimation_gaps = self.mrf.estimate(
            iterations=cfg.estimation_iterations,
            n_particles=cfg.estimation_particles,
            rng=rng,
        )
        self._rules = build_default_rules(self.encoder.schema)
        return self

    def sample(self, n: int | None = None) -> TraceTable:
        if self.mrf is None:
            raise RuntimeError("fit() must be called before sample()")
        rng = self._rng
        n = n if n is not None else self._n_estimate
        data = self.mrf.gibbs_sample(n, sweeps=self.config.gibbs_sweeps, rng=rng)
        return finalize_encoded_sample(
            data, self._template, self.encoder, self._original_schema, rng, self._rules
        )
