"""DP Gaussian-copula synthesizer (the paper's §2.3 preliminary experiment).

The paper: "We did preliminary experiments with Gaussian copula, but the
result was unsatisfactory."  This module reproduces that comparison point:

1. attributes are binned with the shared encoder (0.1·rho);
2. per-attribute noisy 1-way marginals define the marginal CDFs (0.3·rho);
3. records map to normal scores; the score covariance is published with the
   Gaussian mechanism (0.6·rho, scores clipped so sensitivity is bounded),
   then projected to a valid correlation matrix;
4. synthesis draws correlated Gaussians and inverts the per-attribute CDFs.

A Gaussian copula can only carry *monotone pairwise* dependence — the
multi-modal, conditional structure of network headers (port↔protocol↔label)
is exactly what it cannot express, which is why the paper found it lacking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.stats import norm

from repro.baselines.base import BaselineSynthesizer, finalize_encoded_sample
from repro.binning.encoder import DatasetEncoder, EncoderConfig
from repro.consistency.projection import norm_sub
from repro.consistency.rules import build_default_rules
from repro.data.table import TraceTable
from repro.dp.accountant import BudgetLedger
from repro.dp.allocation import split_budget
from repro.dp.mechanisms import gaussian_mechanism
from repro.utils.rng import ensure_rng

COPULA_STAGES = {"binning": 0.1, "marginals": 0.3, "correlation": 0.6}

#: Normal scores are clipped to this many standard deviations so one record's
#: contribution to the covariance sum has bounded L2 norm.
SCORE_CLIP = 3.0


@dataclass
class CopulaConfig:
    """Knobs of the Gaussian-copula baseline."""

    epsilon: float = 2.0
    delta: float = 1e-5
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    stage_split: dict = field(default_factory=lambda: dict(COPULA_STAGES))


class GaussianCopulaSynthesizer(BaselineSynthesizer):
    """DP synthesis through a Gaussian copula over binned attributes."""

    name = "copula"

    def __init__(
        self,
        config: CopulaConfig | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.config = config or CopulaConfig()
        self._rng = ensure_rng(rng)
        self.ledger: BudgetLedger | None = None
        self.encoder: DatasetEncoder | None = None
        self.correlation: np.ndarray | None = None
        self.marginal_cdfs: list = []
        self._template = None
        self._original_schema = None
        self._rules: list = []
        self._n_estimate = 1

    # ------------------------------------------------------------------- fit
    def fit(self, table: TraceTable) -> "GaussianCopulaSynthesizer":
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
        n, d = encoded.data.shape

        # Noisy per-attribute histograms -> marginal CDFs over bin ids.
        rho_marg = self.ledger.spend(stages["marginals"], "marginal CDFs")
        self.marginal_cdfs = []
        totals = []
        for j, attr in enumerate(encoded.attrs):
            counts = np.bincount(encoded.data[:, j], minlength=encoded.domain.size(attr))
            noisy = gaussian_mechanism(counts.astype(float), 1.0, rho_marg / d, rng)
            valid = norm_sub(noisy, max(float(np.clip(noisy, 0, None).sum()), 1.0))
            totals.append(valid.sum())
            probs = valid / valid.sum()
            self.marginal_cdfs.append(np.cumsum(probs))
        self._n_estimate = max(int(round(np.mean(totals))), 1)

        # Normal scores via the (noisy) CDFs, clipped for bounded sensitivity.
        scores = np.empty((n, d))
        for j in range(d):
            cdf = self.marginal_cdfs[j]
            lo = np.concatenate([[0.0], cdf[:-1]])[encoded.data[:, j]]
            hi = cdf[encoded.data[:, j]]
            u = np.clip((lo + hi) / 2.0, 1e-6, 1 - 1e-6)
            scores[:, j] = norm.ppf(u)
        scores = np.clip(scores, -SCORE_CLIP, SCORE_CLIP)

        # One record contributes z z^T with ||z z^T||_F <= clip^2 * d.
        rho_corr = self.ledger.spend(stages["correlation"], "correlation matrix")
        gram = scores.T @ scores
        sensitivity = SCORE_CLIP**2 * d
        noisy_gram = gaussian_mechanism(gram, sensitivity, rho_corr, rng)
        noisy_gram = (noisy_gram + noisy_gram.T) / 2.0
        self.correlation = self._to_correlation(noisy_gram / max(n, 1))
        self._rules = build_default_rules(self.encoder.schema)
        return self

    @staticmethod
    def _to_correlation(cov: np.ndarray) -> np.ndarray:
        """Normalize and project a noisy covariance to a valid correlation."""
        diag = np.clip(np.diag(cov), 1e-6, None)
        corr = cov / np.sqrt(np.outer(diag, diag))
        corr = np.clip(corr, -1.0, 1.0)
        np.fill_diagonal(corr, 1.0)
        # PSD projection by eigenvalue clipping.
        eigvals, eigvecs = np.linalg.eigh(corr)
        eigvals = np.clip(eigvals, 1e-6, None)
        corr = eigvecs @ np.diag(eigvals) @ eigvecs.T
        scale = np.sqrt(np.clip(np.diag(corr), 1e-12, None))
        corr = corr / np.outer(scale, scale)
        np.fill_diagonal(corr, 1.0)
        return corr

    # ----------------------------------------------------------------- sample
    def sample(self, n: int | None = None) -> TraceTable:
        if self.correlation is None:
            raise RuntimeError("fit() must be called before sample()")
        rng = self._rng
        n = n if n is not None else self._n_estimate
        d = self.correlation.shape[0]
        chol = np.linalg.cholesky(self.correlation + 1e-9 * np.eye(d))
        z = rng.normal(size=(n, d)) @ chol.T
        u = norm.cdf(z)
        data = np.empty((n, d), dtype=np.int32)
        for j in range(d):
            data[:, j] = np.searchsorted(self.marginal_cdfs[j], u[:, j], side="right")
            data[:, j] = np.clip(data[:, j], 0, len(self.marginal_cdfs[j]) - 1)
        return finalize_encoded_sample(
            data, self._template, self.encoder, self._original_schema, rng, self._rules
        )
