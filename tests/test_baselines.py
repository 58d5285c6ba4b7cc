"""Unit tests for the PGM, PrivMRF, and NetShare baselines."""

import numpy as np
import pytest

from repro.baselines import (
    MemoryBudgetExceeded,
    NetShareConfig,
    NetShareSynthesizer,
    PgmConfig,
    PgmSynthesizer,
    PrivMrfConfig,
    PrivMrfSynthesizer,
)
from repro.baselines.netshare.representation import BlockOneHot
from repro.baselines.privmrf.memory import MemoryAccountant
from repro.data.domain import Domain
from repro.datasets import load_dataset


#: ``PgmSynthesizer(PgmConfig(estimation_iterations=5), rng=0).fit(ton).sample(500)``
#: on the module's ``ton`` fixture; pins the decode/timestamp/schema-restore
#: path the baselines share with NetDPSyn.  Captured on NumPy 2.x streams.
PGM_SAMPLE_DIGEST = "468dc82a3ef0cbf6605635a8cd6f4c85c2b55941be15a2081a7cb0b0034f1bca"


@pytest.fixture(scope="module")
def ton():
    return load_dataset("ton", n_records=1500, seed=21)


class TestPgm:
    def test_synthesizes_schema_preserving(self, ton):
        syn = PgmSynthesizer(PgmConfig(estimation_iterations=20), rng=0).synthesize(
            ton, n=1500
        )
        assert syn.schema.names == ton.schema.names
        assert syn.n_records == 1500

    def test_budget_fully_spent(self, ton):
        pgm = PgmSynthesizer(PgmConfig(estimation_iterations=5), rng=0).fit(ton)
        assert pgm.ledger.remaining == pytest.approx(0.0, abs=1e-9)

    def test_label_marginals_always_measured(self, ton):
        pgm = PgmSynthesizer(PgmConfig(estimation_iterations=5), rng=0).fit(ton)
        label = "type"
        others = [a for a in pgm.encoder.schema.names if a != label]
        for attr in others:
            pair = tuple(sorted((label, attr)))
            assert pair in pgm.marginals

    def test_tree_structure_is_spanning(self, ton):
        pgm = PgmSynthesizer(PgmConfig(estimation_iterations=5), rng=0).fit(ton)
        attrs = set(pgm.encoder.schema.names)
        covered = {pgm._root}
        for parent, child in pgm.edges:
            covered.add(child)
        assert covered == attrs

    @pytest.mark.skipif(
        np.lib.NumpyVersion(np.__version__) < "2.0.0",
        reason="digest captured on the NumPy 2.x generator streams",
    )
    def test_sample_digest_is_pinned(self, ton):
        pgm = PgmSynthesizer(PgmConfig(estimation_iterations=5), rng=0).fit(ton)
        assert pgm.sample(500).content_digest() == PGM_SAMPLE_DIGEST

    def test_label_distribution_roughly_preserved(self, ton):
        syn = PgmSynthesizer(PgmConfig(estimation_iterations=20), rng=0).synthesize(
            ton, n=3000
        )
        frac = np.mean(np.asarray(syn.column("type")) == "normal")
        assert 0.3 < frac < 0.8

    def test_sample_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            PgmSynthesizer().sample()


class TestPrivMrf:
    def test_memory_accountant_charges(self):
        acct = MemoryAccountant(budget_bytes=1000)
        acct.charge_cells(100)
        assert acct.allocated_bytes == 800
        with pytest.raises(MemoryBudgetExceeded):
            acct.charge_cells(100)

    def test_memory_error_message(self):
        with pytest.raises(MemoryBudgetExceeded, match="GiB"):
            MemoryAccountant(budget_bytes=8).charge_cells(10**9, what="test")

    def test_runs_on_ton(self, ton):
        config = PrivMrfConfig(
            gibbs_sweeps=2,
            estimation_iterations=3,
            estimation_particles=300,
            memory_budget_bytes=512 * 1024**3,
        )
        syn = PrivMrfSynthesizer(config, rng=0).synthesize(ton, n=1000)
        assert syn.n_records == 1000
        assert syn.schema.names == ton.schema.names

    def test_ooms_on_packet_dataset(self):
        caida = load_dataset("caida", n_records=1500, seed=22)
        config = PrivMrfConfig(
            memory_budget_bytes=64 * 1024 * 1024,
            estimation_iterations=2,
            estimation_particles=200,
        )
        with pytest.raises(MemoryBudgetExceeded):
            PrivMrfSynthesizer(config, rng=0).fit(caida)

    def test_budget_fully_spent(self, ton):
        config = PrivMrfConfig(
            estimation_iterations=2,
            estimation_particles=200,
            memory_budget_bytes=512 * 1024**3,
        )
        mrf = PrivMrfSynthesizer(config, rng=0).fit(ton)
        assert mrf.ledger.remaining == pytest.approx(0.0, abs=1e-9)

    def test_estimation_reduces_moment_gap(self, ton):
        config = PrivMrfConfig(
            estimation_iterations=10,
            estimation_particles=800,
            memory_budget_bytes=512 * 1024**3,
        )
        mrf = PrivMrfSynthesizer(config, rng=0).fit(ton)
        gaps = mrf.estimation_gaps
        assert gaps[-1] < gaps[0]


class TestBlockOneHot:
    def test_encode_shape_and_hardness(self):
        blocks = BlockOneHot(Domain({"a": 3, "b": 2}))
        data = np.array([[0, 1], [2, 0]])
        onehot = blocks.encode(data)
        assert onehot.shape == (2, 5)
        assert np.allclose(onehot.sum(axis=1), 2.0)
        assert onehot[0, 1] == 0 and onehot[0, 0] == 1 and onehot[0, 4] == 1

    def test_block_softmax_per_block_simplex(self):
        blocks = BlockOneHot(Domain({"a": 3, "b": 2}))
        logits = np.random.default_rng(0).normal(size=(4, 5))
        probs = blocks.block_softmax(logits)
        assert np.allclose(probs[:, :3].sum(axis=1), 1.0)
        assert np.allclose(probs[:, 3:].sum(axis=1), 1.0)

    def test_sample_within_domains(self):
        blocks = BlockOneHot(Domain({"a": 3, "b": 2}))
        probs = blocks.block_softmax(np.zeros((100, 5)))
        codes = blocks.sample(probs, np.random.default_rng(1))
        assert codes[:, 0].max() < 3
        assert codes[:, 1].max() < 2

    def test_softmax_backward_matches_numeric(self):
        blocks = BlockOneHot(Domain({"a": 3}))
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(2, 3))
        weight = rng.normal(size=(2, 3))

        def f(x):
            return float((blocks.block_softmax(x) * weight).sum())

        probs = blocks.block_softmax(logits)
        grad = blocks.block_softmax_backward(probs, weight)
        eps = 1e-6
        for i in range(2):
            for j in range(3):
                logits[i, j] += eps
                hi = f(logits)
                logits[i, j] -= 2 * eps
                lo = f(logits)
                logits[i, j] += eps
                assert grad[i, j] == pytest.approx((hi - lo) / (2 * eps), abs=1e-5)


class TestNetShare:
    @pytest.fixture(scope="class")
    def trained(self):
        table = load_dataset("ton", n_records=800, seed=23)
        config = NetShareConfig(pretrain_iterations=15, finetune_iterations=15)
        return NetShareSynthesizer(config, rng=0).fit(table), table

    def test_sample_schema(self, trained):
        synthesizer, table = trained
        syn = synthesizer.sample(500)
        assert syn.schema.names == table.schema.names
        assert syn.n_records == 500

    def test_dp_accounting_reported(self, trained):
        synthesizer, _ = trained
        assert synthesizer.noise_multiplier > 0
        eps = synthesizer.spent_epsilon()
        # The DP-SGD epsilon must not exceed the configured target.
        assert eps <= synthesizer.config.epsilon * 1.05

    def test_history_recorded(self, trained):
        synthesizer, _ = trained
        assert len(synthesizer.history["d_loss"]) == 30
        assert all(np.isfinite(v) for v in synthesizer.history["d_loss"])

    def test_ports_valid(self, trained):
        synthesizer, _ = trained
        syn = synthesizer.sample(300)
        assert (np.asarray(syn.column("srcport")) < 65536).all()
        assert (np.asarray(syn.column("byt")) >= np.asarray(syn.column("pkt"))).all()
