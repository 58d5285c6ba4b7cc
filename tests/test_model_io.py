"""Tests for model persistence: save/load round trips and format validation."""

import pickle

import pytest

from repro import NetDPSyn, SynthesisConfig, load_dataset
from repro.experiments.goldens import published_digest
from repro.io.model import MODEL_MAGIC, MODEL_VERSION, load_model, save_model


@pytest.fixture(scope="module")
def ton():
    return load_dataset("ton", n_records=1500, seed=3)


@pytest.fixture(scope="module")
def fitted(ton):
    config = SynthesisConfig(epsilon=2.0)
    config.gum.iterations = 8
    return NetDPSyn(config, rng=11).fit(ton)


@pytest.fixture()
def model_path(fitted, tmp_path):
    return save_model(fitted, tmp_path / "model.ndpsyn")


class TestRoundTrip:
    def test_samples_bit_identical(self, fitted, model_path):
        loaded = NetDPSyn.load(model_path)
        assert (
            loaded.sample(500, rng=9).content_digest()
            == fitted.sample(500, rng=9).content_digest()
        )
        # And again with a different seed: the plan is fully restored, not
        # merely cached output.
        assert (
            loaded.sample(200, rng=1).content_digest()
            == fitted.sample(200, rng=1).content_digest()
        )

    def test_sharded_sampling_from_loaded_model(self, fitted, model_path):
        loaded = load_model(model_path)
        a = fitted.sample(600, rng=4, shards=2, backend="process")
        b = loaded.sample(600, rng=4, shards=2, backend="process")
        assert a.content_digest() == b.content_digest()

    def test_seed_sequence_continuation(self, ton, tmp_path):
        """rng=None sampling continues the saved instance's stream."""

        def fresh():
            config = SynthesisConfig(epsilon=2.0)
            config.gum.iterations = 8
            return NetDPSyn(config, rng=21).fit(ton)

        original = fresh()
        path = save_model(original, tmp_path / "cont.ndpsyn")
        loaded = load_model(path)
        assert (
            original.sample(300).content_digest()
            == loaded.sample(300).content_digest()
        )

    def test_metadata_restored(self, fitted, model_path):
        loaded = load_model(model_path)
        assert loaded.config.epsilon == fitted.config.epsilon
        assert loaded.ledger.total == fitted.ledger.total
        assert loaded.ledger.spent == fitted.ledger.spent
        assert loaded.ledger.entries() == fitted.ledger.entries()
        assert loaded.selection.pairs == fitted.selection.pairs
        assert published_digest(loaded.published) == published_digest(fitted.published)
        assert loaded.fit_report.stage_seconds == fitted.fit_report.stage_seconds

    def test_loaded_model_needs_no_encoder(self, model_path):
        loaded = load_model(model_path)
        assert loaded.encoder is None
        assert loaded.plan() is loaded.plan()
        assert loaded.sample(100).n_records == 100


class TestValidation:
    def test_save_requires_fit(self, tmp_path):
        with pytest.raises(RuntimeError, match="fit"):
            NetDPSyn().save(tmp_path / "unfitted.ndpsyn")

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "garbage.ndpsyn"
        path.write_bytes(b"definitely not a model file")
        with pytest.raises(ValueError, match="not a NetDPSyn model"):
            load_model(path)

    def test_rejects_wrong_payload_format(self, tmp_path):
        path = tmp_path / "wrong.ndpsyn"
        with open(path, "wb") as fh:
            fh.write(MODEL_MAGIC)
            pickle.dump({"format": "something-else", "version": 1}, fh)
        with pytest.raises(ValueError, match="not a NetDPSyn model"):
            load_model(path)

    def test_rejects_future_version(self, model_path, tmp_path):
        with open(model_path, "rb") as fh:
            fh.read(len(MODEL_MAGIC))
            payload = pickle.load(fh)
        payload["version"] = MODEL_VERSION + 1
        future = tmp_path / "future.ndpsyn"
        with open(future, "wb") as fh:
            fh.write(MODEL_MAGIC)
            pickle.dump(payload, fh)
        with pytest.raises(ValueError, match="version"):
            load_model(future)

    def test_rejects_truncated_file(self, model_path, tmp_path):
        blob = model_path.read_bytes()
        truncated = tmp_path / "truncated.ndpsyn"
        truncated.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ValueError, match="truncated or corrupt"):
            load_model(truncated)


class TestRunnerPersistence:
    def test_model_dir_saves_then_loads(self, tmp_path):
        from repro.experiments.runner import ExperimentScale, clear_cache, synthesize_cached

        scale = ExperimentScale(n_records=800, seed=0, gum_iterations=5)
        clear_cache()
        try:
            first, _ = synthesize_cached("netdpsyn", "ton", scale, model_dir=tmp_path)
            saved = list(tmp_path.glob("*.ndpsyn"))
            assert len(saved) == 1
            clear_cache()
            second, _ = synthesize_cached("netdpsyn", "ton", scale, model_dir=tmp_path)
        finally:
            clear_cache()
        assert first.content_digest() == second.content_digest()
