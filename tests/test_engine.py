"""Tests for the sampling engine: plan, backends, sharding, reproducibility."""

import os
import pickle

import numpy as np
import pytest

from repro import NetDPSyn, SynthesisConfig, load_dataset
from repro.binning.encoder import TSDIFF
from repro.data.table import TraceTable
from repro.engine import (
    BACKENDS,
    EngineConfig,
    execute_plan_decoded,
    get_backend,
    shard_sizes,
)
from repro.experiments.goldens import PRE_REFACTOR_GOLDEN
from repro.synthesis.decode import decode_records
from repro.synthesis.gum import run_gum
from repro.synthesis.initialization import marginal_initialization
from repro.synthesis.kernels import ReferenceKernel
from repro.synthesis.timestamps import reconstruct_timestamps


def table_digest(table) -> str:
    """Stable content hash of a trace table (order- and dtype-sensitive)."""
    return table.content_digest()


@pytest.fixture(scope="module")
def ton():
    return load_dataset("ton", n_records=2500, seed=31)


@pytest.fixture(scope="module")
def fitted(ton):
    config = SynthesisConfig(epsilon=2.0)
    config.gum.iterations = 15
    return NetDPSyn(config, rng=7).fit(ton)


class TestShardSizes:
    def test_balanced(self):
        assert shard_sizes(10, 3) == [4, 3, 3]
        assert shard_sizes(9, 3) == [3, 3, 3]
        assert shard_sizes(2, 4) == [1, 1, 0, 0]

    def test_total_preserved(self):
        for n, k in [(1001, 3), (7, 5), (50_000, 4)]:
            assert sum(shard_sizes(n, k)) == n

    def test_invalid(self):
        with pytest.raises(ValueError):
            shard_sizes(-1, 2)
        with pytest.raises(ValueError):
            shard_sizes(10, 0)


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.backend == "serial" and config.shards == 1

    def test_invalid_backend(self):
        with pytest.raises(ValueError):
            EngineConfig(backend="gpu")
        with pytest.raises(ValueError):
            get_backend("gpu")

    def test_invalid_shards(self):
        with pytest.raises(ValueError, match="shards must be an integer >= 1"):
            EngineConfig(shards=0)
        with pytest.raises(ValueError, match="shards must be an integer >= 1"):
            EngineConfig(shards=-2)
        with pytest.raises(ValueError, match="shards"):
            EngineConfig(shards=2.5)
        with pytest.raises(ValueError, match="shards"):
            EngineConfig(shards=True)

    def test_invalid_max_workers(self):
        with pytest.raises(ValueError, match="max_workers must be an integer >= 1"):
            EngineConfig(max_workers=-1)
        with pytest.raises(ValueError, match="max_workers"):
            EngineConfig(max_workers=0)

    def test_default_workers_capped_at_cpu_count(self, monkeypatch):
        # One process per shard on fewer cores only time-slices the cores.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert get_backend("process")._workers(8) == 2
        assert get_backend("process")._workers(1) == 1
        assert get_backend("process", max_workers=8)._workers(8) == 8

    def test_override_validates_eagerly(self):
        config = EngineConfig()
        with pytest.raises(ValueError, match="shards must be an integer >= 1"):
            config.override(shards=0)
        with pytest.raises(ValueError, match="max_workers must be an integer >= 1"):
            config.override(max_workers=-4)

    def test_sample_rejects_invalid_shards(self, fitted):
        # The config constructor is the single validation point, so bad
        # per-call overrides fail fast instead of deep inside shard_sizes.
        with pytest.raises(ValueError, match="shards must be an integer >= 1"):
            fitted.sample(100, rng=1, shards=0)

    def test_override(self):
        config = EngineConfig(backend="serial", shards=1, max_workers=3)
        out = config.override(shards=4, backend="process")
        assert (out.backend, out.shards, out.max_workers) == ("process", 4, 3)
        kept = config.override()
        assert (kept.backend, kept.shards) == ("serial", 1)
        widened = config.override(max_workers=8)
        assert widened.max_workers == 8 and config.max_workers == 3


class TestSynthesisPlan:
    def test_pickle_round_trip(self, fitted):
        plan = fitted.plan()
        clone = pickle.loads(pickle.dumps(plan))
        a = plan.run_shard(400, np.random.default_rng(9))
        b = clone.run_shard(400, np.random.default_rng(9))
        assert table_digest(a.table) == table_digest(b.table)
        assert a.errors == b.errors
        assert a.rng.bit_generator.state == b.rng.bit_generator.state
        c = plan.run_shard(400, 9, np.random.default_rng(10))
        d = clone.run_shard(400, 9, np.random.default_rng(10))
        assert table_digest(c.table) == table_digest(d.table)
        assert c.rng is None

    def test_default_n_is_noisy_total(self, fitted):
        plan = fitted.plan()
        assert plan.default_n == max(int(round(plan.published[0].total)), 1)

    def test_plan_cached_until_refit(self, fitted):
        assert fitted.plan() is fitted.plan()


#: The golden digest was captured on NumPy 2.x; Generator streams are stable
#: in practice but NEP 19 reserves the right to change them across majors.
requires_numpy2 = pytest.mark.skipif(
    np.lib.NumpyVersion(np.__version__) < "2.0.0",
    reason="golden digest captured on the NumPy 2.x generator streams",
)


class TestBitIdentity:
    @requires_numpy2
    def test_serial_single_shard_matches_pre_refactor_golden(self, fitted):
        syn = fitted.sample(2000, rng=123)
        assert table_digest(syn) == PRE_REFACTOR_GOLDEN

    @requires_numpy2
    def test_process_single_shard_matches_golden(self, fitted):
        # The shard generator round-trips through pickling with its state
        # intact, so even the process backend reproduces the legacy stream.
        syn = fitted.sample(2000, rng=123, backend="process")
        assert table_digest(syn) == PRE_REFACTOR_GOLDEN

    def test_engine_equals_legacy_orchestration(self, fitted):
        """The engine path replays the historic sample() call sequence."""
        plan = fitted.plan()
        rng = np.random.default_rng(123)
        data = marginal_initialization(
            plan.published,
            plan.one_way,
            plan.attrs,
            plan.domain,
            2000,
            key_attr=plan.key_attr,
            n_init=plan.n_init_marginals,
            rng=rng,
        )
        gum = run_gum(
            data,
            plan.published,
            plan.attrs,
            plan.domain,
            fitted.config.gum,
            rng,
            kernel=ReferenceKernel(),
        )
        encoded = fitted._template.replace_data(gum.data)
        table = decode_records(encoded, fitted.encoder, rng, rules=plan.rules)
        if TSDIFF in table.schema:
            table = reconstruct_timestamps(
                table,
                tsdiff_codes=encoded.column(TSDIFF),
                tsdiff_codec=fitted.encoder.codecs[TSDIFF],
                rng=rng,
            )
        legacy = TraceTable(
            plan.original_schema,
            {name: table.column(name) for name in plan.original_schema.names},
        )
        assert table_digest(fitted.sample(2000, rng=123)) == table_digest(legacy)


class TestBackendEquality:
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_backends_identical_for_same_seed(self, fitted, shards):
        digests = {
            backend: table_digest(
                fitted.sample(1200, rng=5, shards=shards, backend=backend)
            )
            for backend in BACKENDS
        }
        assert len(set(digests.values())) == 1, digests

    def test_shard_merge_preserves_total_count(self, fitted):
        syn = fitted.sample(1001, rng=2, shards=3, backend="serial")
        assert syn.n_records == 1001
        sizes = [r.n_records for r in fitted.gum_result.shard_results]
        assert sorted(sizes) == [333, 334, 334]

    def test_shard_payloads_dropped_after_merge(self, fitted):
        # Keeping every per-shard matrix alive alongside the merged result
        # used to double peak RSS; only metadata survives the merge.
        fitted.sample(900, rng=2, shards=3, backend="serial")
        for result in fitted.gum_result.shard_results:
            assert result.table is None
            assert result.n_records > 0
            assert result.seconds > 0

    def test_process_backend_advances_caller_generator(self, fitted):
        # Backends must mutate a caller-owned generator identically, so a
        # caller who keeps drawing from it sees the same stream either way.
        serial_rng = np.random.default_rng(21)
        process_rng = np.random.default_rng(21)
        a = fitted.sample(300, rng=serial_rng, backend="serial")
        b = fitted.sample(300, rng=process_rng, backend="process")
        assert table_digest(a) == table_digest(b)
        assert serial_rng.bit_generator.state == process_rng.bit_generator.state

    def test_execute_plan_direct(self, fitted):
        plan = fitted.plan()
        rng = np.random.default_rng(3)
        out = execute_plan_decoded(plan, EngineConfig(backend="process"), n=600, rng=rng)
        assert out.table.n_records == 600
        assert out.gum.data is None and out.gum.n_records == 600
        assert out.gum.backend == "process" and out.gum.shards == 1
        (shard,) = out.gum.shard_results
        assert shard.table is None and shard.rng is None and shard.n_records == 600
        # The shard decoded on the caller's stream; the worker's copy of the
        # generator was written back into the caller's own.
        serial_rng = np.random.default_rng(3)
        assert table_digest(out.table) == table_digest(fitted.sample(600, rng=serial_rng))
        assert rng.bit_generator.state == serial_rng.bit_generator.state

    def test_invalid_n(self, fitted):
        with pytest.raises(ValueError):
            execute_plan_decoded(fitted.plan(), EngineConfig(), n=0)


class TestTimingInstrumentation:
    def test_gum_result_carries_timings(self, fitted):
        fitted.sample(800, rng=1, shards=2, backend="serial")
        result = fitted.gum_result
        assert result.seconds > 0
        assert result.records_per_second > 0
        assert all(r.seconds > 0 for r in result.shard_results)
        assert result.errors and result.errors[-1] <= result.errors[0]
        assert result.iterations_run >= 1


class TestSampleReproducibility:
    """Regression: sample() no longer leaks state through a shared rng."""

    def test_same_seed_instances_agree_call_by_call(self, ton):
        def build():
            config = SynthesisConfig(epsilon=2.0)
            config.gum.iterations = 10
            return NetDPSyn(config, rng=11).fit(ton)

        a, b = build(), build()
        assert table_digest(a.sample(500)) == table_digest(b.sample(500))
        assert table_digest(a.sample(500)) == table_digest(b.sample(500))

    def test_unrelated_rng_use_does_not_shift_sample(self, ton):
        def build():
            config = SynthesisConfig(epsilon=2.0)
            config.gum.iterations = 10
            return NetDPSyn(config, rng=11).fit(ton)

        a, b = build(), build()
        first = table_digest(a.sample(500))
        assert table_digest(b.sample(500)) == first
        # Draining the shared instance rng between calls used to desync
        # subsequent samples; per-call spawned streams must not care.
        b._rng.integers(0, 10, size=1000)
        assert table_digest(a.sample(500)) == table_digest(b.sample(500))

    def test_repeated_calls_use_fresh_streams(self, fitted):
        assert table_digest(fitted.sample(500)) != table_digest(fitted.sample(500))

    def test_explicit_seed_still_pins_output(self, fitted):
        assert table_digest(fitted.sample(500, rng=77)) == table_digest(
            fitted.sample(500, rng=77)
        )
