"""Unit tests for GUM, GUMMI initialization, decoding, and timestamps."""

import numpy as np
import pytest

from repro.data.domain import Domain
from repro.data.schema import FieldKind, FieldSpec, Schema
from repro.data.table import TraceTable
from repro.engine import EngineConfig
from repro.marginals.marginal import Marginal
from repro.synthesis import (
    GumConfig,
    marginal_initialization,
    random_initialization,
    reconstruct_timestamps,
    run_gum,
    weighted_pearson,
)
from repro.synthesis.initialization import key_correlation_score
from repro.synthesis.kernels import FusedKernel, ReferenceKernel


class TestWeightedPearson:
    def test_perfect_correlation(self):
        counts = np.diag([10.0, 10.0, 10.0])
        assert weighted_pearson(counts) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        counts = np.fliplr(np.diag([10.0, 10.0, 10.0]))
        assert weighted_pearson(counts) == pytest.approx(-1.0)

    def test_independent_is_zero(self):
        counts = np.ones((4, 4))
        assert weighted_pearson(counts) == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_is_zero(self):
        assert weighted_pearson(np.zeros((3, 3))) == 0.0
        assert weighted_pearson(np.array([[5.0, 0.0]])) == 0.0

    def test_key_correlation_score(self):
        m = Marginal(("label", "x"), np.diag([5.0, 5.0]))
        assert key_correlation_score(m, "label") == pytest.approx(1.0)
        assert key_correlation_score(m, "absent") == 0.0


class TestInitialization:
    def _one_way(self):
        return {"a": np.array([80.0, 20.0]), "b": np.array([10.0, 90.0])}

    def test_random_init_follows_marginals(self):
        data = random_initialization(self._one_way(), ("a", "b"), 5000, rng=0)
        assert data.shape == (5000, 2)
        freq_a = np.bincount(data[:, 0], minlength=2) / 5000
        assert freq_a[0] == pytest.approx(0.8, abs=0.03)

    def test_marginal_init_preserves_joint(self):
        # Joint marginal: a and label perfectly correlated.
        joint = Marginal(("a", "label"), np.diag([50.0, 50.0]))
        domain = Domain({"a": 2, "label": 2})
        data = marginal_initialization(
            [joint], self._one_way() | {"label": np.array([50.0, 50.0])},
            ("a", "label"), domain, 2000, key_attr="label", rng=1,
        )
        agreement = np.mean(data[:, 0] == data[:, 1])
        assert agreement > 0.95

    def test_marginal_init_falls_back_for_uncovered(self):
        joint = Marginal(("a", "label"), np.diag([50.0, 50.0]))
        domain = Domain({"a": 2, "label": 2, "b": 2})
        one_way = self._one_way() | {"label": np.array([50.0, 50.0])}
        data = marginal_initialization(
            [joint], one_way, ("a", "label", "b"), domain, 1000,
            key_attr="label", rng=2,
        )
        assert data.shape == (1000, 3)
        freq_b = np.bincount(data[:, 2], minlength=2) / 1000
        assert freq_b[1] == pytest.approx(0.9, abs=0.05)

    def test_missing_key_raises(self):
        with pytest.raises(KeyError):
            marginal_initialization(
                [], self._one_way(), ("a", "b"), Domain({"a": 2, "b": 2}),
                10, key_attr="zzz", rng=0,
            )


class TestGum:
    def _setup(self, n=3000, seed=3):
        rng = np.random.default_rng(seed)
        domain = Domain({"x": 4, "y": 3})
        # Target: strong correlation between x and y.
        target = np.zeros((4, 3))
        for i in range(4):
            target[i, i % 3] = 1.0
        target = target / target.sum() * n
        marginal = Marginal(("x", "y"), target)
        data = np.stack(
            [rng.integers(0, 4, n), rng.integers(0, 3, n)], axis=1
        ).astype(np.int32)
        return data, [marginal], ("x", "y"), domain

    def test_error_decreases(self):
        data, targets, attrs, domain = self._setup()
        result = run_gum(
            data, targets, attrs, domain, GumConfig(iterations=20), rng=4
        )
        assert result.errors[-1] < result.errors[0]
        assert result.errors[-1] < 0.1

    def test_preserves_row_count(self):
        data, targets, attrs, domain = self._setup(n=500)
        result = run_gum(data, targets, attrs, domain, GumConfig(iterations=5), rng=4)
        assert result.data.shape == (500, 2)

    def test_early_stop(self):
        data, targets, attrs, domain = self._setup()
        config = GumConfig(iterations=200, tol=1e-3, patience=3)
        result = run_gum(data, targets, attrs, domain, config, rng=4)
        assert result.iterations_run < 200

    def test_empty_inputs(self):
        domain = Domain({"x": 2})
        result = run_gum(np.empty((0, 1), dtype=np.int32), [], ("x",), domain)
        assert result.iterations_run == 0

    def test_values_stay_in_domain(self):
        data, targets, attrs, domain = self._setup()
        result = run_gum(data, targets, attrs, domain, GumConfig(iterations=10), rng=4)
        assert result.data[:, 0].max() < 4
        assert result.data[:, 1].max() < 3
        assert result.data.min() >= 0

    def test_duplicate_fraction_zero_is_pure_replace(self):
        data, targets, attrs, domain = self._setup()
        config = GumConfig(iterations=15, duplicate_fraction=0.0)
        result = run_gum(data, targets, attrs, domain, config, rng=4)
        assert result.errors[-1] < result.errors[0]

    def test_run_gum_reports_seconds(self):
        data, targets, attrs, domain = self._setup(n=500)
        result = run_gum(data, targets, attrs, domain, GumConfig(iterations=3), rng=4)
        assert result.seconds > 0
        assert result.records_per_second > 0


class TestGumUpdateModes:
    """The two update-step kernels, selected through ``run_gum(kernel=...)``."""

    def _setup(self, n=3000, seed=3):
        return TestGum._setup(TestGum(), n=n, seed=seed)

    @pytest.mark.parametrize(
        "kernel", [FusedKernel, ReferenceKernel], ids=["fused", "reference"]
    )
    def test_both_modes_converge(self, kernel):
        data, targets, attrs, domain = self._setup()
        config = GumConfig(iterations=20)
        result = run_gum(data, targets, attrs, domain, config, rng=4, kernel=kernel())
        assert result.errors[-1] < result.errors[0]
        assert result.errors[-1] < 0.1
        assert result.data.min() >= 0
        assert result.data[:, 0].max() < 4 and result.data[:, 1].max() < 3

    def test_invalid_mode_rejected(self):
        """No name selects a kernel: ``run_gum`` takes instances only, and
        neither config has a kernel field."""
        data, targets, attrs, domain = self._setup(n=50)
        for name in ("fused", "vectorized", "numba", "magic"):
            with pytest.raises(TypeError, match="kernel"):
                run_gum(data, targets, attrs, domain, GumConfig(), rng=1, kernel=name)
        with pytest.raises(TypeError):
            GumConfig(update_mode="reference")
        with pytest.raises(TypeError):
            EngineConfig(kernel="reference")

    def test_auto_resolution(self, monkeypatch):
        """With no kernel given, ``run_gum`` steps a ``FusedKernel``."""
        stepped = []
        step = FusedKernel.step

        def counted(self, *args):
            stepped.append(type(self))
            return step(self, *args)

        monkeypatch.setattr(FusedKernel, "step", counted)
        data, targets, attrs, domain = self._setup(n=200)
        result = run_gum(data, targets, attrs, domain, GumConfig(iterations=2), rng=4)
        assert stepped == [FusedKernel] * (result.iterations_run * len(targets))

    def test_steps_read_counts_of_current_data(self, monkeypatch):
        """Each fused step folds its marginal's codes from ``data`` as it is
        when the step starts and measures its error against their bincount:
        nothing is cached from one step to the next."""
        from repro.marginals.compute import cell_codes, marginal_counts
        from repro.synthesis.kernels import fused

        fold = fused._cell_codes

        def checked_fold(data, axes, shape):
            codes = fold(data, axes, shape)
            assert np.array_equal(codes, cell_codes(data[:, axes], shape))
            return codes

        class CheckedKernel(FusedKernel):
            steps = 0

            def step(self, data, states, k, alpha, config, rng):
                state = states[k]
                fresh = marginal_counts(data[:, state.axes], state.shape).reshape(-1)
                error = super().step(data, states, k, alpha, config, rng)
                assert error == float(np.abs(state.target - fresh).sum()) / (2.0 * len(data))
                CheckedKernel.steps += 1
                return error

        monkeypatch.setattr(fused, "_cell_codes", checked_fold)
        data, targets, attrs, domain = self._setup(n=2000)
        result = run_gum(
            data, targets, attrs, domain, GumConfig(iterations=8), rng=8,
            kernel=CheckedKernel(),
        )
        assert CheckedKernel.steps == result.iterations_run * len(targets) > 0


class TestTimestampReconstruction:
    def _table(self):
        schema = Schema(
            fields=(
                FieldSpec("srcip", FieldKind.IP),
                FieldSpec("ts", FieldKind.TIMESTAMP),
                FieldSpec("tsdiff", FieldKind.NUMERIC, integral=False),
            ),
            flow_key=("srcip",),
        )
        return TraceTable(
            schema,
            {
                "srcip": np.array([1, 1, 1, 2, 2]),
                "ts": np.array([100.0, 50.0, 80.0, 10.0, 30.0]),
                "tsdiff": np.array([4.0, 0.0, 2.0, 0.0, 7.0]),
            },
        )

    def test_group_heads_anchor(self):
        out = reconstruct_timestamps(self._table(), rng=0)
        ts = out.column("ts")
        # Group 1 head is the record with original ts=50 (index 1).
        assert ts[1] == pytest.approx(50.0)
        # Then 50 + 2 (row 2's tsdiff), then + 4 (row 0's tsdiff).
        assert ts[2] == pytest.approx(52.0)
        assert ts[0] == pytest.approx(56.0)

    def test_second_group_independent(self):
        out = reconstruct_timestamps(self._table(), rng=0)
        ts = out.column("ts")
        assert ts[3] == pytest.approx(10.0)
        assert ts[4] == pytest.approx(17.0)

    def test_tsdiff_dropped(self):
        out = reconstruct_timestamps(self._table(), rng=0)
        assert "tsdiff" not in out.schema

    def test_monotone_within_group(self):
        out = reconstruct_timestamps(self._table(), rng=0)
        ts = np.asarray(out.column("ts"))
        groups = np.asarray(self._table().column("srcip"))
        for g in np.unique(groups):
            member_ts = ts[groups == g]
            # With non-negative tsdiff, reconstruction preserves order.
            assert (np.sort(member_ts) == member_ts[np.argsort(member_ts)]).all()

    def test_table_without_tsdiff_passthrough(self):
        schema = Schema(
            fields=(FieldSpec("srcip", FieldKind.IP), FieldSpec("ts", FieldKind.TIMESTAMP)),
            flow_key=("srcip",),
        )
        table = TraceTable(schema, {"srcip": np.array([1]), "ts": np.array([5.0])})
        out = reconstruct_timestamps(table, rng=0)
        assert out.column("ts")[0] == 5.0
