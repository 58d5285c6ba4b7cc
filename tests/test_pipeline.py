"""Tests for the staged fit pipeline: stages, budget invariants, executors."""

from itertools import combinations

import numpy as np
import pytest

from repro import NetDPSyn, SynthesisConfig, load_dataset
from repro.core.synthesizer import smallest_marginal_index
from repro.data.table import TraceTable
from repro.dp.mechanisms import gaussian_mechanism
from repro.engine import BACKENDS, EngineConfig, get_backend, scatter_map
from repro.experiments.goldens import FIT_GOLDEN, published_digest
from repro.marginals.compute import compute_marginal, exact_count_payload
from repro.marginals.indif import (
    INDIF_SENSITIVITY,
    exact_indif_scores,
    independent_difference,
    noisy_indif_scores,
)
from repro.marginals.publish import exact_marginals
from repro.pipeline import FitPipeline, FitStage, default_stages

#: The golden digest was captured on NumPy 2.x; Generator streams are stable
#: in practice but NEP 19 reserves the right to change them across majors.
requires_numpy2 = pytest.mark.skipif(
    np.lib.NumpyVersion(np.__version__) < "2.0.0",
    reason="golden digest captured on the NumPy 2.x generator streams",
)

STAGE_ORDER = ("binning", "selection", "combine", "publish", "consistency")


@pytest.fixture(scope="module")
def ton():
    return load_dataset("ton", n_records=2500, seed=31)


def build(ton, fit_engine=None, rng=7):
    config = SynthesisConfig(epsilon=2.0, fit_engine=fit_engine)
    config.gum.iterations = 15
    return NetDPSyn(config, rng=rng).fit(ton)


@pytest.fixture(scope="module")
def fitted(ton):
    return build(ton)


@pytest.fixture(scope="module")
def encoded(fitted, ton):
    return fitted.encoder.encode(ton)


# ----------------------------------------------------------- task executor
def _offset_square(shared, x):
    return shared["offset"] + x * x


def _chunk_add(shared, chunk):
    return [shared + item for item in chunk]


def _chunk_bad_length(shared, chunk):
    return [0]


class TestRunTasks:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_results_in_task_order_with_shared(self, backend):
        runner = get_backend(backend, max_workers=2)
        tasks = [(i,) for i in range(7)]
        out = runner.run_tasks(_offset_square, tasks, shared={"offset": 3})
        assert out == [3 + i * i for i in range(7)]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_tasks(self, backend):
        assert get_backend(backend).run_tasks(_offset_square, [], shared=None) == []

    def test_scatter_map_preserves_item_order(self):
        runner = get_backend("serial")
        items = list(range(11))
        out = scatter_map(runner, _chunk_add, items, shared=100, n_chunks=3)
        assert out == [100 + i for i in items]

    def test_scatter_map_checks_result_count(self):
        runner = get_backend("serial")
        with pytest.raises(RuntimeError, match="results"):
            scatter_map(runner, _chunk_bad_length, [1, 2, 3], shared=0, n_chunks=1)

    def test_process_persistent_pool_reuse(self):
        runner = get_backend("process", max_workers=2)
        shared = {"offset": 10}
        runner.open(shared)
        try:
            a = runner.run_tasks(_offset_square, [(1,), (2,)], shared=shared)
            b = runner.run_tasks(_offset_square, [(3,)], shared=shared)
            # A different payload still works (per-call pool) while open.
            c = runner.run_tasks(_offset_square, [(1,)], shared={"offset": 0})
            d = runner.run_tasks(_offset_square, [(4,)], shared=shared)
        finally:
            runner.close()
        assert (a, b, c, d) == ([11, 14], [19], [1], [26])

    def test_close_without_open_is_noop(self):
        runner = get_backend("process", max_workers=2)
        runner.close()


# -------------------------------------------------------- ledger invariants
class TestBudgetLedgerInvariants:
    def test_stage_spend_order_matches_paper_split(self, fitted):
        entries = fitted.ledger.entries()
        assert [purpose for purpose, _ in entries] == [
            "frequency-dependent binning",
            "marginal selection",
            "marginal publication",
        ]
        total = fitted.ledger.total
        fractions = [rho / total for _, rho in entries]
        assert fractions == pytest.approx([0.1, 0.1, 0.8], rel=1e-9)

    def test_stage_spends_sum_to_total_rho(self, fitted):
        ledger = fitted.ledger
        assert sum(rho for _, rho in ledger.entries()) == pytest.approx(
            ledger.total, rel=1e-12
        )
        assert ledger.spent == pytest.approx(ledger.total, rel=1e-12)
        assert ledger.remaining == pytest.approx(0.0, abs=1e-9)

    def test_executor_fit_spends_identically(self, ton, fitted):
        parallel = build(ton, fit_engine=EngineConfig(backend="serial", max_workers=1))
        assert parallel.ledger.entries() == fitted.ledger.entries()


# --------------------------------------------------------------- fit report
class TestFitReport:
    def test_stage_order_and_timings(self, fitted):
        report = fitted.fit_report
        assert tuple(report.stage_seconds) == STAGE_ORDER
        assert all(seconds >= 0.0 for seconds in report.stage_seconds.values())
        assert report.total_seconds >= sum(report.stage_seconds.values()) - 1e-6

    def test_workload_shape(self, fitted):
        report = fitted.fit_report
        assert report.n_records == 2500
        assert report.n_pairs == 66  # C(12, 2) over the encoded attributes
        assert report.n_marginals == len(fitted.published)
        assert report.backend is None and report.workers is None

    def test_executor_fit_records_backend(self, ton):
        synth = build(ton, fit_engine=EngineConfig(backend="process", max_workers=2))
        assert synth.fit_report.backend == "process"
        assert synth.fit_report.workers == 2

    def test_report_renders_lines_and_dict(self, fitted):
        lines = fitted.fit_report.lines()
        assert lines[0].startswith("fit:")
        assert len(lines) == 1 + len(STAGE_ORDER)
        payload = fitted.fit_report.as_dict()
        assert tuple(payload["stage_seconds"]) == STAGE_ORDER

    def test_verbose_runner_prints_report(self, capsys):
        from repro.experiments.runner import ExperimentScale, clear_cache, synthesize_cached

        clear_cache()
        scale = ExperimentScale(n_records=600, seed=0, gum_iterations=4, verbose=True)
        try:
            table, _ = synthesize_cached("netdpsyn", "ton", scale)
        finally:
            clear_cache()
        assert table is not None
        out = capsys.readouterr().out
        assert "fit:" in out and "binning" in out


# ----------------------------------------------------------- bit identity
class TestFitGolden:
    @requires_numpy2
    def test_serial_fit_matches_pre_refactor_golden(self, fitted):
        assert published_digest(fitted.published) == FIT_GOLDEN

    @requires_numpy2
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_executor_fit_matches_golden(self, ton, backend):
        synth = build(ton, fit_engine=EngineConfig(backend=backend, max_workers=2))
        assert published_digest(synth.published) == FIT_GOLDEN


class TestExecutorEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_samples_identical_across_executors(self, ton, fitted, backend):
        synth = build(ton, fit_engine=EngineConfig(backend=backend, max_workers=2))
        assert (
            synth.sample(400, rng=5).content_digest()
            == fitted.sample(400, rng=5).content_digest()
        )

    def test_exact_indif_scores_match_reference(self, encoded):
        pairs = list(combinations(encoded.attrs, 2))[:20]
        reference = exact_indif_scores(encoded, pairs)
        runner = get_backend("process", max_workers=2)
        batched = exact_indif_scores(encoded, pairs, executor=runner)
        assert batched == pytest.approx(reference)

    def test_exact_marginals_match_reference(self, encoded):
        attrs = encoded.attrs
        attr_sets = [(attrs[0],), (attrs[1], attrs[4]), (attrs[4], attrs[9], attrs[10])]
        reference = [compute_marginal(encoded, s) for s in attr_sets]
        runner = get_backend("serial")
        batched = exact_marginals(
            encoded, attr_sets, executor=runner, shared=exact_count_payload(encoded)
        )
        for ref, got in zip(reference, batched):
            assert got.attrs == ref.attrs
            assert np.array_equal(got.counts, ref.counts)


class TestVectorizedNoiseStream:
    def test_single_draw_equals_legacy_per_pair_draws(self, encoded):
        """The satellite fix is stream-identical to the historical loop."""
        pairs = list(combinations(encoded.attrs[:6], 2))
        rho = 0.05
        rho_each = rho / len(pairs)
        legacy_rng = np.random.default_rng(5)
        legacy = {}
        for a, b in pairs:
            exact = independent_difference(encoded, a, b)
            noisy = gaussian_mechanism(
                np.array([exact]), INDIF_SENSITIVITY, rho_each, legacy_rng
            )[0]
            legacy[(a, b)] = float(max(noisy, 0.0))
        vectorized = noisy_indif_scores(
            encoded, rho, np.random.default_rng(5), pairs=pairs
        )
        assert vectorized == legacy


# ------------------------------------------------------------ one-way index
class TestOneWayIndex:
    def test_index_matches_per_attribute_rescan(self, fitted):
        index = smallest_marginal_index(fitted.published)
        for attr in fitted._template.attrs:
            holders = [m for m in fitted.published if attr in m.attrs]
            legacy = min(holders, key=lambda m: m.n_cells)
            assert index[attr] is legacy

    def test_plan_one_way_counts_match_legacy_projection(self, fitted):
        plan = fitted.plan()
        for attr in plan.attrs:
            holders = [m for m in fitted.published if attr in m.attrs]
            expected = min(holders, key=lambda m: m.n_cells).project((attr,)).counts
            assert np.array_equal(plan.one_way[attr], expected)


# ------------------------------------------------------------ pipeline shape
class _RecordingStage:
    name = "recording"

    def __init__(self):
        self.ran = False

    def run(self, ctx):
        self.ran = True


class TestPipelineStructure:
    def test_default_stages_satisfy_protocol(self):
        stages = default_stages()
        assert [stage.name for stage in stages] == list(STAGE_ORDER)
        assert all(isinstance(stage, FitStage) for stage in stages)

    def test_duplicate_stage_names_rejected(self):
        stage = _RecordingStage()
        with pytest.raises(ValueError, match="duplicate"):
            FitPipeline([stage, _RecordingStage()])

    def test_custom_stage_runs_and_is_timed(self, ton):
        extra = _RecordingStage()
        pipeline = FitPipeline(list(default_stages()) + [extra])
        ctx = _fit_context(ton)
        pipeline.run(ctx)
        assert extra.ran
        assert set(ctx.timings) == set(STAGE_ORDER) | {"recording"}


def _fit_context(table):
    from repro.dp.accountant import BudgetLedger
    from repro.dp.allocation import split_budget
    from repro.pipeline import FitContext

    config = SynthesisConfig(epsilon=2.0)
    ledger = BudgetLedger.from_eps_delta(config.epsilon, config.delta)
    return FitContext(
        table=table,
        config=config,
        rng=np.random.default_rng(0),
        ledger=ledger,
        stage_budgets=split_budget(ledger.total, config.stage_split),
    )


# ------------------------------------------------------------ one-pass fit
class TestOnePassFit:
    def test_tsdiff_computed_once_per_fit(self, ton, monkeypatch):
        # One flow grouping per fit: the flow key is folded once, from the
        # codes of the binning pass, tsdiff is computed from it once, and
        # nothing regroups the table by flow.
        import repro.binning.encoder as encoder_module

        calls = []

        def counting(name, original):
            def wrapper(*args):
                calls.append(name)
                return original(*args)

            return wrapper

        for name in ("fold_key", "_tsdiff"):
            monkeypatch.setattr(encoder_module, name, counting(name, getattr(encoder_module, name)))
        monkeypatch.setattr(TraceTable, "group_ids", counting("group_ids", TraceTable.group_ids))
        build(ton)
        assert calls == ["fold_key", "_tsdiff"]

    def test_encoded_matrix_is_column_major_and_shared(self, ton):
        ctx = _fit_context(ton)
        FitPipeline().run(ctx)
        data = ctx.encoded.data
        assert data.flags.f_contiguous
        # The serial fit's exact-count payload is the encoded matrix itself.
        payload, sizes = ctx.exact_payload()
        assert np.shares_memory(payload, data)
        assert sizes == ctx.encoded.domain.shape(ctx.encoded.attrs)
        assert np.shares_memory(exact_count_payload(ctx.encoded)[0], data)
