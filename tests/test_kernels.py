"""Tests for the GUM kernels: the ``reference`` oracle and ``fused``.

Three contracts are enforced here:

1. **Parity** — every kernel name, on every backend, for every shard count,
   produces a trace digest identical to the reference kernel's.
2. **Selection** — ``auto`` means ``fused``, and any other name (including
   the retired ``vectorized``/``numba``) is rejected everywhere
   (``get_kernel``, ``EngineConfig``, ``run_gum``).
3. **Persistence** — ``EngineConfig.override`` and model ``save``/``load``
   round-trip the ``kernel`` field, and a model saved with a retired kernel
   name (or none at all) still loads and samples byte-identically.
"""

import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import NetDPSyn, SynthesisConfig, load_dataset
from repro.engine import BACKENDS, EngineConfig
from repro.engine.executor import resolve_run_kernel
from repro.io.model import MODEL_MAGIC
from repro.marginals.compute import cell_codes
from repro.synthesis.gum import GumConfig, run_gum
from repro.synthesis.kernels import (
    KERNELS,
    FusedKernel,
    GumKernel,
    ReferenceKernel,
    _MarginalState,
    fused,
    get_kernel,
)


def fresh_cache(data, axes, shape):
    """A marginal's codes and counts recomputed from scratch."""
    codes = cell_codes(data[:, axes], shape)
    return codes, np.bincount(codes, minlength=int(np.prod(shape))).astype(np.float64)


class StepCheckingKernel(FusedKernel):
    """The fused kernel, checking what each step reads against ``data``.

    Before every step it recomputes the stepped marginal's codes and counts
    from scratch; it captures the codes the step folds and asserts they are
    equal, and that the returned pre-step error is the one those counts give.
    """

    def __init__(self):
        self.steps = 0

    def step(self, data, states, k, alpha, config, rng):
        state = states[k]
        codes, counts = fresh_cache(data, state.axes, state.shape)
        seen = []
        fold = fused._cell_codes

        def spy(*args):
            seen.append(fold(*args))
            return seen[-1]

        fused._cell_codes = spy
        try:
            error = super().step(data, states, k, alpha, config, rng)
        finally:
            fused._cell_codes = fold
        assert len(seen) == 1 and np.array_equal(seen[0], codes)
        assert np.array_equal(np.bincount(seen[0], minlength=counts.size), counts)
        assert error == float(np.abs(state.target - counts).sum()) / (2.0 * len(data))
        self.steps += 1
        return error


def gum_workload(n=600, seed=2):
    """A small three-attribute GUM input with two random 2-way targets."""
    from repro.data.domain import Domain
    from repro.marginals.marginal import Marginal

    rng = np.random.default_rng(seed)
    domain = Domain({"a": 5, "b": 4, "c": 3})
    data = np.stack(
        [rng.integers(0, 5, n), rng.integers(0, 4, n), rng.integers(0, 3, n)],
        axis=1,
    ).astype(np.int32)
    target_ab = Marginal(("a", "b"), rng.random((5, 4)) * n)
    target_bc = Marginal(("b", "c"), rng.random((4, 3)) * n)
    return data, [target_ab, target_bc], ("a", "b", "c"), domain


@pytest.fixture(scope="module")
def fitted():
    table = load_dataset("ton", n_records=1200, seed=17)
    config = SynthesisConfig(epsilon=2.0)
    config.gum.iterations = 8
    return NetDPSyn(config, rng=5).fit(table)


@pytest.fixture(scope="module")
def reference_digests(fitted):
    """Golden digests per shard count, captured on the reference kernel."""
    return {
        shards: fitted.sample(400, rng=9, shards=shards, kernel="reference")
        .content_digest()
        for shards in (1, 2, 3)
    }


class TestKernelParity:
    def test_kernel_backend_shards_mode_digest_equality(
        self, fitted, reference_digests
    ):
        """Kernel/backend/shard choice may never change a single byte."""
        for kernel in ("auto", "fused", "reference"):
            for backend in BACKENDS:
                for shards in (1, 2, 3):
                    digest = fitted.sample(
                        400, rng=9, shards=shards, backend=backend, kernel=kernel
                    ).content_digest()
                    assert digest == reference_digests[shards], (kernel, backend, shards)

    def test_gum_result_records_kernel(self, fitted):
        fitted.sample(200, rng=3, kernel="reference")
        assert fitted.gum_result.kernel == "reference"
        fitted.sample(200, rng=3, kernel="fused")
        assert fitted.gum_result.kernel == "fused"
        fitted.sample(200, rng=3)  # auto resolves to a concrete name
        assert fitted.gum_result.kernel == "fused"

    def test_streaming_paths_record_kernel(self, fitted):
        parts = list(fitted.sample_stream(300, chunk=100, rng=4, shards=3))
        assert sum(p.n_records for p in parts) == 300
        assert fitted.gum_result.kernel == "fused"


class TestRegistry:
    def test_always_available_kernels(self):
        for name in ("fused", "reference"):
            assert get_kernel(name).name == name

    def test_auto_resolves_to_fused(self, fitted):
        assert isinstance(get_kernel(), FusedKernel)
        assert get_kernel("auto").name == "fused"
        assert resolve_run_kernel(fitted.plan(), EngineConfig()) == "fused"
        pinned = EngineConfig(kernel="reference")
        assert resolve_run_kernel(fitted.plan(), pinned) == "reference"

    def test_unknown_kernel_rejected_everywhere(self):
        for name in ("vectorized", "numba", "magic"):
            with pytest.raises(ValueError, match="kernel"):
                get_kernel(name)
            with pytest.raises(ValueError, match="kernel"):
                EngineConfig(kernel=name)
            with pytest.raises(ValueError, match="kernel"):
                EngineConfig().override(kernel=name)

    def test_get_kernel_returns_fresh_instances(self):
        a, b = get_kernel("fused"), get_kernel("fused")
        assert isinstance(a, FusedKernel) and a is not b

    def test_registered_classes(self):
        assert KERNELS == {
            "auto": FusedKernel,
            "fused": FusedKernel,
            "reference": ReferenceKernel,
        }
        assert isinstance(get_kernel("reference"), ReferenceKernel)


class TestRunGumKernelSelection:
    def test_explicit_kernel_equals_reference(self):
        data, targets, attrs, domain = gum_workload()
        config = GumConfig(iterations=10)
        out = {}
        for kernel in ("reference", "fused"):
            out[kernel] = run_gum(
                data.copy(), targets, attrs, domain, config, rng=7, kernel=kernel
            )
        assert np.array_equal(out["reference"].data, out["fused"].data)
        assert out["reference"].errors == out["fused"].errors
        assert out["reference"].kernel == "reference"
        assert out["fused"].kernel == "fused"

    def test_kernel_instance_accepted(self):
        data, targets, attrs, domain = gum_workload()
        config = GumConfig(iterations=5)
        a = run_gum(
            data.copy(), targets, attrs, domain, config, rng=3, kernel=FusedKernel()
        )
        b = run_gum(data.copy(), targets, attrs, domain, config, rng=3, kernel="auto")
        assert np.array_equal(a.data, b.data)

    def test_invalid_kernel_name_raises(self):
        data, targets, attrs, domain = gum_workload(n=50)
        with pytest.raises(ValueError, match="kernel"):
            run_gum(data, targets, attrs, domain, GumConfig(), rng=1, kernel="magic")


class TestFusedKernel:
    """The fused kernel's single-pass tricks and per-step reads, each pinned to its twin.

    Bit-identity of the full kernel is already covered by the parity sweep;
    these tests pin the *individual* stream/ordering contracts the fusion
    relies on, so a regression points at the exact trick that broke.
    """

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_broadcast_dup_draw_matches_sequential(self, seed):
        """One bounds-broadcast ``integers`` call == the reference's per-cell
        calls: same values AND same post-call generator state."""
        rng = np.random.default_rng(seed)
        n_cells = int(rng.integers(1, 24))
        match = rng.integers(1, 2**40, size=n_cells)
        n_dup = rng.integers(0, 6, size=n_cells)
        n_dup[int(rng.integers(0, n_cells))] = max(1, int(n_dup[0]))
        dup_idx = np.nonzero(n_dup > 0)[0]
        rng_a = np.random.default_rng(seed ^ 0x5EED)
        rng_b = np.random.default_rng(seed ^ 0x5EED)
        seq = np.concatenate(
            [rng_a.integers(0, match[i], size=n_dup[i]) for i in dup_idx]
        )
        fused = FusedKernel()._dup_offsets(rng_b, match, n_dup, dup_idx)
        assert np.array_equal(seq, fused)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_radix_grouping_matches_stable_argsort(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 500))
        size = int(rng.integers(1, 3000))
        codes = rng.integers(0, size, size=n)
        perm = rng.permutation(n)
        kernel = FusedKernel()
        order = np.argsort(codes[perm], kind="stable")
        grouped = kernel._group_rows(codes.astype(np.uint16), perm)
        assert np.array_equal(grouped, perm[order])

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_count_bounds_match_searchsorted(self, seed):
        """``(cell_lo, cell_len)`` from the counts == the reference's
        ``searchsorted`` bounds over ``codes[perm]`` sorted stably, so the
        step slices the grouped rows at the same places."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 400))
        size = int(rng.integers(1, 80))
        # Skewed codes so that empty, single-row and large cells all occur.
        codes = np.minimum(rng.geometric(0.15, size=n) - 1, size - 1)
        perm = rng.permutation(n)

        cell_len = np.bincount(codes, minlength=size)
        cell_lo = np.cumsum(cell_len) - cell_len

        sorted_codes = codes[perm][np.argsort(codes[perm], kind="stable")]
        cells = np.arange(size)
        lo = np.searchsorted(sorted_codes, cells, side="left")
        hi = np.searchsorted(sorted_codes, cells, side="right")
        assert np.array_equal(cell_lo, lo)
        assert np.array_equal(cell_len, hi - lo)

    def test_grouping_beyond_radix_range_still_stable(self):
        shape = (350, 200)  # 70k cells > uint16 range: int64 codes, same grouping
        rng = np.random.default_rng(3)
        data = np.column_stack(
            [rng.integers(0, 350, 400), rng.integers(0, 200, 400)]
        ).astype(np.int32)
        codes = fused._cell_codes(data, np.array([0, 1]), shape)
        assert codes.dtype == np.int64
        perm = rng.permutation(400)
        order = np.argsort(codes[perm], kind="stable")
        assert np.array_equal(FusedKernel()._group_rows(codes, perm), perm[order])

    def test_cell_codes_match_ravel(self):
        """The Horner fold == ``ravel_multi_index``, in ``uint16`` exactly
        while the marginal fits the radix range."""
        for shape, dtype in (
            ((7,), np.uint16),
            ((7, 3, 5), np.uint16),
            ((255, 257), np.uint16),
            ((256, 257), np.int64),
            ((300, 2, 200), np.int64),
        ):
            rng = np.random.default_rng(len(shape))
            data = np.column_stack(
                [rng.integers(0, s, 500) for s in shape]
                + [np.full(500, s - 1) for s in shape]
            ).astype(np.int32)
            axes = np.arange(len(shape))
            codes = fused._cell_codes(data, axes, shape)
            assert codes.dtype == dtype, shape
            assert np.array_equal(codes, cell_codes(data[:, axes], shape)), shape
            # The last cell (every axis at its maximum) must not wrap.
            top = fused._cell_codes(data, axes + len(shape), shape)
            assert (top == int(np.prod(shape)) - 1).all(), shape

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_each_step_reads_codes_and_counts_of_current_data(self, seed):
        """Every step groups by ``cell_codes`` of ``data`` as it is when
        the step starts and measures its error against that ``bincount``,
        across a whole GUM run that rewrites rows between steps."""
        checked = StepCheckingKernel()
        data, targets, attrs, domain = gum_workload(n=300, seed=seed)
        result = run_gum(data, targets, attrs, domain, GumConfig(iterations=6),
                         rng=seed, kernel=checked)
        assert checked.steps == result.iterations_run * len(targets) > 0

    def test_step_allocates_far_less_than_a_code_arena(self):
        """No ``(n, M)`` state: ``prepare`` plus a step on 200k rows x 20
        marginals allocates a small fraction of ``n * M * 8`` bytes."""
        n, n_marginals = 200_000, 20
        rng = np.random.default_rng(0)
        data = rng.integers(0, 12, size=(n, 8)).astype(np.int32)
        states = []
        for j in range(n_marginals):
            axes = np.array([j % 8, (j + 1 + j // 8) % 8])
            shape = (12, 12)
            target = rng.random(144)
            states.append(_MarginalState(axes, shape, target * (n / target.sum())))
        kernel = FusedKernel()
        tracemalloc.start()
        try:
            kernel.prepare(data, states)
            kernel.step(data, states, 0, 1.0, GumConfig(), rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n_marginals * 8 / 4

    def test_fused_digest_equality(self, fitted, reference_digests):
        for shards in (1, 2, 3):
            digest = fitted.sample(400, rng=9, shards=shards, kernel="fused")
            assert digest.content_digest() == reference_digests[shards]


def rewrite_model(path, edit) -> None:
    """Apply ``edit(payload)`` to a saved model file in place."""
    blob = path.read_bytes()
    payload = pickle.loads(blob[len(MODEL_MAGIC):])
    edit(payload)
    path.write_bytes(MODEL_MAGIC + pickle.dumps(payload))


class TestKernelConfigPersistence:
    def test_override_round_trips_kernel(self):
        config = EngineConfig(kernel="reference", shards=2)
        assert config.override().kernel == "reference"
        assert config.override(kernel="fused").kernel == "fused"
        assert config.override(shards=4).kernel == "reference"
        assert config.kernel == "reference"  # original untouched

    def test_save_load_round_trips_kernel(self, fitted, tmp_path):
        original = fitted.config.engine
        fitted.config.engine = original.override(kernel="reference")
        fitted._plan = None  # rebuild the plan with the pinned kernel
        try:
            path = tmp_path / "model.ndpsyn"
            fitted.save(path)
            loaded = NetDPSyn.load(path)
            assert loaded.plan().kernel == "reference"
            assert loaded.config.engine.kernel == "reference"
            assert (
                loaded.sample(300, rng=11).content_digest()
                == fitted.sample(300, rng=11).content_digest()
            )
        finally:
            fitted.config.engine = original
            fitted._plan = None

    def test_model_pinned_to_unavailable_kernel_still_samples(self, fitted, tmp_path):
        """A model saved under a retired kernel name loads as ``fused``, and
        one saved under a retired backend name as that backend's successor."""
        expected = fitted.sample(250, rng=13).content_digest()
        path = tmp_path / "model.ndpsyn"
        fitted.save(path)
        for retired, backend, successor in (
            ("vectorized", "thread", "serial"),
            ("numba", "shared", "process"),
        ):

            def pin(payload, retired=retired, backend=backend):
                payload["plan"].kernel = retired
                payload["config"].engine.kernel = retired
                payload["config"].engine.backend = backend
                payload["plan"].gum.update_mode = retired  # stale GumConfig field

            rewrite_model(path, pin)
            loaded = NetDPSyn.load(path)
            assert loaded.plan().kernel == "fused"
            assert loaded.config.engine.kernel == "fused"
            assert loaded.config.engine.backend == successor
            assert not hasattr(loaded.plan().gum, "update_mode")
            assert loaded.config.engine.override().kernel == "fused"
            assert loaded.sample(250, rng=13).content_digest() == expected
            assert loaded.gum_result.backend == successor

    def test_plan_without_kernel_field_defaults_to_auto(self, fitted, tmp_path):
        """Plans from model files saved before the field existed load as auto."""
        expected = fitted.sample(250, rng=13).content_digest()
        path = tmp_path / "model.ndpsyn"
        fitted.save(path)

        def strip(payload):
            del vars(payload["plan"])["kernel"]
            payload["config"].gum.update_mode = "reference"  # stale GumConfig field
            payload["config"].engine.backend = "thread"  # retired backend

        rewrite_model(path, strip)
        loaded = NetDPSyn.load(path)
        assert vars(loaded.plan())["kernel"] == "auto"
        engine = loaded.config.engine.override()
        assert (engine.kernel, engine.backend) == ("auto", "serial")
        assert loaded.sample(250, rng=13).content_digest() == expected


def test_kernel_protocol_is_abstract():
    with pytest.raises(TypeError):
        GumKernel()
