"""Tests for the GUM kernels: the ``reference`` oracle and ``fused``.

Every release runs ``fused``; the oracle is reached only through
``run_gum(kernel=...)``.  Three contracts are enforced here:

1. **Parity** — releases on every backend, for every shard count, in memory
   and streamed, match the digests the reference kernel produces when it is
   rebound into ``repro.engine.plan`` (forked workers inherit the
   rebinding), and the reference reproduces ``PRE_REFACTOR_GOLDEN``.
2. **Selection** — ``run_gum`` defaults to ``fused`` and takes kernel
   instances only; ``get_kernel`` knows ``fused`` and ``reference`` and
   nothing else; no config field or ``sample`` argument picks a kernel.
3. **Persistence** — a model saved with a kernel pin (current or retired
   name) loads without it and samples byte-identically.
"""

import multiprocessing
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.plan as plan_module
from repro import NetDPSyn, SynthesisConfig, load_dataset
from repro.data.table import TraceTable
from repro.engine import BACKENDS, EngineConfig
from repro.engine.executor import resolve_run_kernel
from repro.experiments.goldens import PRE_REFACTOR_GOLDEN
from repro.io.model import MODEL_MAGIC
from repro.marginals.compute import cell_codes
from repro.synthesis.gum import GumConfig, GumResult, run_gum
from repro.synthesis.kernels import (
    KERNELS,
    FusedKernel,
    GumKernel,
    ReferenceKernel,
    _MarginalState,
    fused,
    get_kernel,
)

SHARDS = (1, 2, 3)
RELEASE_PATHS = ("sample", "sample_stream")


def rebind_run_gum(monkeypatch, kernel_class) -> list:
    """Make every release's ``run_gum`` step with a fresh ``kernel_class``.

    ``run_shard`` passes ``kernel=FusedKernel()`` explicitly, so the wrapper
    *replaces* that argument (a ``partial`` binding ``kernel`` would lose to
    it).  Returns the kernels ``run_shard`` passed, in this process.
    """
    passed = []

    def rebound(*args, kernel=None, **kwargs):
        passed.append(kernel)
        return run_gum(*args, kernel=kernel_class(), **kwargs)

    monkeypatch.setattr(plan_module, "run_gum", rebound)
    return passed


def forked_workers_inherit(backend: str) -> bool:
    """Whether ``backend``'s workers see a rebinding made in this process."""
    return backend == "serial" or multiprocessing.get_start_method() == "fork"


def release_digest(synth, path, shards, backend, n=400, rng=9) -> str:
    """The digest of one release, in memory or concatenated from a stream."""
    if path == "sample":
        return synth.sample(n, rng=rng, shards=shards, backend=backend).content_digest()
    parts = synth.sample_stream(n, chunk=150, rng=rng, shards=shards, backend=backend)
    return TraceTable.concat_all(list(parts)).content_digest()


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
    with pytest.MonkeyPatch.context() as patch:
        passed = rebind_run_gum(patch, ReferenceKernel)
        digests = {
            shards: fitted.sample(400, rng=9, shards=shards).content_digest()
            for shards in SHARDS
        }
    assert len(passed) == sum(SHARDS)
    return digests


class TestKernelParity:
    def test_kernel_backend_shards_mode_digest_equality(
        self, fitted, reference_digests
    ):
        """Backend, shard count and streaming never move a byte off the oracle."""
        for backend in BACKENDS:
            for shards in SHARDS:
                for path in RELEASE_PATHS:
                    digest = release_digest(fitted, path, shards, backend)
                    assert digest == reference_digests[shards], (backend, shards, path)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_reference_rebinding_reaches_every_backend(
        self, fitted, reference_digests, backend, monkeypatch
    ):
        """The oracle itself, run in each backend's shards, is deterministic."""
        if not forked_workers_inherit(backend):
            pytest.skip("workers that are not forked do not inherit the rebinding")
        rebind_run_gum(monkeypatch, ReferenceKernel)
        for shards in SHARDS:
            for path in RELEASE_PATHS:
                digest = release_digest(fitted, path, shards, backend)
                assert digest == reference_digests[shards], (backend, shards, path)


@pytest.fixture(scope="module")
def golden_fitted():
    """The workload ``PRE_REFACTOR_GOLDEN`` was captured on."""
    config = SynthesisConfig(epsilon=2.0)
    config.gum.iterations = 15
    return NetDPSyn(config, rng=7).fit(load_dataset("ton", n_records=2500, seed=31))


@pytest.mark.skipif(
    np.lib.NumpyVersion(np.__version__) < "2.0.0",
    reason="golden digest captured on the NumPy 2.x generator streams",
)
@pytest.mark.parametrize("backend", BACKENDS)
def test_reference_kernel_matches_pre_refactor_golden(golden_fitted, backend, monkeypatch):
    if not forked_workers_inherit(backend):
        pytest.skip("workers that are not forked do not inherit the rebinding")
    rebind_run_gum(monkeypatch, ReferenceKernel)
    syn = golden_fitted.sample(2000, rng=123, backend=backend)
    assert syn.content_digest() == PRE_REFACTOR_GOLDEN


class TestRegistry:
    def test_always_available_kernels(self):
        for name in ("fused", "reference"):
            assert get_kernel(name).name == name

    def test_auto_resolves_to_fused(self, fitted, monkeypatch):
        """With no kernel named anywhere, releases and ``run_gum`` run fused."""
        assert resolve_run_kernel(fitted.plan(), EngineConfig()) == "fused"
        passed = rebind_run_gum(monkeypatch, FusedKernel)
        fitted.sample(200, rng=3, shards=2)
        assert len(passed) == 2
        assert all(type(kernel) is FusedKernel for kernel in passed)
        assert passed[0] is not passed[1]  # one instance per shard

    def test_unknown_kernel_rejected_everywhere(self, fitted, tmp_path):
        for name in ("auto", "vectorized", "numba", "magic"):
            with pytest.raises(ValueError, match="kernel"):
                get_kernel(name)
        with pytest.raises(TypeError, match="kernel"):
            EngineConfig(kernel="reference")
        with pytest.raises(TypeError, match="kernel"):
            EngineConfig().override(kernel="reference")
        for release in (
            fitted.sample,
            fitted.sample_stream,
            lambda **kw: fitted.sample_to(tmp_path / "trace.csv", **kw),
        ):
            with pytest.raises(TypeError, match="kernel"):
                release(n=10, kernel="reference")
        assert "kernel" not in vars(fitted.plan())
        assert "kernel" not in vars(GumResult(data=None))

    def test_get_kernel_returns_fresh_instances(self):
        a, b = get_kernel("fused"), get_kernel("fused")
        assert isinstance(a, FusedKernel) and a is not b

    def test_registered_classes(self):
        assert KERNELS == {"fused": FusedKernel, "reference": ReferenceKernel}
        assert isinstance(get_kernel("reference"), ReferenceKernel)


class TestRunGumKernelSelection:
    def test_explicit_kernel_equals_reference(self):
        data, targets, attrs, domain = gum_workload()
        config = GumConfig(iterations=10)
        out = {}
        for kernel in (ReferenceKernel(), FusedKernel()):
            out[kernel.name] = run_gum(
                data.copy(), targets, attrs, domain, config, rng=7, kernel=kernel
            )
        assert np.array_equal(out["reference"].data, out["fused"].data)
        assert out["reference"].errors == out["fused"].errors

    def test_kernel_instance_accepted(self):
        """An explicit ``FusedKernel()`` equals the default (``None``)."""
        data, targets, attrs, domain = gum_workload()
        config = GumConfig(iterations=5)
        a = run_gum(
            data.copy(), targets, attrs, domain, config, rng=3, kernel=FusedKernel()
        )
        b = run_gum(data.copy(), targets, attrs, domain, config, rng=3)
        assert np.array_equal(a.data, b.data)
        assert a.errors == b.errors

    def test_invalid_kernel_name_raises(self):
        """Kernels are instances now; a name is a caller error, not a lookup."""
        data, targets, attrs, domain = gum_workload(n=50)
        for name in ("fused", "reference", "magic"):
            with pytest.raises(TypeError, match="kernel"):
                run_gum(data, targets, attrs, domain, GumConfig(), rng=1, kernel=name)


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
        for shards in SHARDS:
            digest = fitted.sample(400, rng=9, shards=shards)
            assert digest.content_digest() == reference_digests[shards]


def rewrite_model(path, edit) -> None:
    """Apply ``edit(payload)`` to a saved model file in place."""
    blob = path.read_bytes()
    payload = pickle.loads(blob[len(MODEL_MAGIC):])
    edit(payload)
    path.write_bytes(MODEL_MAGIC + pickle.dumps(payload))


class TestKernelConfigPersistence:
    def test_model_pinned_to_unavailable_kernel_still_samples(self, fitted, tmp_path):
        """A model saved with a kernel pin — the oracle, or a name retired
        earlier — loads without the pin, with retired backends mapped to
        their successors, and samples byte-identically."""
        expected = fitted.sample(250, rng=13).content_digest()
        path = tmp_path / "model.ndpsyn"
        for pinned, backend, successor in (
            ("reference", "serial", "serial"),
            ("vectorized", "thread", "serial"),
            ("numba", "shared", "process"),
        ):
            fitted.save(path)

            def pin(payload, pinned=pinned, backend=backend):
                vars(payload["plan"])["kernel"] = pinned
                vars(payload["config"].engine)["kernel"] = pinned
                payload["config"].engine.backend = backend
                for gum in (payload["plan"].gum, payload["config"].gum):
                    gum.update_mode = pinned  # stale GumConfig field

            rewrite_model(path, pin)
            loaded = NetDPSyn.load(path)
            assert not hasattr(loaded.plan(), "kernel")
            assert not hasattr(loaded.config.engine, "kernel")
            assert not hasattr(loaded.plan().gum, "update_mode")
            assert not hasattr(loaded.config.gum, "update_mode")
            assert loaded.config.engine.backend == successor
            assert loaded.sample(250, rng=13).content_digest() == expected
            assert loaded.gum_result.backend == successor


def test_kernel_protocol_is_abstract():
    with pytest.raises(TypeError):
        GumKernel()
