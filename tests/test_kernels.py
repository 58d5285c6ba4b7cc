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
    get_kernel,
)
from repro.synthesis.kernels.fused import _strides_for


def fresh_cache(data, axes, shape):
    """A marginal's codes and counts recomputed from scratch."""
    codes = cell_codes(data[:, axes], shape)
    return codes, np.bincount(codes, minlength=int(np.prod(shape))).astype(np.float64)


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
    def _workload(self, n=600, seed=2):
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

    def test_explicit_kernel_equals_reference(self):
        data, targets, attrs, domain = self._workload()
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
        data, targets, attrs, domain = self._workload()
        config = GumConfig(iterations=5)
        a = run_gum(
            data.copy(), targets, attrs, domain, config, rng=3, kernel=FusedKernel()
        )
        b = run_gum(data.copy(), targets, attrs, domain, config, rng=3, kernel="auto")
        assert np.array_equal(a.data, b.data)

    def test_invalid_kernel_name_raises(self):
        data, targets, attrs, domain = self._workload(n=50)
        with pytest.raises(ValueError, match="kernel"):
            run_gum(data, targets, attrs, domain, GumConfig(), rng=1, kernel="magic")


class TestFusedKernel:
    """The fused kernel's three single-pass tricks, each pinned to its twin.

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
        assert np.array_equal(kernel._group_rows(codes, perm, size), perm[order])

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_count_bounds_match_searchsorted(self, seed):
        """``(cell_lo, cell_len)`` from the cached counts == the reference's
        ``searchsorted`` bounds over ``codes[perm]`` sorted stably, so the
        step slices the grouped rows at the same places."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 400))
        size = int(rng.integers(1, 80))
        # Skewed codes so that empty, single-row and large cells all occur.
        codes = np.minimum(rng.geometric(0.15, size=n) - 1, size - 1)
        perm = rng.permutation(n)
        counts = np.bincount(codes, minlength=size).astype(np.float64)

        cell_len = counts.astype(np.int64)
        cell_lo = np.cumsum(cell_len) - cell_len

        sorted_codes = codes[perm][np.argsort(codes[perm], kind="stable")]
        cells = np.arange(size)
        lo = np.searchsorted(sorted_codes, cells, side="left")
        hi = np.searchsorted(sorted_codes, cells, side="right")
        assert np.array_equal(cell_lo, lo)
        assert np.array_equal(cell_len, hi - lo)

    def test_grouping_beyond_radix_range_still_stable(self):
        size = 70_000  # > uint16 range: must take the int64 branch, same result
        rng = np.random.default_rng(3)
        codes = rng.integers(0, size, size=400)
        perm = rng.permutation(400)
        kernel = FusedKernel()
        order = np.argsort(codes[perm], kind="stable")
        assert np.array_equal(kernel._group_rows(codes, perm, size), perm[order])

    def test_strides_match_ravel(self):
        shape = (7, 3, 5)
        strides = _strides_for(shape)
        idx = np.array([[6, 2, 4], [0, 0, 0], [3, 1, 2]])
        expected = np.ravel_multi_index(tuple(idx.T), shape)
        assert np.array_equal(idx @ strides, expected)

    def _states(self, data):
        specs = [
            (np.array([0, 2], dtype=np.int64), (5, 3)),
            (np.array([1], dtype=np.int64), (4,)),
            (np.array([0, 1, 3], dtype=np.int64), (5, 4, 3)),
        ]
        states = []
        for axes, shape in specs:
            size = int(np.prod(shape))
            state = _MarginalState(axes, shape, np.zeros(size))
            state.target = np.zeros(size)
            states.append(state)
        return states

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_fused_apply_updates_matches_marginal_state(self, seed):
        """One matmul + a touched-key ``subtract.at``/``add.at`` patch of
        the ``(n, M)`` arena == codes and counts from scratch."""
        rng = np.random.default_rng(seed)
        n = 300
        data = np.column_stack(
            [
                rng.integers(0, 5, n),
                rng.integers(0, 4, n),
                rng.integers(0, 3, n),
                rng.integers(0, 3, n),
            ]
        ).astype(np.int32)
        states = self._states(data)

        kernel = FusedKernel()
        kernel.prepare(data, states)
        for state in states:
            codes, counts = fresh_cache(data, state.axes, state.shape)
            assert np.array_equal(state.codes, codes)
            assert np.array_equal(state.counts, counts)

        rows = rng.choice(n, size=40, replace=False).astype(np.int64)
        data[rows, 0] = rng.integers(0, 5, 40)
        data[rows, 1] = rng.integers(0, 4, 40)
        data[rows, 2] = rng.integers(0, 3, 40)
        data[rows, 3] = rng.integers(0, 3, 40)

        kernel._apply_updates(data, states, rows)
        for state in states:
            codes, counts = fresh_cache(data, state.axes, state.shape)
            assert np.array_equal(state.codes, codes)
            assert np.array_equal(state.counts, counts)

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
