"""Serving layer tests: query algebra, dual-path answers, registry, threads."""

import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import NetDPSyn, SynthesisConfig, load_dataset
from repro.experiments.http_serving import covered_pairs, uncovered_pairs
from repro.serving import (
    PROVENANCE_MARGINAL,
    PROVENANCE_SAMPLE,
    ModelRegistry,
    Query,
    QueryEngine,
    answers_equal,
    count,
    histogram,
    marginal,
    topk,
)

N_FIT = 2500
SAMPLE_RECORDS = 4000


@pytest.fixture(scope="module")
def model():
    table = load_dataset("ton", n_records=N_FIT, seed=3)
    config = SynthesisConfig(epsilon=2.0)
    config.gum.iterations = 10
    return NetDPSyn(config, rng=11).fit(table)


@pytest.fixture(scope="module")
def engine(model):
    return QueryEngine(model, sample_records=SAMPLE_RECORDS)


@pytest.fixture(scope="module")
def pairs(model):
    """Published pairs answerable by BOTH paths (tsdiff decodes away)."""
    return [p for p in covered_pairs(model.plan()) if "tsdiff" not in p]


# --------------------------------------------------------------------- algebra
def test_query_validation():
    with pytest.raises(ValueError):
        Query(kind="mystery")
    with pytest.raises(ValueError):
        Query(kind="marginal")  # no attrs
    with pytest.raises(ValueError):
        count(where={"proto": []})
    with pytest.raises(ValueError):
        topk("dstport", k=0)
    with pytest.raises(ValueError):
        histogram("byt", bins=0)
    with pytest.raises(ValueError):
        marginal("proto", where={"proto": "TCP"})  # target and filter overlap
    with pytest.raises(ValueError):
        Query(kind="count", attrs=("proto",))
    with pytest.raises(ValueError):
        Query(kind="topk", attrs=("a", "b"))
    with pytest.raises(ValueError):
        marginal("proto", "proto")  # duplicate targets


def test_where_normalization_makes_equal_queries():
    a = count(where={"proto": ["TCP", "UDP"], "service": "http"})
    b = count(where={"service": ("http",), "proto": ["UDP", "TCP", "UDP"]})
    assert a == b and hash(a) == hash(b)
    assert a.needed_attrs == ("proto", "service")


def test_unknown_attribute_raises(engine):
    with pytest.raises(KeyError):
        engine.run(marginal("nonexistent"))
    with pytest.raises(KeyError):
        engine.run(count(where={"nope": 1}))
    with pytest.raises(ValueError):
        engine.run(count(), prefer="bogus")


# ------------------------------------------------------------------ provenance
def test_pair_marginals_answered_without_sampling(engine, pairs):
    """The acceptance criterion: published pairs never touch the sample path."""
    for pair in pairs:
        answer = engine.run(marginal(*pair))
        assert answer.provenance == PROVENANCE_MARGINAL
        assert set(pair) <= set(answer.source)
        assert np.asarray(answer.value).shape == engine._domain.shape(pair)
    # No sample was ever synthesized for marginal-path answers.
    assert engine._sample_cache is None


def test_uncovered_pair_uses_sample_path(engine, model):
    fallback = uncovered_pairs(model.plan())
    assert fallback, "expected at least one unpublished pair at this scale"
    answer = engine.run(marginal(*fallback[0]))
    assert answer.provenance == PROVENANCE_SAMPLE
    assert answer.source is None
    # Sample-path counts are rescaled to the release's record count.
    total = float(np.sum(answer.value))
    assert total == pytest.approx(model.plan().default_n, rel=1e-6)


def test_prefer_marginal_raises_when_uncovered(engine, model):
    fallback = uncovered_pairs(model.plan())
    with pytest.raises(LookupError):
        engine.run(marginal(*fallback[0]), prefer="marginal")


def test_count_tracks_release_total(engine, model):
    answer = engine.run(count())
    assert answer.provenance == PROVENANCE_MARGINAL
    # Published marginals disagree about the total only by their noise.
    assert answer.value == pytest.approx(model.plan().default_n, rel=0.05)


def test_filtered_count_decomposes(engine, model):
    """Filtered counts over a partition sum back to the unfiltered count."""
    categories = model.plan().codecs["proto"].base.categories
    parts = [engine.run(count(where={"proto": c})) for c in categories]
    whole = engine.run(count(where={"proto": list(categories)}))
    assert sum(p.value for p in parts) == pytest.approx(whole.value, rel=1e-9)


def test_histogram_and_topk_shapes(engine):
    hist = engine.run(histogram("byt", bins=7))
    assert hist.value["counts"].shape == (7,)
    assert hist.value["edges"].shape == (8,)
    ranked = engine.run(topk("dstport", k=4))
    counts = [row["count"] for row in ranked.value]
    assert counts == sorted(counts, reverse=True)
    assert len(ranked.value) == 4
    assert all(isinstance(row["label"], str) for row in ranked.value)


def test_histogram_rejects_categorical(engine):
    with pytest.raises(ValueError):
        engine.run(histogram("proto"))


# ------------------------------------------------- dual-path noise agreement
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_paths_agree_within_noise(engine, pairs, data):
    """Marginal-path and sample-path marginals are close in TV distance.

    Both estimate the same released distribution — one by projecting the
    published table, one by counting a GUM-synthesized sample — so they
    differ only by synthesis + sampling error.  Measured worst-case TV at
    this scale is ~0.11; the 0.25 bound leaves noise margin without letting
    a broken path (wrong axis order, bad rescale) through.
    """
    pair = data.draw(st.sampled_from(pairs))
    query = marginal(*pair)
    via_marginal = np.clip(np.asarray(engine.run(query).value), 0, None)
    via_sample = np.asarray(engine.run(query, prefer="sample").value)
    pa = via_marginal / via_marginal.sum()
    pb = via_sample / via_sample.sum()
    tv = 0.5 * float(np.abs(pa - pb).sum())
    assert tv < 0.25, f"paths diverged on {pair}: TV={tv:.3f}"


# ------------------------------------------------------------ batch execution
def _query_strategy(pairs, fallback, categories):
    filters = st.sampled_from([None, {"proto": categories[0]}, {"proto": list(categories[:2])}])
    return st.one_of(
        st.builds(lambda w: count(where=w), filters),
        st.builds(lambda p: marginal(*p), st.sampled_from(pairs + fallback)),
        st.builds(
            lambda k, w: topk("dstport", k=k, where=w), st.integers(1, 8), filters
        ),
        st.builds(lambda b: histogram("byt", bins=b), st.integers(1, 12)),
    )


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_batch_bit_identical_to_serial(engine, model, pairs, data):
    plan = model.plan()
    categories = list(plan.codecs["proto"].base.categories)
    fallback = [p for p in uncovered_pairs(plan)[:3]]
    queries = data.draw(
        st.lists(_query_strategy(pairs, fallback, categories), min_size=1, max_size=12)
    )
    serial = [engine.run(q) for q in queries]
    batched = engine.run_batch(queries)
    assert len(serial) == len(batched)
    for s, b in zip(serial, batched):
        assert answers_equal(s, b)


def test_run_batch_empty(engine):
    assert engine.run_batch([]) == []


# -------------------------------------------------------------------- registry
@pytest.fixture()
def model_dir(tmp_path, model):
    for name in ("alpha", "beta", "gamma"):
        model.save(tmp_path / f"{name}.ndpsyn")
    return tmp_path


def _touch(path, bump_ns: int = 5_000_000) -> None:
    stat = path.stat()
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + bump_ns))


def test_registry_loads_and_hits(model_dir):
    registry = ModelRegistry(model_dir)
    assert registry.list_models() == ["alpha", "beta", "gamma"]
    first = registry.get("alpha")
    again = registry.get("alpha")
    assert first is again
    assert registry.stats.hits == 1 and registry.stats.misses == 1
    # Suffix-qualified names address the same entry.
    assert registry.get("alpha.ndpsyn") is first
    assert registry.stats.hits == 2


def test_registry_lru_eviction(model_dir):
    size = (model_dir / "alpha.ndpsyn").stat().st_size
    registry = ModelRegistry(model_dir, byte_budget=2 * size + size // 2)
    registry.get("alpha")
    registry.get("beta")
    registry.get("alpha")  # alpha is now most-recently used
    registry.get("gamma")  # exceeds budget: beta (LRU) must go
    assert registry.cached_models == ["alpha", "gamma"]
    assert registry.stats.evictions == 1
    assert registry.total_bytes <= registry.byte_budget


def test_registry_keeps_newest_even_over_budget(model_dir):
    registry = ModelRegistry(model_dir, byte_budget=1)
    model = registry.get("alpha")
    assert registry.cached_models == ["alpha"]
    registry.get("beta")
    assert registry.cached_models == ["beta"]
    assert model.plan() is not None  # evicted models stay usable by holders


def test_registry_hot_reload_on_mtime_change(model_dir):
    registry = ModelRegistry(model_dir)
    before = registry.get("alpha")
    engine_before = registry.engine("alpha")
    _touch(model_dir / "alpha.ndpsyn")
    after = registry.get("alpha")
    assert after is not before
    assert registry.stats.reloads == 1
    # The engine cache is invalidated together with its model.
    engine_after = registry.engine("alpha")
    assert engine_after is not engine_before
    assert engine_after._model is after


def test_registry_engine_cached_per_options(model_dir):
    registry = ModelRegistry(model_dir)
    a = registry.engine("alpha")
    b = registry.engine("alpha")
    c = registry.engine("alpha", sample_records=123)
    assert a is b and c is not a
    assert c.sample_records == 123


def test_registry_missing_model(model_dir):
    registry = ModelRegistry(model_dir)
    with pytest.raises(FileNotFoundError):
        registry.get("missing")
    registry.get("alpha")
    (model_dir / "alpha.ndpsyn").unlink()
    with pytest.raises(FileNotFoundError):
        registry.get("alpha")  # stale cache must not serve a deleted release
    assert "alpha" not in registry.cached_models


def test_registry_resolves_only_found_names_once(model_dir):
    registry = ModelRegistry(model_dir)
    for i in range(1000):
        with pytest.raises(FileNotFoundError):
            registry.lease(f"missing-{i}")
    assert registry._resolved == {}
    registry.lease("alpha")
    assert registry._resolved == {"alpha": ("alpha", model_dir / "alpha.ndpsyn")}
    # A found name is resolved once: every later lookup returns that path.
    path = registry.path_of("alpha")
    assert registry.lease("alpha")[1] == 1
    assert registry.path_of("alpha") is path
    assert registry.path_of("beta") is not registry.path_of("beta")


def test_registry_validation(model_dir):
    with pytest.raises(ValueError):
        ModelRegistry(model_dir, byte_budget=0)


def test_registry_concurrent_cold_load_deduplicates(model_dir):
    """N racing first requests produce exactly one load; the rest are hits."""
    registry = ModelRegistry(model_dir)
    barrier = threading.Barrier(6)
    seen = []
    errors = []

    def worker():
        try:
            barrier.wait()
            seen.append(registry.get("alpha"))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert registry.stats.misses == 1 and registry.stats.reloads == 0
    assert registry.stats.hits == 5
    assert all(m is seen[0] for m in seen)


# ------------------------------------------------------------------ threading
def test_concurrent_queries_and_registry_access(model_dir, model):
    """Threads hammering the registry + one engine agree with serial answers."""
    registry = ModelRegistry(model_dir)
    engine = registry.engine("alpha", sample_records=1500)
    plan = model.plan()
    fallback = uncovered_pairs(plan)
    queries = [
        count(),
        marginal(*covered_pairs(plan)[0]),
        topk("dstport", k=3),
        marginal(*fallback[0]),  # forces the lazy sample build under race
        count(where={"proto": "TCP"}),
    ]
    expected = [engine.run(q) for q in queries]
    errors = []
    results = {}

    def worker(tid):
        try:
            registry.get("alpha")
            answers = [engine.run(q) for q in queries]
            batched = engine.run_batch(queries)
            results[tid] = (answers, batched)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(results) == 8
    for answers, batched in results.values():
        for got, want in zip(answers, expected):
            assert answers_equal(got, want)
        for got, want in zip(batched, expected):
            assert answers_equal(got, want)


def test_engine_validation(model):
    with pytest.raises(ValueError):
        QueryEngine(model, sample_records=0)


def test_filter_bin_cache_is_bounded(model, monkeypatch):
    import repro.serving.engine as engine_mod

    monkeypatch.setattr(engine_mod, "MAX_FILTER_CACHE", 4)
    engine = QueryEngine(model, sample_records=100)
    ports = [80, 443, 22, 53, 8080, 445, 21, 123]
    for port in ports:
        engine.run(count(where={"dstport": port}))
    assert len(engine._filter_bins_cache) <= 4
    # Answers stay correct across the wholesale cache drop.
    a = engine.run(count(where={"dstport": 80}))
    b = engine.run(count(where={"dstport": 80}))
    assert a.value == b.value


def test_labels_and_metadata(engine, model):
    plan = model.plan()
    proto_labels = engine.labels("proto")
    assert len(proto_labels) == plan.domain.size("proto")
    assert all(isinstance(label, str) for label in proto_labels)
    # Every label is built from real category names.
    categories = set(plan.codecs["proto"].base.categories)
    for label in proto_labels:
        assert set(label.split("|")) <= categories
    assert engine.labels("proto") is proto_labels  # memoized
    assert engine.attrs == plan.attrs
    with pytest.raises(KeyError):
        engine.labels("nonexistent")
