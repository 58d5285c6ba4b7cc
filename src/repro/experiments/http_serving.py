"""Deterministic query workloads over one fitted model.

Query serving is pure post-processing of the published noisy marginals, so
a workload is just a list of queries.  These builders make the shapes the
serving benchmarks (``benchmarks/bench_serving.py``,
``benchmarks/bench_http_serving.py``, ``benchmarks/bench_reliability.py``)
and the ``serve-dashboard``/``serve-adhoc`` perfbench workloads drive:
published pairs a marginal answers (:func:`covered_pairs`), pairs only the
synthetic sample answers (:func:`uncovered_pairs`), and the dashboard mix of
:func:`build_http_workload`.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.binning.categorical import CategoricalCodec
from repro.serving import count, histogram, marginal, topk

#: Distinct queries in the dashboard workload (clients cycle through them
#: offset by client id, so concurrent requests overlap heavily in batch
#: groups).
DEFAULT_DISTINCT = 48


def covered_pairs(plan) -> list:
    """Attribute pairs a single published marginal covers (sorted, unique)."""
    pairs = set()
    for m in plan.published:
        for pair in itertools.combinations(sorted(m.attrs), 2):
            pairs.add(pair)
    return sorted(pairs)


def uncovered_pairs(plan, attrs=None) -> list:
    """Pairs of (original-schema) attributes no published marginal covers."""
    covered = set(covered_pairs(plan))
    names = [a for a in (attrs or plan.original_schema.names) if a in plan.domain]
    return [
        pair
        for pair in itertools.combinations(sorted(names), 2)
        if pair not in covered
    ]


def _categorical_values(plan, attr: str) -> list:
    """Raw category values of one attribute (for filter construction)."""
    codec = plan.codecs[attr]
    base = codec.base if hasattr(codec, "base") else codec
    if isinstance(base, CategoricalCodec):
        return list(base.categories)
    return []


def _filter_values(plan, attr: str, rng, k: int = 3) -> list:
    """Up to ``k`` raw values of ``attr`` usable in a ``where`` filter."""
    values = _categorical_values(plan, attr)
    if not values:
        bounds = plan.codecs[attr].bin_bounds()
        if bounds is None:
            return []
        lo, hi = bounds
        values = [float(v) for v in ((np.asarray(lo) + np.asarray(hi)) / 2.0)[:64]]
    if len(values) <= k:
        return list(values)
    picks = rng.choice(len(values), size=k, replace=False)
    return [values[int(i)] for i in picks]


def build_http_workload(model, n_distinct: int = DEFAULT_DISTINCT, seed: int = 0) -> list:
    """A deterministic dashboard workload of ``n_distinct`` queries.

    Slot mix per 8 queries: 4 sample-path filtered counts/topk over
    unpublished pairs (heavy shared-group compute, tiny answers), 2
    marginal-path filtered counts / top-k rankings, 1 histogram, 1 total
    count.  Falls back to published-pair work when the plan covers
    everything (degenerate tiny fits).
    """
    plan = model.plan()
    rng = np.random.default_rng(seed)
    fallback = uncovered_pairs(plan)
    published = covered_pairs(plan)
    numeric = [a for a in ("byt", "pkt", "td", "ts") if a in plan.domain] or list(
        plan.attrs[:1]
    )
    cat_attrs = [a for a in plan.original_schema.names if _categorical_values(plan, a)]
    # Concentrate sample-path work on a handful of pairs: run_batch shares one
    # joint computation per (needed-attrs) group, so a dashboard hammering a
    # few panels (the realistic shape) amortizes far better than queries
    # spread thinly over every unpublished pair.
    filterable_fallback = []
    for a, b in fallback:
        va, vb = _filter_values(plan, a, rng), _filter_values(plan, b, rng)
        if va and vb:
            filterable_fallback.append((a, b, va, vb))
        if len(filterable_fallback) >= 4:
            break

    queries = []
    for i in range(n_distinct):
        slot = i % 8
        if slot < 3 and filterable_fallback:  # sample path: filtered counts
            a, b, va, vb = filterable_fallback[int(rng.integers(len(filterable_fallback)))]
            queries.append(
                count(where={a: va[int(rng.integers(len(va)))], b: vb[int(rng.integers(len(vb)))]})
            )
        elif slot == 3 and filterable_fallback:  # sample path: filtered topk
            a, b, va, vb = filterable_fallback[int(rng.integers(len(filterable_fallback)))]
            queries.append(
                topk(a, k=int(rng.integers(3, 9)), where={b: vb[int(rng.integers(len(vb)))]})
            )
        elif slot == 4 and cat_attrs:  # marginal path: filtered count
            attr = cat_attrs[int(rng.integers(len(cat_attrs)))]
            values = _categorical_values(plan, attr)
            queries.append(count(where={attr: values[int(rng.integers(len(values)))]}))
        elif slot == 5:  # marginal path: topk ranking
            attr = plan.original_schema.names[int(rng.integers(len(plan.original_schema.names)))]
            if attr not in plan.domain:
                attr = numeric[0]
            queries.append(topk(attr, k=int(rng.integers(3, 12))))
        elif slot == 6:  # marginal path: histogram
            queries.append(
                histogram(numeric[int(rng.integers(len(numeric)))], bins=int(rng.integers(6, 16)))
            )
        elif slot == 7 or not published:
            queries.append(count())
        else:  # degenerate plans: published-pair marginal
            a, b = published[int(rng.integers(len(published)))]
            queries.append(marginal(a, b))
    return queries
