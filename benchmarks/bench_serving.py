"""Serving layer: queries/sec serial vs batched over one fitted model.

Query serving is pure post-processing of the published marginals, so the
serving tier can answer any number of queries under the fit's privacy
budget; what this benchmark records is the *execution* story:

Correctness gates, asserted at every scale:

- batched answers are bit-identical to serial answers;
- every query projecting onto a published pair is answered from the
  marginal path (``provenance == "marginal"``, no sampling);
- the registry demo observes a cache hit and a hot reload.

Perf gate, asserted at full scale (>= 20k-record fit): batched execution is
>= 2x serial queries/sec on the mixed workload (marginals, top-k,
histograms, filtered counts; marginal- and sample-path).  The win comes
from amortizing source-table computation across query groups, not from
parallelism, so it shows on one core — but at smoke scale the batched loop
is single-digit milliseconds and scheduler noise could flake a hard assert,
so (like the other benches) smoke relies on the committed-baseline ratio
gate in ``compare_baselines.py`` instead (speedup 2.55x pinned, -30%
tolerance).  The speedup is the median over :data:`ROUNDS` interleaved
serial/batched rounds of each round's ratio, so one descheduled round
cannot flip the gate.

Smoke mode (REPRO_BENCH_SMOKE=1, used by CI) shrinks the fit and the
workload; queries/sec and speedup land in the timing artifact either way.

Runnable standalone: ``python benchmarks/bench_serving.py [out.json]``.
"""

import os
import statistics
import tempfile
from pathlib import Path

import numpy as np

from conftest import SMOKE, _env_int, attach, best_of, dump, fit_ton, fmt

from repro.experiments.http_serving import _categorical_values, covered_pairs, uncovered_pairs
from repro.experiments.runner import ExperimentScale
from repro.serving import (
    PROVENANCE_MARGINAL,
    ModelRegistry,
    QueryEngine,
    answers_equal,
    count,
    histogram,
    marginal,
    topk,
)

#: Workload size: large enough that per-query timing noise averages out.
DEFAULT_QUERIES = 1_500 if SMOKE else 4_000

#: Interleaved serial/batched timing rounds.  Queries/sec are best-of over
#: the rounds; ``batch_speedup`` is the median of the per-round ratios.
ROUNDS = 7

#: The acceptance-criteria speedup gate for batched execution.
BATCH_SPEEDUP_GATE = 2.0

#: Below this fit size the timing loops are milliseconds-scale and the hard
#: speedup assert would measure scheduler noise, not the engine.
FULL_SCALE_THRESHOLD = 20_000


def build_workload(model, n_queries: int, seed: int) -> list:
    """A deterministic mixed query workload over one fitted model.

    Cycles marginal-path work (published-pair marginals, top-k rankings,
    histograms, filtered counts) with sample-path work (unpublished-pair
    marginals) in a fixed 40/15/15/15/15 mix.  Queries repeat across a small
    number of source groups — the realistic dashboard/monitoring shape that
    batched execution is built for.
    """
    plan = model.plan()
    rng = np.random.default_rng(seed)
    pairs = covered_pairs(plan)
    fallback_pairs = uncovered_pairs(plan)
    numeric = [a for a in ("byt", "pkt", "td", "ts") if a in plan.domain] or list(
        plan.attrs[:1]
    )
    cat_attrs = [a for a in plan.original_schema.names if _categorical_values(plan, a)]
    single = [a for a in plan.original_schema.names if a in plan.domain]

    queries = []
    for i in range(n_queries):
        slot = i % 20
        if slot < 8 and pairs:  # 40%: published-pair marginals
            a, b = pairs[int(rng.integers(len(pairs)))]
            queries.append(marginal(a, b))
        elif slot < 11:  # 15%: top-k rankings
            attr = single[int(rng.integers(len(single)))]
            queries.append(topk(attr, k=int(rng.integers(3, 12))))
        elif slot < 14:  # 15%: histograms
            attr = numeric[int(rng.integers(len(numeric)))]
            queries.append(histogram(attr, bins=int(rng.integers(4, 16))))
        elif slot < 17 and cat_attrs:  # 15%: filtered counts
            attr = cat_attrs[int(rng.integers(len(cat_attrs)))]
            values = _categorical_values(plan, attr)
            queries.append(count(where={attr: values[int(rng.integers(len(values)))]}))
        elif fallback_pairs:  # 15%: sample-path marginals
            a, b = fallback_pairs[int(rng.integers(len(fallback_pairs)))]
            queries.append(marginal(a, b))
        else:  # degenerate plans: everything is covered
            queries.append(count())
    return queries


def measure(engine: QueryEngine, queries: list) -> dict:
    """Serial vs batched wall clock over one workload, :data:`ROUNDS` rounds.

    The sample cache is warmed before timing so both paths measure query
    execution, not the one-off synthesis of the fallback sample.
    """
    sample_needed = [q for q in queries if not engine.answerable_from_marginal(q)]
    if sample_needed:
        engine.run(sample_needed[0])  # builds the cached sample once

    serial_times, batched_times = [], []
    for _ in range(ROUNDS):
        seconds, (serial_answers,) = best_of(1, lambda: [engine.run(q) for q in queries])
        serial_times.append(seconds)
        seconds, (batched_answers,) = best_of(1, lambda: engine.run_batch(queries))
        batched_times.append(seconds)
    serial_seconds, batched_seconds = min(serial_times), min(batched_times)

    equal = len(serial_answers) == len(batched_answers) and all(
        answers_equal(s, b) for s, b in zip(serial_answers, batched_answers)
    )
    provenance: dict = {}
    for answer in batched_answers:
        provenance[answer.provenance] = provenance.get(answer.provenance, 0) + 1
    return {
        "n_queries": len(queries),
        "rounds": ROUNDS,
        "serial_seconds": serial_seconds,
        "serial_queries_per_second": len(queries) / serial_seconds,
        "batched_seconds": batched_seconds,
        "batched_queries_per_second": len(queries) / batched_seconds,
        "batch_speedup": statistics.median(
            s / b for s, b in zip(serial_times, batched_times)
        ),
        "batch_equal": equal,
        "provenance": provenance,
    }


def registry_demo(model, tmp: Path) -> dict:
    """Exercise load -> hit -> hot-reload through a registry on disk."""
    model_path = tmp / "ton.ndpsyn"
    model.save(model_path)
    registry = ModelRegistry(tmp)
    registry.get("ton")  # cold load
    registry.get("ton")  # hit
    # Atomic-replace deployment: rewrite the file, bump mtime past the
    # filesystem's timestamp granularity, observe the reload.
    model.save(model_path)
    stat = model_path.stat()
    os.utime(model_path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))
    registry.get("ton")
    stats = registry.stats.as_dict()
    return {
        "models_on_disk": registry.list_models(),
        "stats": stats,
        "hot_reload_ok": stats["reloads"] >= 1 and stats["hits"] >= 1,
    }


def run(scale: ExperimentScale, n_queries: int) -> dict:
    """Fit once, then measure the serving layer end to end at ``scale``."""
    model = fit_ton(scale)
    plan = model.plan()
    # The fallback sample is floored at 20k records even for tiny fits: a
    # serving tier sizes its cache for answer quality, not for the fit size,
    # and a too-small cache would understate the sample path's real cost.
    engine = QueryEngine(model, sample_records=max(scale.n_records, 20_000))
    timing = measure(engine, build_workload(model, n_queries, scale.seed))

    pair_answers = engine.run_batch([marginal(a, b) for a, b in covered_pairs(plan)[:16]])
    examples = []
    for query in (count(), topk("dstport", k=3), count(where={"proto": "TCP"})):
        answer = engine.run(query)
        value = answer.value
        examples.append(
            {
                "query": repr(answer.query),
                "provenance": answer.provenance,
                "value": value.tolist() if hasattr(value, "tolist") else value,
            }
        )
    with tempfile.TemporaryDirectory() as tmp:
        registry = registry_demo(model, Path(tmp))

    return {
        "n_records_fit": scale.n_records,
        "n_published_marginals": len(plan.published),
        "n_covered_pairs": len(covered_pairs(plan)),
        "n_fallback_pairs": len(uncovered_pairs(plan)),
        "measure": timing,
        "pair_marginal_provenance_ok": all(
            a.provenance == PROVENANCE_MARGINAL for a in pair_answers
        ),
        "examples": examples,
        "registry": registry,
    }


def serving_scale() -> ExperimentScale:
    n_records = _env_int("REPRO_BENCH_SERVE_RECORDS", 1_000 if SMOKE else 50_000)
    return ExperimentScale(
        n_records=n_records,
        seed=_env_int("REPRO_BENCH_SEED", 0),
    )


def run_and_check(scale: ExperimentScale) -> dict:
    result = run(scale, _env_int("REPRO_BENCH_SERVE_QUERIES", DEFAULT_QUERIES))
    measure = result["measure"]
    print(
        f"[serve] serial  {measure['serial_queries_per_second']:>10.0f} q/s  "
        f"({fmt(measure['serial_seconds'])}s for {measure['n_queries']} queries)"
    )
    print(
        f"[serve] batched {measure['batched_queries_per_second']:>10.0f} q/s  "
        f"speedup={fmt(measure['batch_speedup'])}  "
        f"provenance={measure['provenance']}"
    )
    print(
        f"[serve] batch equal: {measure['batch_equal']}  "
        f"pair-marginal provenance: {result['pair_marginal_provenance_ok']}  "
        f"registry: {result['registry']['stats']}"
    )

    assert measure["batch_equal"], "batched answers diverged from serial answers"
    assert result["pair_marginal_provenance_ok"], (
        "a published-pair marginal query fell back to the sample path"
    )
    assert result["registry"]["hot_reload_ok"], result["registry"]
    if result["n_records_fit"] >= FULL_SCALE_THRESHOLD:
        speedup = measure["batch_speedup"]
        assert speedup >= BATCH_SPEEDUP_GATE, (
            f"batched execution speedup {speedup:.2f}x < {BATCH_SPEEDUP_GATE}x over serial"
        )
    return result


def test_serving(benchmark):
    scale = serving_scale()
    result = benchmark.pedantic(
        lambda: run_and_check(scale), rounds=1, iterations=1, warmup_rounds=0
    )
    attach(benchmark, result)


if __name__ == "__main__":
    dump(run_and_check(serving_scale()))
