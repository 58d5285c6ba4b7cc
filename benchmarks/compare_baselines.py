"""Gate the CI benchmark smoke run against a committed perf baseline.

The smoke job produces a pytest-benchmark JSON (``--benchmark-json``) whose
``extra_info`` carries each experiment's result rows plus the harness peak
RSS.  This script distills the *gated metrics* out of that file and compares
them against ``benchmarks/baselines/bench-smoke-baseline.json``:

- synthesis throughput (records/sec, engine + streaming serial baselines);
- the fused-kernel speedup over the reference kernel (a ratio, so it is
  robust to runner speed differences);
- bytes copied per record across the sharded process backend (the zero-copy
  data plane's per-record movement budget, lower is better);
- HTTP serving throughput and p50 latency under closed-loop client load;
- per-benchmark peak RSS.

A gated metric may regress by at most ``--tolerance`` (default 30%) in its
*bad* direction — lower for throughput/speedups, higher for RSS — before
the job fails; improvements are always fine and are reported so the
baseline can be re-pinned.  Metrics present on only one side are reported
but never fail the run (they appear when optional deps or new benchmarks
change the shape).

Usage::

    # CI gate (exit 1 on regression):
    python compare_baselines.py compare baselines/bench-smoke-baseline.json \
        ../bench-smoke.json

    # Re-pin the baseline from a fresh smoke run:
    python compare_baselines.py extract ../bench-smoke.json \
        -o baselines/bench-smoke-baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys

#: Relative regression allowed in a metric's bad direction.
DEFAULT_TOLERANCE = 0.30

#: metric name -> (benchmark test name, path inside extra_info.result,
#: direction).  ``higher`` metrics fail when the fresh value drops below
#: baseline * (1 - tolerance); ``lower`` metrics (RSS) fail when it exceeds
#: baseline * (1 + tolerance).
GATED_RESULT_METRICS = {
    "engine.serial-1.records_per_second": (
        "test_engine_scaling",
        ("rows", "serial-1", "records_per_second"),
        "higher",
    ),
    "engine.kernel.fused.speedup_vs_reference": (
        "test_engine_scaling",
        ("kernel_rows", "fused", "speedup_vs_reference"),
        "higher",
    ),
    "stream.serial-1.records_per_second": (
        "test_stream_throughput",
        ("rows", "serial-1", "records_per_second"),
        "higher",
    ),
    # Zero-copy data plane: bytes moved per synthesized record across the
    # sharded process backend (pickled + stitch).  The pickled share is
    # hard-asserted to be zero in the benchmark itself; the per-record total
    # is gated here so a stitching regression cannot land silently.  It is a
    # per-record byte count, not a wall-clock rate, so it is machine-stable
    # and keeps the tight band.
    "stream.shared.bytes_copied_per_record": (
        "test_stream_throughput",
        ("copy_probe", "bytes_copied_per_record"),
        "lower",
    ),
    # Serving layer: batched queries/sec is the headline number; the
    # batch-over-serial speedup is a same-run ratio, so it is robust to
    # runner speed and is what actually gates the execution plane.
    "serve.batched.queries_per_second": (
        "test_serving",
        ("measure", "batched_queries_per_second"),
        "higher",
    ),
    "serve.batch_speedup": (
        "test_serving",
        ("measure", "batch_speedup"),
        "higher",
    ),
    # HTTP serving: what a closed-loop network client gets from the full
    # stack (transport + wire codecs + micro-batcher).  Throughput and p50
    # latency are machine-absolute, so both take the wide band; the
    # batched-vs-unbatched speedup is hard-asserted in the benchmark itself
    # at full scale only (at smoke scale HTTP latency dominates the tiny
    # per-query work and the ratio is scheduler noise, so it is not gated
    # here).
    "serve_http.batched.queries_per_second": (
        "test_http_serving",
        ("configs", "batched", "queries_per_second"),
        "higher",
    ),
    "serve_http.batched.p50_ms": (
        "test_http_serving",
        ("configs", "batched", "p50_ms"),
        "lower",
    ),
    # Reliability: recovery overhead is a same-run ratio (kill-faulted
    # sampling series over the clean series, digest-checked every round), so
    # it is machine-stable and keeps the tight band; a regression means shard
    # resubmission started re-running more than the killed shard (or pool
    # rebuild got expensive).  Faulted p99 is what a client waits under ~1%
    # engine faults — absolute, so it takes the wide band; the benchmark
    # itself hard-asserts the typed-response invariant at every scale.
    "reliability.recovery_overhead": (
        "test_reliability_recovery",
        ("measure", "overhead_ratio"),
        "lower",
    ),
    "serve_http.faulted.p99_ms": (
        "test_http_faulted",
        ("measure", "p99_ms"),
        "lower",
    ),
    # Fleet: the 4-worker LocalCluster release rate.  Digest-identity with
    # the single-node serial run is hard-asserted inside the benchmark (and
    # the experiment) at every scale; the throughput is machine-absolute, so
    # it takes the wide band.  The >= 1.5x speedup gate is enforced in the
    # benchmark itself at full scale on >= 4 CPUs.
    "fleet.local4.records_per_second": (
        "test_fleet_release",
        ("rows", "local4", "records_per_second"),
        "higher",
    ),
}

#: Leakage metrics gated as ABSOLUTE ceilings: the committed baseline value
#: IS the ceiling, and a fresh value above it fails outright — no tolerance
#: band in either direction, because "30% more membership leakage" is not a
#: perf regression to wave through, it is the privacy contract breaking.
#: The ceilings here are the smoke-job backstop and are WIDER than the
#: per-seed ceilings in tests/test_privacy_acceptance.py (the tight gate,
#: which runs in tier-1 on every leg): the smoke job runs at 1k records,
#: where 400-member attack populations quantize the metrics coarsely.
#: Derivation and protocol: docs/privacy.md.  ``extract`` re-pins these
#: from the constants below, never from a measured run.
CEILINGS = {
    "privacy.mia_auc": 0.62,
    "privacy.attr_advantage": 0.15,
}

#: metric name -> (benchmark test name, path inside extra_info.result) for
#: the ceiling-gated leakage metrics.
CEILING_RESULT_METRICS = {
    "privacy.mia_auc": ("test_privacy_frontier", ("gates", "mia_auc_worst")),
    "privacy.attr_advantage": ("test_privacy_frontier", ("gates", "attr_advantage_worst")),
}

#: Absolute-throughput metrics depend on the machine the baseline was pinned
#: on, so they get a wider tolerance band than same-run ratios: the gate
#: should catch "the fast kernel stopped being default"-size regressions
#: without failing on runner-generation drift.  Ratios (speedups) and RSS
#: are machine-stable and keep the tight band.
ABSOLUTE_TOLERANCE_MULTIPLIER = 5 / 3  # 30% -> 50%


def _is_absolute(metric: str) -> bool:
    return (
        metric.endswith("records_per_second")
        or metric.endswith("queries_per_second")
        or metric.endswith("_ms")
    )

#: Every benchmark contributes its harness peak RSS as a lower-is-better gate.
RSS_METRIC_PREFIX = "peak_rss_bytes."


def _dig(payload, path):
    for key in path:
        if not isinstance(payload, dict) or key not in payload:
            return None
        payload = payload[key]
    return payload


def extract_metrics(bench_json: dict) -> dict:
    """The gated metrics of one pytest-benchmark JSON, as name -> value."""
    metrics = {}
    for bench in bench_json.get("benchmarks", []):
        name = bench.get("name", "")
        extra = bench.get("extra_info", {}) or {}
        result = extra.get("result", {}) or {}
        for metric, (test_name, path, _) in GATED_RESULT_METRICS.items():
            if test_name in name:
                value = _dig(result, path)
                if isinstance(value, (int, float)) and value == value:
                    metrics[metric] = float(value)
        for metric, (test_name, path) in CEILING_RESULT_METRICS.items():
            if test_name in name:
                value = _dig(result, path)
                if isinstance(value, (int, float)) and value == value:
                    metrics[metric] = float(value)
        rss = extra.get("peak_rss_bytes")
        if isinstance(rss, (int, float)) and rss > 0:
            metrics[RSS_METRIC_PREFIX + name.split("[")[0]] = float(rss)
    return metrics


def _direction(metric: str) -> str:
    if metric.startswith(RSS_METRIC_PREFIX):
        return "lower"
    if metric in CEILING_RESULT_METRICS:
        return "ceiling"
    return GATED_RESULT_METRICS[metric][2]


def compare(baseline: dict, fresh: dict, tolerance: float) -> int:
    """Print a metric-by-metric report; return the number of regressions."""
    base_metrics = baseline["metrics"]
    regressions = 0
    for metric in sorted(set(base_metrics) | set(fresh)):
        old = base_metrics.get(metric)
        new = fresh.get(metric)
        if old is None or new is None:
            side = "fresh run" if old is None else "baseline"
            print(f"[bench-compare]   ~  {metric}: only in the {side}; skipped")
            continue
        direction = _direction(metric)
        if direction == "ceiling":
            # Absolute leakage gate: the baseline IS the committed ceiling.
            bad = new > old
            flag = "FAIL" if bad else "ok"
            print(
                f"[bench-compare] {flag:>4s} {metric}: measured {new:.4g} vs "
                f"committed ceiling {old:.4g} (absolute; see docs/privacy.md)"
            )
            regressions += bad
            continue
        if old <= 0:
            print(f"[bench-compare] ~ {metric}: non-positive baseline {old}; skipped")
            continue
        band = tolerance * (ABSOLUTE_TOLERANCE_MULTIPLIER if _is_absolute(metric) else 1)
        change = (new - old) / old
        bad = change < -band if direction == "higher" else change > band
        flag = "FAIL" if bad else "ok"
        print(
            f"[bench-compare] {flag:>4s} {metric}: baseline {old:.4g} -> {new:.4g} "
            f"({change:+.1%}, {direction} is better, tolerance {band:.0%})"
        )
        regressions += bad
    return regressions


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("extract", help="distill a baseline from a smoke JSON")
    ex.add_argument("bench_json")
    ex.add_argument("-o", "--output", default=None)

    cp = sub.add_parser("compare", help="gate a smoke JSON against a baseline")
    cp.add_argument("baseline_json")
    cp.add_argument("bench_json")
    cp.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("REPRO_BENCH_COMPARE_TOLERANCE", DEFAULT_TOLERANCE)),
    )
    args = parser.parse_args(argv)

    if args.command == "extract":
        metrics = extract_metrics(_load(args.bench_json))
        if not metrics:
            print("no gated metrics found; is this a --benchmark-json file?")
            return 1
        # Ceiling metrics re-pin from the committed constants, never from a
        # measured run: re-pinning a perf baseline must not quietly loosen
        # (or tighten) the privacy contract.
        for metric in CEILING_RESULT_METRICS:
            if metric in metrics:
                metrics[metric] = CEILINGS[metric]
        payload = {
            "format": "repro-bench-baseline",
            "version": 1,
            "source": os.path.basename(args.bench_json),
            "metrics": metrics,
        }
        text = json.dumps(payload, indent=2, sort_keys=True)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
            print(f"wrote {args.output} ({len(metrics)} metrics)")
        else:
            print(text)
        return 0

    baseline = _load(args.baseline_json)
    if baseline.get("format") != "repro-bench-baseline":
        print(f"{args.baseline_json} is not a bench baseline file")
        return 1
    fresh = extract_metrics(_load(args.bench_json))
    regressions = compare(baseline, fresh, args.tolerance)
    if regressions:
        print(
            f"[bench-compare] {regressions} gated metric(s) failed — perf outside the "
            f"{args.tolerance:.0%} tolerance band, or leakage above an absolute privacy "
            f"ceiling (docs/privacy.md).  If a perf change is intentional, re-pin with: "
            f"python benchmarks/compare_baselines.py extract <smoke.json> "
            f"-o benchmarks/baselines/bench-smoke-baseline.json  (ceilings re-pin from "
            f"the committed constants, never from measurements)"
        )
        return 1
    print("[bench-compare] all gated metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
