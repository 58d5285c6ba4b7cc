"""Self-tests of the benchmark harness (no program source needed).

    python3 perfbench/test_harness.py
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
import unittest
from pathlib import Path

from harness import (
    Outcome,
    Spans,
    live_children,
    metric,
    result_line,
    stats_delta,
    stop_children,
    summarize_latencies,
)


class LatencySummaryTest(unittest.TestCase):
    def test_median_tail_and_count(self):
        summary = summarize_latencies([ms / 1000.0 for ms in range(1, 1001)])
        self.assertEqual(summary["n"], 1000)
        self.assertEqual(summary["p50_ms"], 500.0)
        self.assertEqual(summary["tail_pct"], 99.0)
        self.assertEqual(summary["tail_ms"], 990.0)
        self.assertEqual(summary["beyond"], 10)

    def test_tail_needs_ten_samples_beyond(self):
        # 999 samples leave only 9 beyond p99, so p95 is the reported tail.
        summary = summarize_latencies([ms / 1000.0 for ms in range(1, 1000)])
        self.assertEqual(summary["tail_pct"], 95.0)
        self.assertGreaterEqual(summary["beyond"], 10)

    def test_too_few_samples_report_the_maximum(self):
        summary = summarize_latencies([0.003, 0.001, 0.002])
        self.assertIsNone(summary["tail_pct"])
        self.assertEqual(summary["tail_ms"], 3.0)
        self.assertEqual(summary["p50_ms"], 2.0)

    def test_failures_are_attempted_and_miss_every_limit(self):
        summary = summarize_latencies([0.001] * 9, failed=11)
        self.assertEqual(summary["n"], 20)
        self.assertTrue(math.isinf(summary["p50_ms"]))
        # A missed limit still renders as a finite, valid JSON number.
        self.assertEqual(json.loads(json.dumps(metric(summary["p50_ms"], "ms")))["value"], 1e12)

    def test_failed_operations_fail_the_result(self):
        outcome = Outcome()
        outcome.check(True, "fine")
        outcome.check(False, "refused")
        line = json.loads(result_line(outcome, {}))
        self.assertEqual((line["attempted"], line["failed"]), (2, 1))
        self.assertFalse(line["correct"])
        self.assertEqual(outcome.reasons, ["refused"])


class StatsDeltaTest(unittest.TestCase):
    def snapshot(self, hits, misses, batches, batched, shed=0, faults=0, requests=0):
        return {
            "requests": requests,
            "cache": {"hits": hits, "misses": misses, "entries": 7},
            "batcher": {"batches": batches, "batched_queries": batched,
                        "mean_batch_size": batched / batches if batches else 0.0},
            "reliability": {"shed": shed, "engine_faults": faults},
        }

    def test_delta_between_snapshots(self):
        before = self.snapshot(100, 50, 10, 40, shed=1, requests=150)
        after = self.snapshot(190, 60, 15, 50, shed=3, faults=2, requests=250)
        delta = stats_delta(before, after)
        self.assertEqual(delta["requests"], 100)
        self.assertEqual((delta["cache_hits"], delta["cache_misses"]), (90, 10))
        self.assertAlmostEqual(delta["cache_hit_ratio"], 0.9)
        # The batch size of the window, not the lifetime mean (4.0 -> 3.33).
        self.assertEqual((delta["batches"], delta["batched_queries"]), (5, 10))
        self.assertAlmostEqual(delta["mean_batch_size"], 2.0)
        self.assertEqual((delta["shed"], delta["engine_faults"]), (2, 2))

    def test_idle_window_has_zero_ratios(self):
        same = self.snapshot(5, 5, 2, 2)
        delta = stats_delta(same, same)
        self.assertEqual(delta["cache_hit_ratio"], 0.0)
        self.assertEqual(delta["mean_batch_size"], 0.0)


class SpansTest(unittest.TestCase):
    def test_window_filter_and_round_trip(self):
        spans = Spans()
        spans.add("a", 1.0, 0.5)
        spans.add("a", 5.0, 0.25)
        spans.count("n", 3)
        self.assertEqual(spans.seconds("a", 2.0, 6.0), [0.25])
        again = Spans.from_json(json.loads(json.dumps(spans.to_json())))
        self.assertEqual(again.total("a"), 0.75)
        self.assertEqual(again.counts["n"], 3)

    def test_forked_worker_spans_spool_back(self):
        with tempfile.TemporaryDirectory() as tmp:
            spans = Spans(spool_dir=Path(tmp))
            pid = os.fork()
            if pid == 0:  # the worker: records go to its spool file
                spans.add("release.gum_s", 0.0, 0.125)
                spans.extend("gum.step_s", [0.001, 0.002])
                spans.count("gum.runs")
                os._exit(0)
            _, status = os.waitpid(pid, 0)
            self.assertEqual(status, 0)
            self.assertEqual(spans.total("release.gum_s"), 0.0)
            spans.collect()
            self.assertEqual(spans.total("release.gum_s"), 0.125)
            self.assertEqual(sorted(spans.seconds("gum.step_s")), [0.001, 0.002])
            self.assertEqual(spans.counts["gum.runs"], 1)
            self.assertEqual(list(Path(tmp).iterdir()), [])


class StopChildrenTest(unittest.TestCase):
    def test_tracker_and_stray_children_are_reaped(self):
        from multiprocessing import resource_tracker, shared_memory

        segment = shared_memory.SharedMemory(create=True, size=64)  # starts the tracker
        segment.close()
        segment.unlink()
        tracker = resource_tracker._resource_tracker._pid
        self.assertIsNotNone(tracker)
        stray = os.fork()
        if stray == 0:  # a child that would outlive the run
            time.sleep(60)
            os._exit(0)
        stop_children()
        self.assertEqual(live_children(), [])
        for pid in (tracker, stray):
            with self.assertRaises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)


if __name__ == "__main__":
    unittest.main()
