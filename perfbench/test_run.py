#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/test_run.py

Runs every workload of `BENCHMARK.json` once at `--tiny` size, timed and
traced, and checks that each run prints every metric the spec names with
its unit, that no correctness check fails, and that the layers each
workload exercises report nonzero values.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per-layer metrics that must be nonzero on a workload's traced run.
EXERCISED = {
    "verdicts": [f"bench.e{i}_s" for i in range(1, 16)] + [
        "core.search_s", "core.search_assignments", "fairness.waterfill_calls",
        "lp.simplex_pivots", "graph.matching_calls", "graph.coloring_calls",
        "churn.epoch_s", "verdicts.trace_overhead", "verdicts.threads",
    ],
    "churn-bulk": [
        "churn.apply_ns", "churn.flush_us_p50", "churn.flush_us_p90",
        "churn.recomputed_per_epoch", "churn.dirty_links_per_epoch",
        "churn.flush_vs_full", "fairness.full_recompute_us", "fairness.waterfill_calls",
    ],
}
EXERCISED["churn-fresh"] = EXERCISED["churn-bulk"] + ["churn.reuse_frac"]


def run_bench(workload, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    return json.loads(out.stdout.strip().splitlines()[-1])


class BenchmarkSelfTest(unittest.TestCase):
    def check_report(self, report, wanted):
        self.assertEqual(set(report), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(report["attempted"], 1)
        self.assertEqual(report["failed"], 0)
        self.assertIs(report["correct"], True)
        self.assertEqual(set(report["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            self.assertEqual(report["metrics"][m["name"]]["unit"], m["unit"], m["name"])

    def test_every_workload(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload, trace=0):
                report = run_bench(workload, 0)
                self.check_report(report, SPEC["end_to_end"])
                for name, metric in report["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
            with self.subTest(workload=workload, trace=1):
                report = run_bench(workload, 1)
                self.check_report(report, SPEC["per_layer"])
                for name in EXERCISED[workload]:
                    self.assertGreater(report["metrics"][name]["value"], 0, name)


if __name__ == "__main__":
    unittest.main()
