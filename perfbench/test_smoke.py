#!/usr/bin/env python3
"""The benchmark's own tests, on tiny inputs (--smoke).

    python3 perfbench/test_smoke.py     # from the repository root

For every workload, a trace-0 run must print exactly the end-to-end metrics
of BENCHMARK.json and a trace-1 run exactly the per-layer metrics, each with
its declared unit, with every check passing; and a run whose reference bill
is deliberately perturbed (--perturb-bill) must report failed operations.
"""

import json
import os
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# Every workload the binary runs, including the two BENCHMARK.json leaves
# out (see README.md), so none of them rots.
WORKLOADS = ["plan-greedy", "plan-minicost", "replan-serve", "train-a3c"]


def run(workload, trace, *extra):
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
               "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--smoke", *extra]
    result = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                            timeout=600)
    lines = result.stdout.strip().splitlines()
    if not lines:
        raise AssertionError("no output; stderr:\n" + result.stderr[-4000:])
    return result.returncode, json.loads(lines[-1]), json.loads(lines[-2])


class SmokeTest(unittest.TestCase):
    def check_metrics(self, workload, trace, kind):
        code, result, context = run(workload, trace)
        self.assertEqual(code, 0, result)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(printed, expected)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
        self.assertIn("threads", context)
        self.assertIn("nproc", context)

    def test_benchmark_workloads_exist(self):
        for workload in SPEC["workloads"]:
            self.assertIn(workload["name"], WORKLOADS)

    def test_metrics_and_units(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                self.check_metrics(workload, 0, "end_to_end")
            with self.subTest(workload=workload, trace=1):
                self.check_metrics(workload, 1, "per_layer")

    def test_perturbed_bill_fails(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    code, result, _ = run(workload, trace, "--perturb-bill")
                    self.assertEqual(code, 1)
                    self.assertFalse(result["correct"])
                    self.assertGreaterEqual(result["failed"], 1)

    def test_usage_error(self):
        result = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"),
             "--workload", "no-such-workload", "--seed", "1", "--seconds",
             "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        self.assertEqual(result.returncode, 2)
        self.assertEqual(result.stdout, "")


if __name__ == "__main__":
    unittest.main()
