#!/usr/bin/env python3
"""The benchmark's own tests, at a tiny scale.

    python3 casperbench/test_casperbench.py

- Every workload, untraced and traced, prints every metric named in
  BENCHMARK.json with its unit, in the table and in the JSON line, and
  passes its checks.
- Two planted defects fail the run: a channel that drops the true
  nearest target from NN answers trips the inclusiveness check, and
  cloaks shrunk below A_min trip the (k, A_min) census.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["lunch_nn", "rush_hour_sync", "sharded_churn"]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


CHECKS = re.compile(
    r"nn_inclusiveness (\d+) checked / (\d+) violations; "
    r"region_per_user (\d+) / (\d+); census\(k, A_min\) (\d+) / (\d+)")


def checks(stdout):
    """(nn checked, nn violations, region checked, region violations,
    census checked, census violations) from the run's checks line."""
    return tuple(int(g) for g in CHECKS.search(stdout).groups())


def run(workload, trace=0, plant="none", seed=3):
    args = [sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--scale", "0.02", "--plant", plant]
    result = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                            timeout=600)
    lines = result.stdout.strip().splitlines()
    return result.returncode, result.stdout, json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    def check_metrics(self, workload, trace, key):
        code, stdout, result = run(workload, trace=trace)
        self.assertEqual(code, 0, stdout)
        self.assertTrue(result["correct"], stdout)
        self.assertEqual(result["failed"], 0, stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        nn, nn_bad, _, region_bad, census, census_bad = checks(stdout)
        self.assertGreater(nn, 0)
        self.assertGreater(census, 0)
        self.assertEqual((nn_bad, region_bad, census_bad), (0, 0, 0))
        expected = {m["name"]: m["unit"] for m in spec()[key]}
        self.assertEqual(set(result["metrics"]), set(expected))
        table = stdout.splitlines()
        for name, unit in expected.items():
            self.assertEqual(result["metrics"][name]["unit"], unit)
            self.assertIsInstance(result["metrics"][name]["value"],
                                  (int, float))
            self.assertTrue(
                any(line.split()[:1] == [name] and line.endswith(" " + unit)
                    for line in table),
                "%s (%s) missing from the %s table" % (name, unit, workload))
        return stdout

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_metrics(workload, 0, "end_to_end")

    def test_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                stdout = self.check_metrics(workload, 1, "per_layer")
                self.assertIn("query.residual_us", stdout)
                self.assertIn("trace.overhead_pct", stdout)


class PlantedDefectTest(unittest.TestCase):
    def test_dropped_nearest_trips_inclusiveness(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, stdout, result = run(workload, plant="drop_nearest")
                self.assertNotEqual(code, 0, stdout)
                self.assertFalse(result["correct"])
                self.assertGreater(checks(stdout)[1], 0, stdout)

    def test_small_cloak_trips_census(self):
        code, stdout, result = run("lunch_nn", plant="small_cloak")
        self.assertNotEqual(code, 0, stdout)
        self.assertFalse(result["correct"])
        self.assertGreater(checks(stdout)[5], 0, stdout)


if __name__ == "__main__":
    unittest.main()
