#!/usr/bin/env python3
"""Self-test of the repo benchmark.

    python3 perfbench/tests/test_perfbench.py

Run from the root of a source checkout. Checks that
  * the generators are deterministic: the same seed gives the same
    automaton list, query lists, key set and schedule, and another seed
    gives different ones;
  * every metric BENCHMARK.json names is printed with its unit: each
    workload's last line carries exactly the end-to-end metrics with
    --trace 0 and exactly the per-layer metrics with --trace 1, with the
    units BENCHMARK.json records, and reports a correct run.
The second check runs every workload twice at BENCHMARK.json's
run_seconds (a few minutes in all); the first builds the benchmark if
needed.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(SPEC["command"] + list(args), cwd=ROOT,
                          capture_output=True, text=True, timeout=900)


def dump_inputs(workload: str, seed: int) -> str:
    p = run("--workload", workload, "--seed", str(seed), "--seconds",
            str(SPEC["run_seconds"]), "--trace", "0", "--dump-inputs")
    if p.returncode != 0:
        raise AssertionError(p.stderr[-2000:])
    return p.stdout


class GeneratorsAreSeeded(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = dump_inputs(workload, 7)
                self.assertTrue(first.strip())
                self.assertEqual(first, dump_inputs(workload, 7))
                self.assertNotEqual(first, dump_inputs(workload, 8))


class EveryMetricIsPrinted(unittest.TestCase):
    def check(self, workload: str, trace: int, expected: list) -> None:
        p = run("--workload", workload, "--seed", "3", "--seconds",
                str(SPEC["run_seconds"]), "--trace", str(trace))
        self.assertEqual(p.returncode, 0, p.stderr[-2000:])
        result = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in expected}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, v in result["metrics"].items():
            self.assertIsInstance(v["value"], (int, float), name)

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 1, SPEC["per_layer"])


if __name__ == "__main__":
    sys.exit(unittest.main())
