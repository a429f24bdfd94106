#!/usr/bin/env python3
"""Fast self-tests of the benchmark, on small_suite.

    python3 perfbench/test_bench.py

Builds the benchmark program like run.py does, then checks that the printed
metric names and units are exactly those of BENCHMARK.json, that a changed
seed changes the inputs but not the metric names, that every correctness
check fires on a deliberately mismatched cell, and that the benchmark
refuses to run without the library sources.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import run as bench_run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0.2", "--trace", str(trace), "--suite", "small"]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)
    return proc, proc.stdout.splitlines()


class BenchSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = bench_run.build()

    def test_metric_names_and_units_match_benchmark_json(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc, lines = run_bench(workload, 3, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
                    want = [(m["name"], m["unit"]) for m in SPEC[section]]
                    self.assertEqual(got, want)

    def test_seed_changes_inputs_not_metric_names(self):
        seen = {}
        for seed in (1, 2):
            proc, lines = run_bench("queue_fit", seed, 0)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            inputs = [line for line in lines if line.startswith("inputs ")]
            seen[seed] = (inputs, set(json.loads(lines[-1])["metrics"]))
        self.assertEqual(len(seen[1][0]), 1)
        self.assertNotEqual(seen[1][0], seen[2][0])
        self.assertEqual(seen[1][1], seen[2][1])

    def test_checks_fire_on_mismatched_cells(self):
        proc = subprocess.run([str(self.binary), "--selftest"], stdout=subprocess.PIPE,
                              text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("selftest passed", proc.stdout)
        self.assertNotIn("FAIL", proc.stdout)

    def test_refuses_to_run_without_library_sources(self):
        with tempfile.TemporaryDirectory(dir=bench_run.build_dir().parent) as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH_DIR, Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc, lines = run_bench("queue_fit", 1, 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertFalse(any(line.startswith("{") for line in lines))


if __name__ == "__main__":
    unittest.main()
