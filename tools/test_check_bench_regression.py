#!/usr/bin/env python3
"""Unit tests for check_bench_regression.py (run by CTest / CI).

Covers the gate's verdicts and — the regression this guards — that a
baseline predating the current JSON schema degrades to a clear
"missing field ... regenerate" failure instead of a KeyError traceback.
"""

import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench_regression as gate  # noqa: E402


def bench_json(cached_lps=100.0, identical=True, workers=1, hardware=1,
               parallel_speedup=1.0, parallel_identical=True, verify_checked=48,
               verify_violations=0, mii_identical=True, mii_consistent=True,
               mii_optimal=40):
    return {
        "results_identical": identical,
        "parallel_results_identical": parallel_identical,
        "mii_optimal_identical": mii_identical,
        "workers": workers,
        "hardware_threads": hardware,
        "fingerprint": "acac708db670f08d",
        "cache_speedup": 5.0,
        "parallel_speedup": parallel_speedup,
        "uncached": {
            "sched_memo_probes": 0,
            "sched_memo_hits": 0,
            "mii_optimal_ii_consistent": mii_consistent,
            "verify_checked": verify_checked,
            "verify_violations": verify_violations,
        },
        "cached": {
            "loops_per_second": cached_lps,
            "unroll_probe_naive_fallbacks": 0,
            "verify_checked": verify_checked,
            "verify_violations": verify_violations,
            "sched_mii_optimal": mii_optimal,
            "sched_memo_probes": 24,
            "sched_memo_hits": 8,
            "mii_optimal_ii_consistent": mii_consistent,
        },
    }


def run_gate(baseline, fresh, tolerance=0.30):
    out = io.StringIO()
    with redirect_stdout(out):
        code = gate.run(baseline, fresh, tolerance)
    return code, out.getvalue()


class GateVerdicts(unittest.TestCase):
    def test_healthy_run_passes(self):
        code, out = run_gate(bench_json(), bench_json())
        self.assertEqual(code, 0, out)
        self.assertIn("OK: cached loops/sec", out)

    def test_results_not_identical_fails(self):
        code, out = run_gate(bench_json(), bench_json(identical=False))
        self.assertEqual(code, 1)
        self.assertIn("results_identical", out)

    def test_topology_fields_tolerated(self):
        baseline = bench_json()
        fresh = bench_json()
        for doc in (baseline, fresh):
            doc["topology"] = "mesh"
            doc["clusters"] = 9
        code, out = run_gate(baseline, fresh)
        self.assertEqual(code, 0, out)

    def test_topology_mismatch_fails(self):
        fresh = bench_json()
        fresh["topology"] = "mesh"
        fresh["clusters"] = 9
        code, out = run_gate(bench_json(), fresh)
        self.assertEqual(code, 1)
        self.assertIn("ring-4", out)
        self.assertIn("mesh-9", out)

    def test_baseline_without_topology_fields_is_ring4(self):
        fresh = bench_json()
        fresh["topology"] = "ring"
        fresh["clusters"] = 4
        code, out = run_gate(bench_json(), fresh)
        self.assertEqual(code, 0, out)

    def test_verify_violations_fail(self):
        code, out = run_gate(bench_json(), bench_json(verify_violations=2))
        self.assertEqual(code, 1)
        self.assertIn("legality", out)
        self.assertIn("violation", out)

    def test_verify_nothing_checked_fails(self):
        code, out = run_gate(bench_json(), bench_json(verify_checked=0))
        self.assertEqual(code, 1)
        self.assertIn("verify_checked == 0", out)

    def test_fresh_missing_verify_counters_fails(self):
        fresh = bench_json()
        del fresh["cached"]["verify_checked"]
        code, out = run_gate(bench_json(), fresh)
        self.assertEqual(code, 1)
        self.assertIn("fresh missing field cached.verify_checked", out)

    def test_cached_only_violations_fail(self):
        fresh = bench_json()
        fresh["cached"]["verify_violations"] = 1
        code, out = run_gate(bench_json(), fresh)
        self.assertEqual(code, 1)
        self.assertIn("cached run reports 1 legality", out)

    def test_throughput_regression_fails(self):
        code, out = run_gate(bench_json(cached_lps=100.0), bench_json(cached_lps=60.0))
        self.assertEqual(code, 1)
        self.assertIn("FAIL: cached loops/sec", out)

    def test_jitter_within_tolerance_passes(self):
        code, out = run_gate(bench_json(cached_lps=100.0), bench_json(cached_lps=80.0))
        self.assertEqual(code, 0, out)


class SchedTelemetryVerdicts(unittest.TestCase):
    """The scheduling-search gates: memo counters, MII-optimality bits."""

    def test_mii_optimal_divergence_fails(self):
        code, out = run_gate(bench_json(), bench_json(mii_identical=False))
        self.assertEqual(code, 1)
        self.assertIn("mii_optimal_identical", out)

    def test_fresh_missing_mii_identity_fails(self):
        fresh = bench_json()
        del fresh["mii_optimal_identical"]
        code, out = run_gate(bench_json(), fresh)
        self.assertEqual(code, 1)
        self.assertIn("fresh missing field mii_optimal_identical", out)

    def test_fresh_missing_sched_memo_counters_fails(self):
        fresh = bench_json()
        del fresh["cached"]["sched_memo_probes"]
        code, out = run_gate(bench_json(), fresh)
        self.assertEqual(code, 1)
        self.assertIn("fresh missing field cached.sched_memo_probes", out)

    def test_inconsistent_mii_bit_fails(self):
        code, out = run_gate(bench_json(), bench_json(mii_consistent=False))
        self.assertEqual(code, 1)
        self.assertIn("mii_optimal_ii_consistent", out)

    def test_mii_optimal_regression_fails(self):
        code, out = run_gate(bench_json(mii_optimal=40), bench_json(mii_optimal=30))
        self.assertEqual(code, 1)
        self.assertIn("FAIL: MII-optimal schedules 30 vs baseline 40", out)

    def test_mii_optimal_improvement_passes(self):
        code, out = run_gate(bench_json(mii_optimal=40), bench_json(mii_optimal=55))
        self.assertEqual(code, 0, out)
        self.assertIn("OK: MII-optimal schedules 55 vs baseline 40", out)

    def test_baseline_without_sched_telemetry_skips_with_info(self):
        baseline = bench_json()
        del baseline["cached"]["sched_mii_optimal"]
        code, out = run_gate(baseline, bench_json())
        self.assertEqual(code, 0, out)
        self.assertIn("sched_mii_optimal gate skipped", out)


def with_stages(bench, uncached_stages=None, cached_stages=None):
    """Returns `bench` with stage_seconds sections attached."""
    bench["uncached"]["stage_seconds"] = dict(
        uncached_stages
        if uncached_stages is not None
        else {"invariants": 0.1, "unroll": 0.3, "copy_insert": 1.0,
              "schedule": 0.8, "queue_alloc": 0.4, "sim": 0.2, "verify": 0.9}
    )
    bench["cached"]["stage_seconds"] = dict(
        cached_stages if cached_stages is not None else {"schedule": 0.5, "verify": 0.3}
    )
    return bench


class StageGates(unittest.TestCase):
    """The per-stage wall-time gates over STAGE_GATES."""

    def test_equal_stage_times_pass(self):
        code, out = run_gate(with_stages(bench_json()), with_stages(bench_json()))
        self.assertEqual(code, 0, out)
        self.assertIn("OK: uncached copy_insert stage", out)
        self.assertIn("OK: cached verify stage", out)

    def test_cold_copy_insert_regression_fails(self):
        fresh = with_stages(bench_json())
        fresh["uncached"]["stage_seconds"]["copy_insert"] = 2.0
        code, out = run_gate(with_stages(bench_json()), fresh)
        self.assertEqual(code, 1)
        self.assertIn("FAIL: uncached copy_insert stage", out)

    def test_cached_verify_regression_fails(self):
        fresh = with_stages(bench_json())
        fresh["cached"]["stage_seconds"]["verify"] = 0.9
        code, out = run_gate(with_stages(bench_json()), fresh)
        self.assertEqual(code, 1)
        self.assertIn("FAIL: cached verify stage", out)

    def test_stage_jitter_within_tolerance_passes(self):
        fresh = with_stages(bench_json())
        fresh["uncached"]["stage_seconds"]["schedule"] = 1.1  # base 0.8, ceiling 1.25
        code, out = run_gate(with_stages(bench_json()), fresh)
        self.assertEqual(code, 0, out)

    def test_tiny_stage_absorbed_by_absolute_slack(self):
        # 3x relative growth on a 10ms stage stays under the absolute slack.
        base = with_stages(bench_json(), cached_stages={"verify": 0.01})
        fresh = with_stages(bench_json(), cached_stages={"verify": 0.03})
        code, out = run_gate(base, fresh)
        self.assertEqual(code, 0, out)

    def test_baseline_without_stage_seconds_skips_with_info(self):
        # Pre-stage-gate baselines must not fail; the gate stays disarmed.
        code, out = run_gate(bench_json(), with_stages(bench_json()))
        self.assertEqual(code, 0, out)
        self.assertIn("stage gate uncached.copy_insert skipped", out)

    def test_fresh_without_stage_seconds_fails(self):
        fresh = bench_json()  # has the memo counters but no stage_seconds
        code, out = run_gate(with_stages(bench_json()), fresh)
        self.assertEqual(code, 1)
        self.assertIn("fresh missing field uncached.stage_seconds", out)

    def test_cached_schedule_stage_regression_fails(self):
        base = with_stages(bench_json(), cached_stages={"schedule": 0.2})
        fresh = with_stages(bench_json(), cached_stages={"schedule": 0.9})
        code, out = run_gate(base, fresh)
        self.assertEqual(code, 1)
        self.assertIn("FAIL: cached schedule stage", out)

    def test_stage_absent_from_fresh_counts_as_zero(self):
        # A stage that never ran took no time.
        fresh = with_stages(bench_json(), cached_stages={"schedule": 0.5})
        code, out = run_gate(with_stages(bench_json()), fresh)
        self.assertEqual(code, 0, out)
        self.assertIn("OK: cached verify stage 0.000s", out)

    def test_custom_stage_tolerance_applies(self):
        base = with_stages(bench_json())
        fresh = with_stages(bench_json())
        fresh["uncached"]["stage_seconds"]["queue_alloc"] = 0.5  # base 0.4
        out = io.StringIO()
        with redirect_stdout(out):
            code = gate.run(base, fresh, 0.30, 1.5, None, 0.10)
        self.assertEqual(code, 1, out.getvalue())
        self.assertIn("FAIL: uncached queue_alloc stage", out.getvalue())


def scaling_json(identical=True, speedup=2.0, hardware=4, counts=(1, 2, 4)):
    return {
        "bench": "sweep_scaling",
        "hardware_threads": hardware,
        "counts": [
            {"workers": w, "loops_per_second": 100.0 * (w if identical else 1),
             "fingerprint": "abc", "identical": identical or w == 1}
            for w in counts
        ],
        "parallel_speedup": speedup,
        "scaling_results_identical": identical,
    }


class ParallelVerdicts(unittest.TestCase):
    """The threading gates: identity unconditionally, speedup on 2+ cores."""

    def test_parallel_divergence_fails(self):
        code, out = run_gate(bench_json(), bench_json(parallel_identical=False))
        self.assertEqual(code, 1)
        self.assertIn("parallel_results_identical", out)

    def test_fresh_missing_parallel_identity_fails(self):
        fresh = bench_json()
        del fresh["parallel_results_identical"]
        code, out = run_gate(bench_json(), fresh)
        self.assertEqual(code, 1)
        self.assertIn("fresh missing field parallel_results_identical", out)

    def test_fresh_missing_workers_fails(self):
        fresh = bench_json()
        del fresh["workers"]
        code, out = run_gate(bench_json(), fresh)
        self.assertEqual(code, 1)
        self.assertIn("fresh missing field workers", out)

    def test_low_speedup_on_multicore_fails(self):
        fresh = bench_json(workers=4, hardware=4, parallel_speedup=1.1)
        code, out = run_gate(bench_json(), fresh)
        self.assertEqual(code, 1)
        self.assertIn("FAIL: parallel speedup", out)

    def test_healthy_speedup_on_multicore_passes(self):
        fresh = bench_json(workers=4, hardware=4, parallel_speedup=2.7)
        code, out = run_gate(bench_json(), fresh)
        self.assertEqual(code, 0, out)
        self.assertIn("OK: parallel speedup", out)

    def test_single_core_skips_speedup_floor(self):
        # Oversubscribed workers on one hardware thread cannot speed up;
        # the floor must not fire (the identity checks still apply).
        fresh = bench_json(workers=4, hardware=1, parallel_speedup=0.9)
        code, out = run_gate(bench_json(), fresh)
        self.assertEqual(code, 0, out)
        self.assertIn("speedup floor skipped", out)

    def test_serial_run_skips_speedup_floor(self):
        code, out = run_gate(bench_json(), bench_json(workers=1, hardware=8))
        self.assertEqual(code, 0, out)
        self.assertIn("speedup floor skipped", out)


class ScalingVerdicts(unittest.TestCase):
    def run_scaling(self, scaling, floor=1.5):
        out = io.StringIO()
        with redirect_stdout(out):
            code = gate.run(bench_json(), bench_json(), 0.30, floor, scaling)
        return code, out.getvalue()

    def test_healthy_scaling_passes(self):
        code, out = self.run_scaling(scaling_json())
        self.assertEqual(code, 0, out)
        self.assertIn("OK: scaling parallel speedup", out)

    def test_divergent_fingerprint_fails(self):
        code, out = self.run_scaling(scaling_json(identical=False))
        self.assertEqual(code, 1)
        self.assertIn("scaling_results_identical", out)

    def test_divergent_count_entry_fails(self):
        scaling = scaling_json()
        scaling["counts"][1]["identical"] = False
        code, out = self.run_scaling(scaling)
        self.assertEqual(code, 1)
        self.assertIn("workers=2", out)

    def test_low_scaling_speedup_fails_on_multicore(self):
        code, out = self.run_scaling(scaling_json(speedup=1.2))
        self.assertEqual(code, 1)
        self.assertIn("FAIL: scaling parallel speedup", out)

    def test_single_core_scaling_skips_floor(self):
        code, out = self.run_scaling(scaling_json(speedup=0.9, hardware=1))
        self.assertEqual(code, 0, out)
        self.assertIn("scaling speedup floor skipped", out)

    def test_scaling_missing_counts_fails(self):
        scaling = scaling_json()
        del scaling["counts"]
        code, out = self.run_scaling(scaling)
        self.assertEqual(code, 1)
        self.assertIn("scaling missing field counts", out)


class StaleSchemas(unittest.TestCase):
    """Baselines predating a schema change must fail clearly, not crash."""

    def test_baseline_missing_cached_section(self):
        baseline = bench_json()
        del baseline["cached"]
        code, out = run_gate(baseline, bench_json())
        self.assertEqual(code, 1)
        self.assertIn("baseline missing field cached", out)
        self.assertIn("regenerate", out)

    def test_baseline_missing_loops_per_second(self):
        baseline = bench_json()
        del baseline["cached"]["loops_per_second"]
        code, out = run_gate(baseline, bench_json())
        self.assertEqual(code, 1)
        self.assertIn("baseline missing field cached.loops_per_second", out)

    def test_fresh_missing_field_named_as_fresh(self):
        fresh = bench_json()
        del fresh["cached"]
        code, out = run_gate(bench_json(), fresh)
        self.assertEqual(code, 1)
        self.assertIn("fresh missing field cached", out)


class MainEntry(unittest.TestCase):
    def test_main_reports_schema_error_cleanly(self):
        with tempfile.TemporaryDirectory() as tmp:
            base_path = os.path.join(tmp, "base.json")
            fresh_path = os.path.join(tmp, "fresh.json")
            stale = bench_json()
            del stale["cached"]
            with open(base_path, "w", encoding="utf-8") as f:
                json.dump(stale, f)
            with open(fresh_path, "w", encoding="utf-8") as f:
                json.dump(bench_json(), f)
            out = io.StringIO()
            with redirect_stdout(out):
                code = gate.main([base_path, fresh_path])
            self.assertEqual(code, 1)
            self.assertIn("FAIL: baseline missing field", out.getvalue())

    def test_main_gates_scaling_file(self):
        with tempfile.TemporaryDirectory() as tmp:
            base_path = os.path.join(tmp, "base.json")
            fresh_path = os.path.join(tmp, "fresh.json")
            scaling_path = os.path.join(tmp, "scaling.json")
            with open(base_path, "w", encoding="utf-8") as f:
                json.dump(bench_json(), f)
            with open(fresh_path, "w", encoding="utf-8") as f:
                json.dump(bench_json(), f)
            with open(scaling_path, "w", encoding="utf-8") as f:
                json.dump(scaling_json(identical=False), f)
            out = io.StringIO()
            with redirect_stdout(out):
                code = gate.main([base_path, fresh_path, "--scaling", scaling_path])
            self.assertEqual(code, 1)
            self.assertIn("scaling_results_identical", out.getvalue())

    def test_main_passes_on_healthy_files(self):
        with tempfile.TemporaryDirectory() as tmp:
            base_path = os.path.join(tmp, "base.json")
            fresh_path = os.path.join(tmp, "fresh.json")
            with open(base_path, "w", encoding="utf-8") as f:
                json.dump(bench_json(), f)
            with open(fresh_path, "w", encoding="utf-8") as f:
                json.dump(bench_json(), f)
            out = io.StringIO()
            with redirect_stdout(out):
                code = gate.main([base_path, fresh_path])
            self.assertEqual(code, 0, out.getvalue())


if __name__ == "__main__":
    unittest.main()
