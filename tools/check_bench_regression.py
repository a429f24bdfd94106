#!/usr/bin/env python3
"""Gate CI on BENCH_pipeline.json throughput regressions.

Usage: check_bench_regression.py BASELINE.json FRESH.json [--tolerance 0.30]
                                 [--scaling BENCH_sweep_scaling.json]

Compares a fresh perf_micro run against the committed baseline and fails
(exit 1) when:

  - the fresh run reports results_identical: false,
    parallel_results_identical: false, or mii_optimal_identical: false —
    correctness signals, never tolerable;
  - the fresh run's scheduling-search telemetry is malformed: the
    sched_memo_* counters are absent (the artifact predates the ladder
    memo), a run reports mii_optimal_ii_consistent: false, or the cached
    run proves fewer MII-optimal schedules than the baseline did
    (sched_mii_optimal must never regress — optimality is an outcome,
    not a measurement);
  - a run verified no artifacts or reports legality violations;
  - the cached sweep's loops_per_second is more than `tolerance` slower;
  - the fresh run used 2+ workers on a machine with 2+ hardware threads
    but parallel_speedup fell below the --speedup-floor (default 1.5):
    the thread pool stopped paying for itself.  Single-threaded runs and
    single-core machines skip this floor — there is no parallelism to
    measure — but never the identity checks;
  - a gated pipeline stage (uncached copy_insert / schedule / queue_alloc,
    cached schedule / verify) ran slower than the baseline's
    stage_seconds by more than --stage-tolerance (default 0.50) plus a
    small absolute slack that absorbs jitter on sub-50ms stages.
    Baselines predating the stage_seconds schema skip these gates with
    an info line.

With --scaling, a fresh sweep_scaling run is additionally gated: every
worker count must be fingerprint-identical to the serial run
(scaling_results_identical), and on 2+ hardware threads its
parallel_speedup must also clear the floor.

A baseline predating the current JSON schema (missing a required field)
fails with a clear "regenerate the baseline" message instead of a
KeyError traceback — stale baselines are an operator error, not a crash.

The tolerance (default 0.30, override with --tolerance or the
QVLIW_BENCH_TOLERANCE environment variable) absorbs runner jitter; when
the baseline hardware changes materially, regenerate the committed
BENCH_pipeline.json rather than widening the tolerance.
"""

import argparse
import json
import os
import sys


class SchemaError(Exception):
    """A required field is absent from one of the JSON files."""


def require(obj, source, *path):
    """Walks `path` into `obj`, raising SchemaError naming the missing field.

    `source` says which file the object came from ("baseline"/"fresh"), so
    the failure message tells the operator which artifact to regenerate.
    """
    walked = []
    for key in path:
        walked.append(str(key))
        if not isinstance(obj, dict) or key not in obj:
            raise SchemaError(
                f"{source} missing field {'.'.join(walked)} — regenerate it "
                "with the current perf_micro (for the committed baseline: "
                "run perf_micro on the release preset and commit the fresh "
                "BENCH_pipeline.json)"
            )
        obj = obj[key]
    return obj


# The per-stage wall-time gates: (run, stage) pairs whose stage_seconds
# must not regress past the stage tolerance.  The uncached run exposes the
# cold front end (copy insertion dominates it); the cached run exposes the
# memoized verifier.
STAGE_GATES = (
    ("uncached", "copy_insert"),
    ("uncached", "schedule"),
    ("uncached", "queue_alloc"),
    ("cached", "schedule"),
    ("cached", "verify"),
)

# Absolute slack added to every stage ceiling: sub-50ms stages are all
# scheduler jitter, and a relative band alone would flap on them.
STAGE_ABS_SLACK_SECONDS = 0.05


def check_stages(baseline, fresh, stage_tolerance):
    """Gates the per-stage wall times listed in STAGE_GATES.

    A baseline without stage_seconds (pre-stage-gate schema) skips each
    gate with an info line — the operator arms them by regenerating the
    baseline.  A *fresh* file without stage_seconds is a schema error:
    the current perf_micro always emits it.
    """
    for run_name, stage in STAGE_GATES:
        base_run = baseline.get(run_name)
        base_stages = base_run.get("stage_seconds") if isinstance(base_run, dict) else None
        if not isinstance(base_stages, dict) or stage not in base_stages:
            print(
                f"info: stage gate {run_name}.{stage} skipped (baseline has no "
                "stage_seconds for it; regenerate the baseline to arm the gate)"
            )
            continue
        base_seconds = base_stages[stage]
        # A stage absent from the fresh run never executed, i.e. took no
        # time — trivially under the ceiling.
        fresh_seconds = require(fresh, "fresh", run_name, "stage_seconds").get(stage, 0.0)
        ceiling = base_seconds * (1.0 + stage_tolerance) + STAGE_ABS_SLACK_SECONDS
        verdict = "OK" if fresh_seconds <= ceiling else "FAIL"
        print(
            f"{verdict}: {run_name} {stage} stage {fresh_seconds:.3f}s vs baseline "
            f"{base_seconds:.3f}s (ceiling {ceiling:.3f}s at stage tolerance "
            f"{stage_tolerance:.0%})"
        )
        if fresh_seconds > ceiling:
            print(f"the {stage} stage regressed beyond tolerance; investigate or "
                  "regenerate the baseline")
            return 1
    return 0


def check(baseline, fresh, tolerance, speedup_floor=1.5, stage_tolerance=0.50):
    # Throughput baselines are per-machine: a ring baseline gated against a
    # mesh or crossbar run would compare apples to oranges.  Files
    # predating the topology fields are implicitly the 4-cluster ring.
    base_machine = (baseline.get("topology", "ring"), baseline.get("clusters", 4))
    fresh_machine = (fresh.get("topology", "ring"), fresh.get("clusters", 4))
    if base_machine != fresh_machine:
        print(
            f"FAIL: baseline measured {base_machine[0]}-{base_machine[1]} but the "
            f"fresh run measured {fresh_machine[0]}-{fresh_machine[1]}; gate each "
            "topology against a baseline generated with the same --topology/--clusters"
        )
        return 1

    if not fresh.get("results_identical", False):
        print("FAIL: fresh run reports results_identical: false (cache correctness bug)")
        return 1

    # Required in the fresh file (the current perf_micro always emits it);
    # a missing field means the fresh artifact was not produced by the
    # current binary.
    if not require(fresh, "fresh", "parallel_results_identical"):
        print("FAIL: fresh run reports parallel_results_identical: false "
              "(multi-threaded sweep diverged from the serial sweep)")
        return 1

    if not require(fresh, "fresh", "mii_optimal_identical"):
        print("FAIL: fresh run reports mii_optimal_identical: false "
              "(runs disagree about which schedules are MII-optimal; the "
              "ladder memo changed an outcome)")
        return 1

    # Scheduling-search telemetry: the memo counters must exist in every
    # fresh run (absent means the artifact predates the ladder memo), and
    # the MII-optimality bit must be internally consistent.
    for run_name in ("uncached", "cached"):
        require(fresh, "fresh", run_name, "sched_memo_probes")
        require(fresh, "fresh", run_name, "sched_memo_hits")
        if not require(fresh, "fresh", run_name, "mii_optimal_ii_consistent"):
            print(f"FAIL: fresh {run_name} run reports mii_optimal_ii_consistent: "
                  "false (a cell claims MII-optimality at II != MII)")
            return 1

    # Optimality never regresses: a fresh build may prove MII on *more*
    # loops than the baseline (a better searcher) but never fewer.
    base_optimal = baseline.get("cached", {}).get("sched_mii_optimal")
    if base_optimal is not None:
        fresh_optimal = require(fresh, "fresh", "cached", "sched_mii_optimal")
        verdict = "OK" if fresh_optimal >= base_optimal else "FAIL"
        print(f"{verdict}: MII-optimal schedules {fresh_optimal} vs baseline "
              f"{base_optimal}")
        if fresh_optimal < base_optimal:
            print("the scheduler stopped proving optimality on loops the "
                  "baseline handled; that is an outcome regression, not jitter")
            return 1
    else:
        print("info: sched_mii_optimal gate skipped (baseline predates the "
              "search-telemetry schema; regenerate the baseline to arm it)")

    # Translation validation: perf_micro runs every sweep under the strict
    # independent verifier, so a fresh artifact must show work checked and
    # zero violations on both the uncached and cached runs.
    for run_name in ("uncached", "cached"):
        checked = require(fresh, "fresh", run_name, "verify_checked")
        violations = require(fresh, "fresh", run_name, "verify_violations")
        if checked <= 0:
            print(f"FAIL: fresh {run_name} run verified no artifacts "
                  "(verify_checked == 0; the strict verifier did not run)")
            return 1
        if violations != 0:
            print(f"FAIL: fresh {run_name} run reports {violations} legality "
                  "violation(s) (the back end emitted an illegal artifact)")
            return 1
    print(f"OK: legality verifier checked {fresh['uncached']['verify_checked']} uncached / "
          f"{fresh['cached']['verify_checked']} cached artifact bundles, 0 violations")

    # The speedup floor only means something when the run was actually
    # parallel on actual parallel hardware; the identity checks above
    # apply unconditionally.
    workers = require(fresh, "fresh", "workers")
    hardware = fresh.get("hardware_threads", workers)
    if workers >= 2 and hardware >= 2:
        speedup = fresh.get("parallel_speedup", 0.0)
        verdict = "OK" if speedup >= speedup_floor else "FAIL"
        print(
            f"{verdict}: parallel speedup {speedup:.2f}x with {workers} workers "
            f"on {hardware} hardware threads (floor {speedup_floor:.2f}x)"
        )
        if speedup < speedup_floor:
            print("the thread pool no longer pays for itself; investigate contention")
            return 1
    else:
        print(
            f"info: parallel speedup floor skipped ({workers} worker(s), "
            f"{hardware} hardware thread(s))"
        )

    base_lps = require(baseline, "baseline", "cached", "loops_per_second")
    fresh_lps = require(fresh, "fresh", "cached", "loops_per_second")
    floor = base_lps * (1.0 - tolerance)
    verdict = "OK" if fresh_lps >= floor else "FAIL"
    print(
        f"{verdict}: cached loops/sec {fresh_lps:.1f} vs baseline {base_lps:.1f} "
        f"(floor {floor:.1f} at tolerance {tolerance:.0%})"
    )
    if fresh_lps < floor:
        print("throughput regressed beyond tolerance; investigate or regenerate the baseline")
        return 1

    if check_stages(baseline, fresh, stage_tolerance) != 0:
        return 1

    print(f"info: cache speedup {fresh.get('cache_speedup', 0.0):.2f}x, "
          f"naive probe fallbacks {fresh['cached'].get('unroll_probe_naive_fallbacks', 0)}, "
          f"fingerprint {fresh.get('fingerprint', '?')}")
    return 0


def check_scaling(scaling, speedup_floor=1.5):
    """Gates a fresh sweep_scaling run: identity always, speedup on 2+ cores."""
    if not require(scaling, "scaling", "scaling_results_identical"):
        print("FAIL: sweep_scaling reports scaling_results_identical: false "
              "(some worker count diverged from the serial fingerprint)")
        return 1
    for entry in require(scaling, "scaling", "counts"):
        if not entry.get("identical", False):
            print(f"FAIL: sweep_scaling count workers={entry.get('workers')} "
                  "is not fingerprint-identical to the serial run")
            return 1

    hardware = require(scaling, "scaling", "hardware_threads")
    multi = [e for e in scaling["counts"] if e.get("workers", 0) >= 2]
    if hardware >= 2 and multi:
        speedup = scaling.get("parallel_speedup", 0.0)
        verdict = "OK" if speedup >= speedup_floor else "FAIL"
        print(
            f"{verdict}: scaling parallel speedup {speedup:.2f}x "
            f"on {hardware} hardware threads (floor {speedup_floor:.2f}x)"
        )
        if speedup < speedup_floor:
            return 1
    else:
        print(
            f"info: scaling speedup floor skipped ({hardware} hardware thread(s), "
            f"{len(multi)} multi-worker count(s))"
        )
    return 0


def run(baseline, fresh, tolerance, speedup_floor=1.5, scaling=None, stage_tolerance=0.50):
    """check() (+ optional check_scaling) with SchemaError as a clean FAIL line."""
    try:
        code = check(baseline, fresh, tolerance, speedup_floor, stage_tolerance)
        if code == 0 and scaling is not None:
            code = check_scaling(scaling, speedup_floor)
        return code
    except SchemaError as error:
        print(f"FAIL: {error}")
        return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("QVLIW_BENCH_TOLERANCE", "0.30")),
        help="allowed fractional slowdown of cached loops/sec (default 0.30)",
    )
    parser.add_argument(
        "--speedup-floor",
        type=float,
        default=float(os.environ.get("QVLIW_SPEEDUP_FLOOR", "1.5")),
        help="minimum parallel_speedup on 2+ core machines (default 1.5)",
    )
    parser.add_argument(
        "--scaling",
        default=None,
        help="also gate a fresh BENCH_sweep_scaling.json",
    )
    parser.add_argument(
        "--stage-tolerance",
        type=float,
        default=float(os.environ.get("QVLIW_STAGE_TOLERANCE", "0.50")),
        help="allowed fractional slowdown of a gated stage's wall time (default 0.50)",
    )
    args = parser.parse_args(argv)

    with open(args.baseline, encoding="utf-8") as f:
        baseline = json.load(f)
    with open(args.fresh, encoding="utf-8") as f:
        fresh = json.load(f)
    scaling = None
    if args.scaling is not None:
        with open(args.scaling, encoding="utf-8") as f:
            scaling = json.load(f)

    return run(baseline, fresh, args.tolerance, args.speedup_floor, scaling,
               args.stage_tolerance)


if __name__ == "__main__":
    sys.exit(main())
