#!/usr/bin/env python3
"""Build and run the qvliw benchmark for one workload and seed.

    python3 perfbench/run.py --workload ring4_ladder --seed 1998 --seconds 50 --trace 0

Run from the root of a checkout.  The first run configures and builds the
library and the benchmark program from source (CMake, Release) under
$CARGO_TARGET_DIR or .bench_build; later runs only rebuild what changed.
Build output goes to stderr.  The report of qvliw_perfbench goes to stdout
and its last line is the JSON result; the metric names and units in it are
checked against BENCHMARK.json.  Any failed check exits nonzero.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    if not (ROOT / "src" / "harness" / "sweep.h").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", str(out), "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return out / "qvliw_perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_fingerprint(workload, seed, lines):
    """Reports how this run's outcome fingerprint compares with the one
    recorded for (workload, seed) in seeds.json; a difference means the
    program's outcomes changed, which is not by itself an error."""
    found = [line.split()[1] for line in lines if line.startswith("fingerprint ")]
    if not found:
        return
    recorded = json.loads((BENCH_DIR / "seeds.json").read_text())["fingerprints"]
    want = recorded.get(workload, {}).get(str(seed))
    if want is None:
        print(f"fingerprint: none recorded for ({workload}, {seed})")
    elif want == found[0]:
        print(f"fingerprint: matches the one recorded for ({workload}, {seed})")
    else:
        print(f"fingerprint: differs from the recorded {want}: outcomes changed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--suite", choices=["full", "small"], default="full",
                        help="small runs small_suite (self-tests only)")
    args = parser.parse_args()

    binary = build()
    trace = args.trace == "1"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--suite", args.suite]
    if trace:
        cmd += ["--trace-out", str(build_dir() / f"trace-{args.workload}-{args.seed}.json")]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"qvliw_perfbench did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        # A failed check still ends with the JSON result (correct: false);
        # pass it on, last, so the caller sees the failed count.
        for line in lines[:-1]:
            print(line)
        check_fingerprint(args.workload, args.seed, lines)
        if lines:
            print(lines[-1])
        fail(f"qvliw_perfbench exited with code {proc.returncode}", code=1)

    result = json.loads(lines[-1])
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: got {sorted(got.items())}, "
             f"want {sorted(want.items())}", code=1)
    for line in lines[:-1]:
        print(line)
    check_fingerprint(args.workload, args.seed, lines)
    print(f"run: {time.monotonic() - start:.1f} s")
    print(lines[-1])


if __name__ == "__main__":
    main()
