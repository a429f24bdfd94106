#!/usr/bin/env python3
"""Collect benchmark runs and judge a change against its parent.

    # ten alternating pairs on every workload, parent and change checkouts
    python3 perfbench/compare.py collect --parent ../parent --change . \\
        --seeds 1,2,3,4,5,6,7,8,9,10 --out runs.jsonl
    # one row per workload: gain / no change / REGRESSION / unresolved,
    # then each metric's median [q1, q3] per side, change and pair wins
    python3 perfbench/compare.py report runs.jsonl
    # run-to-run spread of one set (omit --change when collecting)
    python3 perfbench/compare.py spread runs.jsonl

The rules are those of a gain claim against a fixed benchmark:
  - runs come in pairs on the same seed, alternating which side runs first;
  - a gain needs the change to win at least 9 of 10 pairs (ties count for
    neither side) and a median difference larger than the distance between
    the parent's first and third quartiles;
  - a regression is a change median worse than the parent's by more than
    the metric's bound in BENCHMARK.json;
  - a metric whose spread (interquartile distance over median) exceeds its
    bound on either side is "unresolved", unless every change run beats
    every parent run.
Metric and workload names are those of BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

# Metrics whose run-to-run spread is not held to a third of the bound, and
# why.  Set-up takes ~35 ms, so a single scheduler hiccup moves it; only its
# median between two sets of runs is held to the bound.
SPREAD_EXEMPT = {"setup_s": "set-up time is judged on its median only"}


def load_spec(root):
    return json.loads((Path(root) / "BENCHMARK.json").read_text())


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"compare: {checkout}: {workload} seed {seed} failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def collect(args):
    sides = {"parent": args.parent}
    if args.change:
        sides["change"] = args.change
        if load_spec(args.parent) != load_spec(args.change):
            sys.exit("compare: the two checkouts have different BENCHMARK.json; "
                     "measure both with identical benchmark code")
    spec = load_spec(args.parent)
    seconds = spec["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    with open(args.out, "a") as out:
        for workload in [w["name"] for w in spec["workloads"]]:
            for pair, seed in enumerate(seeds):
                order = list(sides) if pair % 2 == 0 else list(reversed(list(sides)))
                for side in order:
                    result = run_once(sides[side], workload, seed, seconds)
                    record = {"side": side, "pair": pair, "workload": workload, "seed": seed,
                              "result": result}
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                    print(f"{workload} pair {pair} seed {seed} {side}: "
                          f"correct={result['correct']}", file=sys.stderr)


def load_runs(path):
    """{workload: {side: {pair: result}}}"""
    runs = defaultdict(lambda: defaultdict(dict))
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            runs[record["workload"]][record["side"]][record["pair"]] = record["result"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def values_of(results, metric):
    return [results[p]["metrics"][metric]["value"] for p in sorted(results)]


def describe(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def judge(metric, parent, change):
    """Verdict for one (workload, metric) from paired parent/change results,
    and the figures it rests on: each side's median [q1, q3], the change of
    the medians and the pair wins."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    pairs = sorted(set(parent) & set(change))
    p = [parent[k]["metrics"][metric["name"]]["value"] for k in pairs]
    c = [change[k]["metrics"][metric["name"]]["value"] for k in pairs]
    if not pairs:
        return "no pairs", ""
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    wins = sum(1 for a, b in zip(c, p) if better(a, b))
    p_q1, p_med, p_q3 = quartiles(p)
    _, c_med, _ = quartiles(c)
    worse_share = ((c_med - p_med) if lower else (p_med - c_med)) / abs(p_med) if p_med else 0.0
    change_pct = 100.0 * (c_med - p_med) / abs(p_med) if p_med else 0.0
    all_better = all(better(a, b) for a in c for b in p)
    detail = (f"parent {describe(p)}  change {describe(c)}  "
              f"{change_pct:+.1f}%  wins {wins}/{len(pairs)}")
    gain = (wins >= 0.9 * len(pairs) and better(c_med, p_med)
            and abs(c_med - p_med) > (p_q3 - p_q1))
    if max(spread(p), spread(c)) > bound and not all_better:
        return "unresolved", detail
    if gain:
        return "gain", detail
    if worse_share > bound:
        return "REGRESSION", detail
    return "no change", detail


def report(args):
    """One row of verdicts per workload, each followed by one line per
    metric with the figures behind its verdict."""
    spec = load_spec(BENCH_DIR.parent)
    runs = load_runs(args.runs)
    for workload in [w["name"] for w in spec["workloads"]]:
        sides = runs.get(workload, {})
        if "parent" not in sides or "change" not in sides:
            have = ", ".join(sorted(sides)) or "none"
            print(f"{workload:<14} no runs: needs parent and change, has {have}")
            continue
        verdicts = [judge(metric, sides["parent"], sides["change"])
                    for metric in spec["end_to_end"]]
        print(f"{workload:<14} " + "  ".join(
            f"{metric['name']}={verdict}"
            for metric, (verdict, _) in zip(spec["end_to_end"], verdicts)))
        for metric, (_, detail) in zip(spec["end_to_end"], verdicts):
            print(f"    {metric['name']:<20} {detail}")


def spread_report(args):
    spec = load_spec(BENCH_DIR.parent)
    runs = load_runs(args.runs)
    steady = True
    for workload, sides in runs.items():
        for side, results in sides.items():
            for metric in spec["end_to_end"]:
                values = values_of(results, metric["name"])
                s = spread(values)
                limit = metric["bound"] / 3
                exempt = metric["name"] in SPREAD_EXEMPT
                ok = exempt or s < limit
                steady = steady and ok
                print(f"{workload:<14} {side:<7} {metric['name']:<20} n={len(values):<3} "
                      f"median={statistics.median(values):.6g} spread={s:.4f} "
                      f"bound/3={limit:.4f} {'ok' if ok else 'UNSTEADY'}"
                      f"{' (exempt: ' + SPREAD_EXEMPT[metric['name']] + ')' if exempt else ''}")
    return 0 if steady else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect", help="run alternating parent/change pairs")
    c.add_argument("--parent", required=True, help="checkout of the parent commit")
    c.add_argument("--change", help="checkout of the change (omit for one set)")
    c.add_argument("--seeds", required=True, help="comma-separated, one pair per seed")
    c.add_argument("--out", required=True, help="JSON-lines file to append runs to")
    r = sub.add_parser("report", help="one verdict row per workload")
    r.add_argument("runs")
    s = sub.add_parser("spread", help="run-to-run spread against bound/3")
    s.add_argument("runs")
    args = parser.parse_args()
    if args.command == "collect":
        collect(args)
    elif args.command == "report":
        report(args)
    else:
        sys.exit(spread_report(args))


if __name__ == "__main__":
    main()
