#!/usr/bin/env python3
"""Compare two runs of bench/paper table by table.

    python3 bench/paper_diff.py parent.txt change.txt [parent_fig7.json change_fig7.json]

Each argument pair is the saved stdout of `paper` (and the BENCH_fig7.json
it wrote) from two revisions run at the same QVLIW_LOOPS.  The stdout is
split into one section per experiment at its banner (a 72-'=' line, the
title, the "paper:" claim, another 72-'=' line); the banner itself, the
"suite:" line and the "[sweep]" footer lines are dropped, since they
carry run-specific wall times, and blank lines are ignored.  Sections
are matched by title.  The JSON files must be byte-identical.

Prints one line per experiment and a unified diff for each one that
differs; exits 0 when every table and the JSON match, 1 otherwise.
"""

import difflib
import sys
from pathlib import Path

RULE = "=" * 72


def sections(path):
    """{title: [table lines]} in file order, without banners, the suite
    line, [sweep] lines or blank lines."""
    lines = Path(path).read_text().splitlines()
    out = {}
    body = None
    i = 0
    while i < len(lines):
        line = lines[i]
        if line == RULE and i + 3 < len(lines) and lines[i + 3] == RULE:
            body = out.setdefault(lines[i + 1], [])
            i += 4
            continue
        if body is not None and line.strip() and not line.startswith("[sweep]"):
            body.append(line)
        i += 1
    return out


def main(argv):
    if len(argv) not in (3, 5):
        sys.exit("usage: paper_diff.py PARENT_STDOUT CHANGE_STDOUT "
                 "[PARENT_FIG7_JSON CHANGE_FIG7_JSON]")
    parent, change = sections(argv[1]), sections(argv[2])
    if not parent:
        sys.exit(f"paper_diff: no experiment banner in {argv[1]}")
    same = True
    for title in list(parent) + [t for t in change if t not in parent]:
        if title not in change or title not in parent:
            side = argv[2] if title not in change else argv[1]
            print(f"MISSING  {title} (not in {side})")
            same = False
            continue
        diff = list(difflib.unified_diff(parent[title], change[title], argv[1], argv[2],
                                         lineterm=""))
        print(f"{'same' if not diff else 'DIFFERS':8} {title}")
        for line in diff:
            print(f"    {line}")
        same = same and not diff
    if len(argv) == 5:
        equal = Path(argv[3]).read_bytes() == Path(argv[4]).read_bytes()
        print(f"{'same' if equal else 'DIFFERS':8} {argv[3]} vs {argv[4]}")
        same = same and equal
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
