#!/usr/bin/env python3
"""Wall-clock seconds of the conjecture sweep on two source trees, in alternation.

Runs `report --n-min 3 --n-max 12 --max-nodes 50000 --time-limit 3600`,
the benchmark's sweep, each run a fresh `python3 -m boolcut.cli` process
that writes its CSV to a temporary file.  The two trees given by `--src`
take turns, and the first tree of a pair alternates from pair to pair, so
that a slow spell of the host falls on both alike.  It prints each
tree's median and quartiles of wall-clock seconds from start to exit and
its median peak RSS (`ru_maxrss` of the child, from `os.wait4`: the
largest process of the report, parent or worker), the pairs the second
tree won, and whether both trees wrote the same CSV.  The last line is
the same table as one JSON object.

This process imports nothing from boolcut; it takes `run` from
`verify_memory.py` next to it, which imports nothing from boolcut either.
Run from the root of a checkout, with the parent's tree first:

    python3 scripts/sweep_time.py --src ../parent-checkout/src --src src
"""

import argparse
import filecmp
import json
import os
import statistics
import sys
import tempfile

from verify_memory import run

# Pairs of runs, one run of each tree per pair.
PAIRS = 10

SWEEP = ["report", "--n-min", "3", "--n-max", "12", "--max-nodes", "50000", "--time-limit", "3600"]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", action="append", required=True,
                    help="a source tree to measure; give it twice, the parent's first")
    ap.add_argument("--pairs", type=int, default=PAIRS)
    args = ap.parse_args()
    if len(args.src) != 2:
        sys.exit("give --src twice")

    trees = [os.path.abspath(src) for src in args.src]
    runs = {tree: [] for tree in trees}
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {tree: os.path.join(tmp, f"report_{k}.csv") for k, tree in enumerate(trees)}
        for pair in range(args.pairs):
            for tree in trees if pair % 2 == 0 else trees[::-1]:
                env = dict(os.environ, PYTHONPATH=tree)
                argv = [sys.executable, "-m", "boolcut.cli", *SWEEP, "--out", outputs[tree]]
                rc, rss, seconds = run(argv, env)
                if rc != 0:
                    sys.exit(f"{tree}: report exited with {rc}")
                runs[tree].append((seconds, rss))
        same_csv = filecmp.cmp(*outputs.values(), shallow=False)

    table = {}
    for tree, rows in runs.items():
        seconds = [s for s, _ in rows]
        q1, q2, q3 = statistics.quantiles(seconds, n=4)
        table[tree] = {
            "seconds": [round(s, 3) for s in seconds],
            "median_s": round(statistics.median(seconds), 3),
            "quartiles_s": [round(q1, 3), round(q3, 3)],
            "peak_rss_mb": round(statistics.median(r for _, r in rows), 2),
        }
        print(f"{tree}: median {table[tree]['median_s']:.3f} s, quartiles "
              f"{q1:.3f}..{q3:.3f} s, peak_rss_mb {table[tree]['peak_rss_mb']:.2f}")
    first, second = (runs[tree] for tree in trees)
    wins = sum(b[0] < a[0] for a, b in zip(first, second))
    print(f"the second tree was faster in {wins} of {args.pairs} pairs; same CSV: {same_csv}")
    print(json.dumps({"pairs": args.pairs, "second_wins": wins, "same_csv": same_csv,
                      "trees": table}))


if __name__ == "__main__":
    main()
