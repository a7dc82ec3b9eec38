#!/usr/bin/env python3
"""Peak memory and seconds of `boolcut verify` on the benchmark's cutsets.

Builds, with `boolcut construct` in a temporary directory, the five cutsets
that the benchmark's certify workload verifies, `level(16,5,5)`,
`bicolor(16,5,6)`, `fourcolor(16,4,6)`, `product(16,4,8)` and
`auto(14,3,9)`, and the n = 18 product cutset `product(18,6,12)`.  Then it
runs `boolcut verify` on each, `REPEAT` times, one child process at a
time, and prints for each command the median peak RSS (`ru_maxrss` of the
child, from `os.wait4`) and the median wall-clock seconds from start to
exit.  The constructs are measured the same way.  The last line is the
same table as one JSON object.

On Linux a child's `ru_maxrss` is at least its parent's RSS when it was
started, so this process imports nothing from boolcut and stays below
every command it starts.  Run from the root of a checkout; `--src` picks
the source tree whose `boolcut` is measured (default: `src` next to this
script's directory), so the same script measures two versions:

    python3 scripts/verify_memory.py
    python3 scripts/verify_memory.py --src ../other-checkout/src
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

# Runs of each command; the table gives their medians.
REPEAT = 5

# (method, n, m, l)
CASES = [
    ("level", 16, 5, 5),
    ("bicolor", 16, 5, 6),
    ("fourcolor", 16, 4, 6),
    ("product", 16, 4, 8),
    ("auto", 14, 3, 9),
    ("product", 18, 6, 12),
]


def run(argv, env):
    """(exit code, peak RSS in MB, seconds) of one child process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024, seconds


def measure(argv, env):
    runs = [run(argv, env) for _ in range(REPEAT)]
    codes = {rc for rc, _, _ in runs}
    if codes != {0}:
        sys.exit(f"{' '.join(argv)} exited with {sorted(codes)}")
    return {
        "peak_rss_mb": round(statistics.median(r for _, r, _ in runs), 2),
        "seconds": round(statistics.median(s for _, _, s in runs), 3),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    here = os.path.dirname(os.path.abspath(__file__))
    ap.add_argument("--src", default=os.path.join(os.path.dirname(here), "src"))
    args = ap.parse_args()

    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src))
    cli = [sys.executable, "-m", "boolcut.cli"]
    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        for method, n, m, l in CASES:
            name = f"{method}({n},{m},{l})"
            path = os.path.join(tmp, f"{method}_{n}_{m}_{l}.json")
            build = [*cli, "construct", "--n", str(n), "--m", str(m), "--l", str(l),
                     "--method", method, "--out", path]
            table[f"construct {name}"] = measure(build, env)
            table[f"verify {name}"] = measure([*cli, "verify", path], env)
    for command, row in table.items():
        print(f"{command:30} peak_rss_mb {row['peak_rss_mb']:7.2f}  seconds {row['seconds']:6.3f}")
    print(json.dumps({"repeat": REPEAT, "commands": table}))


if __name__ == "__main__":
    main()
