#!/usr/bin/env python3
"""Start-up cost of the `boolcut` commands: seconds and peak RSS per process.

Runs five commands, each in a fresh `python3 -m boolcut.cli` process with
`PYTHONDONTWRITEBYTECODE=1`, so that every process compiles the modules it
imports, as a checkout without bytecode does:

* `--help`;
* `construct --method level --n 16 --m 5 --l 5`, into a temporary file;
* `verify` of that file;
* `search --n 6 --m 1 --l 3` (h);
* `report --n-min 3 --n-max 5`.

The five run in turn, `REPEAT` rounds of them, so that a slow spell of the
host falls on every command alike.  It prints for each command the median
wall-clock seconds from start to exit and the median peak RSS (`ru_maxrss`
of the child, from `os.wait4`; for `report`, its largest process, parent
or worker).  The last line is the same table as one JSON object.

On Linux a child's `ru_maxrss` is at least its parent's RSS when it was
started, so this process imports nothing from boolcut and stays below
every command it starts; it takes `run` from `verify_memory.py` next to
it, which imports nothing from boolcut either.  Run from the root of a
checkout; `--src` picks the source tree whose `boolcut` is measured
(default: `src` next to this script's directory), so the same script
measures two versions:

    python3 scripts/startup_time.py
    python3 scripts/startup_time.py --src ../other-checkout/src
"""

import argparse
import json
import os
import statistics
import sys
import tempfile

from verify_memory import run

# Rounds of the five commands; the table gives their medians.
REPEAT = 11


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    here = os.path.dirname(os.path.abspath(__file__))
    ap.add_argument("--src", default=os.path.join(os.path.dirname(here), "src"))
    args = ap.parse_args()

    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src), PYTHONDONTWRITEBYTECODE="1")
    cli = [sys.executable, "-m", "boolcut.cli"]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "level_16_5_5.json")
        commands = {
            "--help": ["--help"],
            "construct level(16,5,5)": ["construct", "--method", "level",
                                        "--n", "16", "--m", "5", "--l", "5", "--out", path],
            "verify level(16,5,5)": ["verify", path],
            "search h(6,1,3)": ["search", "--n", "6", "--m", "1", "--l", "3"],
            "report n=3..5": ["report", "--n-min", "3", "--n-max", "5"],
        }
        runs = {command: [] for command in commands}
        for _ in range(REPEAT):
            for command, argv in commands.items():
                rc, rss, seconds = run([*cli, *argv], env)
                if rc != 0:
                    sys.exit(f"{command} exited with {rc}")
                runs[command].append((rss, seconds))
    table = {
        command: {
            "peak_rss_mb": round(statistics.median(r for r, _ in rows), 2),
            "seconds": round(statistics.median(s for _, s in rows), 3),
        }
        for command, rows in runs.items()
    }
    for command, row in table.items():
        print(f"{command:25} peak_rss_mb {row['peak_rss_mb']:7.2f}  seconds {row['seconds']:6.3f}")
    print(json.dumps({"repeat": REPEAT, "commands": table}))


if __name__ == "__main__":
    main()
