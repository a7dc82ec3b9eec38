#!/usr/bin/env python3
"""Benchmark of the boolcut command line: certify, search and sweep.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Each workload drives the ``boolcut`` CLI as a user does: one process per
command, one command at a time (closed loop, a single client), started and
timed by ``launch.py``.  Every output is checked by ``checks.py``, which
shares no code with the library.
The run repeats whole rounds of the workload's commands for about
``--seconds`` seconds and prints one JSON object as its last line:

* ``--trace 0``: the end-to-end metrics ``wall_s``, ``setup_s``,
  ``peak_rss_mb`` and ``settled_values``;
* ``--trace 1``: one untraced round, then one round with every command run
  under ``traced_cli.py``, and the per-layer metrics from its spans.

Work files, the result and the trace go to ``.perfbench/`` in the checkout.
See README.md for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DEADLINE_S = 170.0  # a run must exit within 180 s
SETUP_REPEATS = 5
# Far above the slowest search here (about 20 s), so that only node
# budgets ever decide a search result and every value is deterministic.
NO_CLOCK_LIMIT = "3600"


@dataclass
class Op:
    """One CLI command, the exit code it must give and the check of its output.

    ``check(stdout)`` returns the number of values the output settles, or
    raises ``checks.CheckError``.  ``files`` are the files the check reads;
    a check is a pure function of them and of stdout, so its result is
    reused when the same bytes come back in a later round.
    """

    label: str
    args: list
    check: Callable[[str], int]
    expect_rc: int = 0
    files: tuple = ()


# -- workloads --------------------------------------------------------------

# (method, n, m, l, verify): one cutset per builder, each at the largest size
# whose verify takes a few seconds, and product(18,6,12), whose bounded
# partition has k = 12, built but not verified.
CERTIFY_BUILDS = [
    ("level", 16, 5, 5, True),
    ("bicolor", 16, 5, 6, True),
    ("fourcolor", 16, 4, 6, True),
    ("product", 16, 4, 8, True),
    ("auto", 14, 3, 9, True),
    ("product", 18, 6, 12, False),
]
REMOVED_NODES = 2  # per negative verify case, picked by the seed


def bicolor_chains(n, m):
    return [[b, b | 1] for b in (x << 1 for x in checks.level(n - 1, m))]


def fourcolor_chains(n, m):
    out = [[b, b | 1, b | 3] for b in (x << 2 for x in checks.level(n - 2, m))]
    if m >= 1:
        out += [[(x << 2) | 2 for x in ch] for ch in fourcolor_chains(n - 2, m - 1)]
    return out


# Cutsets, built here from the paper's recipes, from which the negative
# verify cases remove nodes: (name, chain builder, n, m, l).
NEGATIVE_BASES = [
    ("bicolor", bicolor_chains, 15, 5, 6),
    ("fourcolor", fourcolor_chains, 15, 4, 6),
]


def negative_case(build, n, m, l, rng):
    """A cutset document with REMOVED_NODES nodes taken out, no longer a cutset.

    A chain that loses a node is split into the pieces left of it.
    """
    chains = build(n, m)
    nodes = {v for ch in chains for v in ch}
    if checks.count_avoiding_chains(n, m, l, nodes):
        raise RuntimeError(f"the benchmark's own cutset ({n},{m},{l}) misses a chain")
    pool = sorted(nodes)
    for _ in range(100):
        removed = set(rng.sample(pool, REMOVED_NODES))
        if checks.count_avoiding_chains(n, m, l, nodes - removed):
            break
    else:
        raise RuntimeError("no removal breaks the cutset")
    pieces = []
    for ch in chains:
        run = []
        for v in ch + [None]:
            if v is None or v in removed:
                if run:
                    pieces.append(run)
                run = []
            else:
                run.append(v)
    return {"format": 1, "n": n, "m": m, "l": l,
            "chains": [[[i + 1 for i in range(n) if v >> i & 1] for v in p] for p in pieces]}


def _read_json(path):
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise checks.CheckError(f"cannot read {path.name}: {exc}") from exc


def certify_setup(work, seed):
    rng = random.Random(seed)
    cases = []
    for name, build, n, m, l in NEGATIVE_BASES:
        path = work / f"negative-{name}.json"
        path.write_text(json.dumps(negative_case(build, n, m, l, rng)))
        cases.append((name, path))
    return cases


def certify_ops(work, cases):
    ops = []
    for method, n, m, l, verify in CERTIFY_BUILDS:
        path = work / f"{method}-{n}-{m}-{l}.json"
        ops.append(Op(
            f"construct {method}({n},{m},{l})",
            ["construct", "--method", method, "--n", str(n), "--m", str(m),
             "--l", str(l), "--out", str(path)],
            lambda out, p=path, a=(method, n, m, l): checks.check_construct(
                checks.last_json_line(out), _read_json(p), *a),
            files=(path,)))
        if verify:
            ops.append(verify_op(f"verify {method}({n},{m},{l})", path, 0))
    for name, path in cases:
        ops.append(verify_op(f"verify {name} minus {REMOVED_NODES}", path, 3))
    return ops


def verify_op(label, path, expect_rc):
    return Op(label, ["verify", str(path)],
              lambda out: checks.check_verify(checks.last_json_line(out), _read_json(path)),
              expect_rc=expect_rc, files=(path,))


# Every instance ends EXACT well inside the node budget; h(6,1,4) is the
# largest, at 324,895 nodes.
SEARCH_INSTANCES = [(t, n, m, l) for n, m, l in
                    [(6, 1, 3), (6, 2, 3), (7, 1, 3), (8, 1, 2), (9, 1, 2), (5, 1, 4)]
                    for t in ("h", "g")] + [("h", 6, 1, 4)]
SEARCH_NODE_BUDGET = 2_000_000


def search_ops(work, _):
    return [Op(f"search {t}({n},{m},{l})",
               ["search", "--n", str(n), "--m", str(m), "--l", str(l), "--target", t,
                "--max-nodes", str(SEARCH_NODE_BUDGET), "--time-limit", NO_CLOCK_LIMIT],
               lambda out, a=(t, n, m, l): checks.check_search(checks.last_json_line(out), *a))
            for t, n, m, l in SEARCH_INSTANCES]


# The conjecture sweep at the C8 budget; m runs over the CLI's default range.
SWEEP_N = (3, 12)
SWEEP_M = (0, 32)
SWEEP_NODE_BUDGET = 50_000


def sweep_ops(work, _):
    path = work / "report.csv"
    return [Op(f"report n={SWEEP_N[0]}..{SWEEP_N[1]}",
               ["report", "--n-min", str(SWEEP_N[0]), "--n-max", str(SWEEP_N[1]),
                "--m-min", str(SWEEP_M[0]), "--m-max", str(SWEEP_M[1]),
                "--max-nodes", str(SWEEP_NODE_BUDGET), "--time-limit", NO_CLOCK_LIMIT,
                "--out", str(path)],
               lambda out, p=path: checks.check_report(p.read_text(), *SWEEP_N, *SWEEP_M),
               files=(path,))]


# name -> (set-up writing the input files, the round's commands)
WORKLOADS = {
    "certify": (certify_setup, certify_ops),
    "search": (lambda work, seed: None, search_ops),
    "sweep": (lambda work, seed: None, sweep_ops),
}


# -- running commands -------------------------------------------------------

class Runner:
    """Runs CLI commands one at a time, through launch.py, and checks their outputs."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        # Its own session, so that close() can stop it and any command it runs.
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, start_new_session=True)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.peak_rss_kb = 0
        self._verdicts: dict = {}

    def close(self) -> None:
        """Stop the launcher; a command still running is killed with it."""
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=5)
        except subprocess.TimeoutExpired:
            os.killpg(self.launcher.pid, signal.SIGKILL)
            self.launcher.wait()

    def launch(self, argv, out_path, err_path):
        """Run one process to its end; (seconds, exit code, peak RSS in KB)."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("run deadline reached")
        request = {"argv": argv, "out": str(out_path), "err": str(err_path), "timeout": timeout}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("launch.py ended early")
        r = json.loads(reply)
        return r["seconds"], r["rc"], r["rss_kb"]

    def cli(self, args, traced: bool, tag: str):
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"),
                    str(self.work / f"{tag}.spans.json"), *args]
        else:
            argv = [sys.executable, "-m", "boolcut.cli", *args]
        return self.launch(argv, self.work / f"{tag}.out", self.work / f"{tag}.err")

    def run_op(self, op: Op, traced: bool, tag: str) -> dict:
        """Run and check one command; a record of what happened."""
        self.attempted += 1
        seconds, rc, rss_kb = self.cli(op.args, traced, tag)
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        stdout = (self.work / f"{tag}.out").read_text()
        rec = {"label": op.label, "seconds": seconds, "rc": rc, "rss_kb": rss_kb,
               "settled": 0, "stdout": stdout}
        if rc != op.expect_rc:
            self.failed += 1
            err = (self.work / f"{tag}.err").read_text()[-500:]
            rec["error"] = f"exit code {rc}, expected {op.expect_rc}: {err}"
            print(f"failed: {op.label}: {rec['error']}", file=sys.stderr)
            return rec
        digest = hashlib.sha256(stdout.encode())
        for f in op.files:
            digest.update(Path(f).read_bytes())
        key = (op.label, digest.hexdigest())
        if key not in self._verdicts:
            try:
                self._verdicts[key] = (op.check(stdout), None)
            except checks.CheckError as exc:
                self._verdicts[key] = (0, f"{op.label}: {exc}")
        rec["settled"], error = self._verdicts[key]
        if error:
            rec["error"] = error
            self.errors.append(error)
        return rec

    def run_round(self, ops, traced: bool, index: int) -> dict:
        records = []
        for i, op in enumerate(ops):
            tag = f"r{index}-c{i}"
            rec = self.run_op(op, traced, tag)
            if traced:
                spans = self.work / f"{tag}.spans.json"
                rec["spans"] = json.loads(spans.read_text()) if spans.exists() else []
            records.append(rec)
        return {"traced": traced,
                "seconds": sum(r["seconds"] for r in records),
                "settled": sum(r["settled"] for r in records),
                "commands": records}


# -- per-layer metrics ------------------------------------------------------

LAYER_UNITS = {
    "lattice.level_masks_calls": "count", "lattice.level_masks_s": "s",
    "chains.partition_s": "s", "constructions.build_s": "s",
    "analysis.width_s": "s", "analysis.width_nodes_per_s": "1/s",
    "analysis.is_cutset_s": "s",
    "analysis.matcher_push_calls": "count", "analysis.matcher_push_s": "s",
    "analysis.matcher_pop_s": "s",
    "analysis.missed_chain_calls": "count", "analysis.missed_chain_s": "s",
    "search.nodes_expanded": "count", "search.self_s": "s", "search.nodes_per_s": "1/s",
    "cli.self_s": "s", "trace.overhead_s": "s",
}


def layer_metrics(spans_per_command) -> dict:
    """Sum the spans of all commands into the per-layer metrics.

    ``*_s`` of a named function is its inclusive time; ``self_s`` is a
    span's time minus its child spans and folded leaf calls.
    """
    total = dict.fromkeys(LAYER_UNITS, 0.0)
    leaves: dict[str, list] = {}
    width_nodes = 0
    search_s = 0.0
    for spans in spans_per_command:
        by_id = {s["id"]: s for s in spans}
        self_s = {s["id"]: s["end"] - s["start"] for s in spans}
        for s in spans:
            for name, (calls, secs) in s["leaves"].items():
                agg = leaves.setdefault(name, [0, 0.0])
                agg[0] += calls
                agg[1] += secs
                self_s[s["id"]] -= secs
            if s["parent"] is not None:
                self_s[s["parent"]] -= s["end"] - s["start"]
        for s in spans:
            name, dur = s["name"], s["end"] - s["start"]
            parent = by_id.get(s["parent"], {}).get("name", "")
            if name == "chains.bounded_chain_partition":
                total["chains.partition_s"] += dur
            elif name.startswith("constructions.") and not parent.startswith("constructions."):
                total["constructions.build_s"] += dur
            elif name == "analysis.width":
                total["analysis.width_s"] += dur
                width_nodes += s["count"]
            elif name == "analysis.is_cutset":
                total["analysis.is_cutset_s"] += dur
            elif name.startswith("search."):
                total["search.self_s"] += self_s[s["id"]]
                if "count" in s:
                    total["search.nodes_expanded"] += s["count"]
                    search_s += dur
            elif name == "cli.main":
                total["cli.self_s"] += self_s[s["id"]]
    for leaf, (calls_key, secs_key) in {
        "lattice.level_masks": ("lattice.level_masks_calls", "lattice.level_masks_s"),
        "analysis.matcher_push": ("analysis.matcher_push_calls", "analysis.matcher_push_s"),
        "analysis.matcher_pop": (None, "analysis.matcher_pop_s"),
        "analysis.missed_chain_masks": ("analysis.missed_chain_calls", "analysis.missed_chain_s"),
    }.items():
        calls, secs = leaves.get(leaf, (0, 0.0))
        if calls_key:
            total[calls_key] = calls
        total[secs_key] = secs
    total["search.nodes_expanded"] = int(total["search.nodes_expanded"])
    total["analysis.width_nodes_per_s"] = width_nodes / total["analysis.width_s"] if width_nodes else 0.0
    total["search.nodes_per_s"] = total["search.nodes_expanded"] / search_s if search_s else 0.0
    return total


# -- the run ----------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, time.monotonic() + DEADLINE_S)
    try:
        return measure(runner, name, seed, seconds, trace)
    finally:
        runner.close()


def measure(runner: Runner, name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = runner.work
    setup, make_ops = WORKLOADS[name]

    # Set-up: a first process that imports the CLI, then the input files.
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        _, rc, _ = runner.launch([sys.executable, "-m", "boolcut.cli", "--help"],
                                 work / "import.out", work / "import.err")
        if rc != 0:
            raise RuntimeError(f"boolcut does not start: {(work / 'import.err').read_text()}")
        state = setup(work, seed)
        setups.append(time.perf_counter() - t0)
    ops = make_ops(work, state)

    rounds = []
    measure_start = time.monotonic()
    if trace:
        rounds.append(runner.run_round(ops, False, 0))
        rounds.append(runner.run_round(ops, True, 1))
    else:
        while True:
            rounds.append(runner.run_round(ops, False, len(rounds)))
            elapsed = time.monotonic() - measure_start
            if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                break
    for r in rounds:
        print(f"{name} round {len(r['commands'])} commands{' traced' if r['traced'] else ''}: "
              f"{r['seconds']:.3f} s, settled {r['settled']}", file=sys.stderr)

    if trace:
        layers = layer_metrics([c["spans"] for c in rounds[1]["commands"]])
        layers["trace.overhead_s"] = rounds[1]["seconds"] - rounds[0]["seconds"]
        if name == "search":
            cli_nodes = sum(checks.last_json_line(c["stdout"])["stats"]["nodes_expanded"]
                            for c in rounds[1]["commands"] if "error" not in c)
            if cli_nodes != layers["search.nodes_expanded"]:
                runner.errors.append(f"traced nodes {layers['search.nodes_expanded']} "
                                     f"!= CLI stats {cli_nodes}")
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layers.items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["seconds"] for r in rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": runner.peak_rss_kb / 1024, "unit": "MB"},
            "settled_values": {"value": min(r["settled"] for r in rounds), "unit": "count"},
        }
    result = {"correct": not runner.errors, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    for error in runner.errors:
        print(f"check failed: {error}", file=sys.stderr)
    detail = {"workload": name, "seed": seed, "seconds": seconds, "setups_s": setups,
              "rounds": rounds, "errors": runner.errors, "result": result}
    out = WORK / f"{'trace' if trace else 'result'}-{name}.json"
    out.write_text(json.dumps(detail, indent=1))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "boolcut" / "cli.py").is_file():
        print(f"error: boolcut sources not found under {SRC}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        for key, m in result["metrics"].items():
            print(f"{name:8} {key:28} {m['value']:>16.6f} {m['unit']}")
        print(f"{name:8} attempted {result['attempted']} failed {result['failed']} "
              f"correct {str(result['correct']).lower()}")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
