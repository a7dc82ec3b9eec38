#!/usr/bin/env python3
"""Run the conjecture sweep's searches in this process, one at a time, and
list each search's CPU seconds and nodes expanded, heaviest first, with
the number of EXACT searches and the total CPU seconds at the end, then a
sha256 over every search's (target, n, m, l, status, value, witness).

The searches are those of `boolcut report` over the same range: h and g of
every instance (n, m, l) with m <= l <= n - m whose lattice has at most
`--node-cap` nodes, each with a budget of `--max-nodes` nodes and no
effective time limit, so the counts repeat exactly from run to run.  Each
h is searched from 1; the column `report_nodes` gives the nodes of the h
search as `report` runs it, from g's lower bound (the same as `nodes` for
g), which is not timed.  The last line does not depend on timing either,
so two versions of the search that meet the same values and witnesses
print the same last line.

    PYTHONPATH=src python scripts/sweep_searches.py --max-nodes 50000
"""

import argparse
import hashlib
import json
import time

from boolcut.lattice import TruncatedLattice
from boolcut.search import DEFAULT_NODE_CAP, SearchBudget, SearchStatus, exact_search


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n-min", type=int, default=3)
    ap.add_argument("--n-max", type=int, default=12)
    ap.add_argument("--max-nodes", type=int, default=50_000)
    ap.add_argument("--node-cap", type=int, default=DEFAULT_NODE_CAP)
    args = ap.parse_args()

    budget = SearchBudget(args.max_nodes, 3600.0)
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        for m in range(n // 2 + 1):
            for l in range(m, n - m + 1):
                if TruncatedLattice(n, m, l).node_count > args.node_cap:
                    continue
                searched = {}
                for target in ("h", "g"):
                    start = time.process_time()
                    result = exact_search(target, n, m, l, budget, node_cap=args.node_cap)
                    searched[target] = time.process_time() - start, result
                seeded = exact_search(
                    "h", n, m, l, budget, node_cap=args.node_cap, lower=searched["g"][1].lower
                )
                report_nodes = {"h": seeded.nodes_expanded, "g": searched["g"][1].nodes_expanded}
                for target, (cpu, result) in searched.items():
                    rows.append((cpu, f"{target}({n},{m},{l})", result, report_nodes[target]))

    print(f"{'search':<10} {'status':<22} {'cpu_s':>7} {'nodes':>7} {'report_nodes':>12}")
    for cpu, name, r, report_nodes in sorted(rows, key=lambda row: -row[0]):
        print(f"{name:<10} {r.status.value:<22} {cpu:>7.3f} {r.nodes_expanded:>7} "
              f"{report_nodes:>12}")
    exact = sum(r.status is SearchStatus.EXACT for _, _, r, _ in rows)
    print(f"total {len(rows)} searches, {exact} exact, {sum(row[0] for row in rows):.3f} cpu_s")
    # In sweep order, the order of the searches, which timing does not change.
    outcomes = [[name, r.status.value, r.value, r.witness and r.witness.to_json()]
                for _, name, r, _ in rows]
    blob = json.dumps(outcomes, separators=(",", ":")).encode()
    print(f"witnesses sha256 {hashlib.sha256(blob).hexdigest()}")


if __name__ == "__main__":
    main()
