"""Command-line interface: construct, verify, search, report, identities.

Exit codes: 0 success, 1 internal error (a result failed its own
re-verification; a bug, reported with a traceback), 2 parameter or input
error, 3 verification failure (a claimed cutset is not one), 4 search
budget exhausted.  All output is JSON or CSV; every command is
deterministic, so artifacts are stable across runs (there is no
randomness anywhere, hence no seed flags).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import os
import sys
import threading
from typing import Optional

from . import analysis, constructions, formulas, search
from .constructions import Cutset
from .errors import DomainError, InternalError
from .lattice import MAX_GROUND, TruncatedLattice
from .search import SearchBudget, SearchStatus

# The most nodes construct and verify enumerate unless told otherwise: the
# is_cutset sweep over the 236,912 nodes of B_18(6, 12) takes about a second.
DEFAULT_MAX_LATTICE_NODES = 250_000

_REPORT_HEADER = [
    "n",
    "m",
    "l",
    "c",
    "conjectured_h",
    "g_formula",
    "construction_count",
    "searched_h",
    "searched_g",
    "flags",
]


def _budget_from(args) -> SearchBudget:
    return SearchBudget(
        max_nodes_expanded=args.max_nodes, wall_clock_limit=args.time_limit
    )


def _add_size_flag(p: argparse.ArgumentParser, default: int) -> None:
    p.add_argument(
        "--max-lattice-nodes",
        type=int,
        default=default,
        help=f"the most nodes this command will enumerate (default {default})",
    )


def _refuse_oversize(what: str, size: int, cap: int) -> None:
    if size > cap:
        raise DomainError(
            f"{what} {size} nodes, above --max-lattice-nodes {cap}; raise it to run anyway"
        )


def _add_budget_flags(p: argparse.ArgumentParser, nodes: int, seconds: float) -> None:
    p.add_argument(
        "--max-nodes",
        type=int,
        default=nodes,
        help=f"search node budget per call (default {nodes})",
    )
    p.add_argument(
        "--time-limit",
        type=float,
        default=seconds,
        help=f"wall-clock budget per call in seconds (default {seconds})",
    )
    _add_size_flag(p, search.DEFAULT_NODE_CAP)


def _construction_size(n: int, m: int, l: int, method: str) -> int:
    """The most nodes the method's cutset of levels m..l can hold.

    k chains over c levels hold at most k * c nodes; where ``method_counts``
    has no count for the method, the lattice size bounds the cutset instead.
    """
    counts = constructions.method_counts(n, m, l) if 0 <= m <= l <= n - m else {}
    if method in counts:
        return counts[method] * (l - m + 1)
    return TruncatedLattice(n, m, l).node_count


def cmd_construct(args) -> int:
    expected_l = {"level": args.m, "bicolor": args.m + 1, "fourcolor": args.m + 2}
    if args.method in expected_l and args.l != expected_l[args.method]:
        raise DomainError(
            f"method {args.method} builds levels m..{expected_l[args.method]}, "
            f"but l={args.l} was requested"
        )
    method = (
        constructions.choose_method(args.n, args.m, args.l)
        if args.method == "auto"
        else args.method
    )
    _refuse_oversize(
        f"the {method} cutset of B_{args.n}({args.m}, {args.l}) has up to",
        _construction_size(args.n, args.m, args.l, method),
        args.max_lattice_nodes,
    )
    cut = constructions.BUILDERS[method](args.n, args.m, args.l)
    summary = {
        "method": method,
        "chain_count": cut.chain_count,
        "levels_used": cut.levels_used(),
    }
    payload = json.dumps(cut.to_json())
    if args.out:
        with _open_out(args.out) as f:
            f.write(payload + "\n")
        print(json.dumps(summary))
    else:
        print(payload)
        print(json.dumps(summary), file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    try:
        with open(args.input) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read cutset JSON: {exc}", file=sys.stderr)
        return 2
    cut = Cutset.from_json(data)
    _refuse_oversize(
        f"the lattice B_{cut.lat.n}({cut.lat.m}, {cut.lat.l}) has",
        cut.lat.node_count,
        args.max_lattice_nodes,
    )
    nodes = cut.nodes()
    cut_report = analysis.is_cutset(cut.lat, nodes)
    width_report = analysis.width(nodes)
    out = {
        "is_cutset": cut_report.is_cutset,
        "width": width_report.width,
        "antichain_size": len(width_report.antichain_witness),
        "chain_cover_size": len(width_report.chain_cover),
    }
    if not cut_report.is_cutset:
        out["missed_chain"] = cut_report.missed_chain.to_json()
    print(json.dumps(out))
    return 0 if cut_report.is_cutset else 3


def cmd_search(args) -> int:
    run = search.exact_min_width if args.target == "h" else search.exact_min_per_level
    result = run(args.n, args.m, args.l, _budget_from(args), node_cap=args.max_lattice_nodes)
    print(json.dumps(result.to_json()))
    return 0 if result.status is SearchStatus.EXACT else 4


def _search_cell(result) -> str:
    if result.status is SearchStatus.EXACT:
        return str(result.value)
    if result.status is SearchStatus.BOUNDS:
        return f"{result.lower}..{result.upper}"
    return "UNKNOWN"


def _flag_token(label: str, value: Optional[bool]) -> str:
    if value is None:
        return label.replace("~", "?")
    return label.replace("~", "=" if value else "!=")


class _WorkerTraceback(Exception):
    """The traceback of an exception raised in a worker, shown as its cause."""


def _exit_with_parent(sentinel) -> None:
    from multiprocessing.connection import wait

    wait([sentinel])
    os._exit(1)


def _search_worker(sender, task) -> None:
    """Search one ``(n, m, l, budget, node_cap)`` task in a forked worker.

    Sends ``(report, None)``, or ``(exception, traceback text)`` when the
    search raises.  A thread ends the worker once the parent has ended,
    however it ended, so that no search outlives ``report``.
    """
    import signal
    import traceback
    from multiprocessing import parent_process

    # The parent owns Ctrl-C and stops its workers.  The worker flushes
    # sys.stdout when it exits, and would print again the CSV rows that the
    # parent had not flushed when it forked.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    sys.stdout = None
    watch = threading.Thread(target=_exit_with_parent, args=(parent_process().sentinel,))
    watch.daemon = True
    watch.start()
    n, m, l, budget, node_cap = task
    try:
        result = search.conjecture_report(n, m, l, budget, node_cap=node_cap), None
    except Exception as exc:
        result = exc, traceback.format_exc()
    sender.send(result)


def _collect(receiver, worker, task):
    """The report a finished worker sent, or the exception to raise in its place."""
    with receiver:
        try:
            value, text = receiver.recv()
        except EOFError:
            value = text = None
    worker.join()
    if value is None:
        n, m, l, *_ = task
        return InternalError(
            f"the search worker for n={n} m={m} l={l} exited with code "
            f"{worker.exitcode} and sent no result"
        )
    if text is not None:
        value.__cause__ = _WorkerTraceback(text)
    return value


def _search_in_workers(tasks):
    """Yield ``search.conjecture_report`` of each ``(n, m, l, budget, node_cap)``, in order.

    Each task runs in a fresh forked process, up to one per usable CPU at a
    time: a long-lived worker would keep the memory of the largest search it
    ever ran.  A free CPU takes the next task as soon as any worker ends.
    Fork keeps what the parent has set on the modules, and only the report
    comes back.  An exception raised in a worker is raised here, in its
    task's turn; so is an InternalError for a worker that ended without a
    result.  Closing the generator kills every worker still running.
    """
    if not tasks:
        return
    import multiprocessing  # here, so that the other commands never import it
    from multiprocessing.connection import wait

    context = multiprocessing.get_context("fork")
    cpus = len(os.sched_getaffinity(0))
    pending = enumerate(tasks)
    running = {}  # receiver -> (index, worker)
    done = {}  # index -> report or exception

    def start(i, task) -> None:
        receiver, sender = context.Pipe(duplex=False)
        worker = context.Process(target=_search_worker, args=(sender, task), daemon=True)
        worker.start()
        # The worker now holds the only sending end, so the receiver reads
        # end-of-file once the worker has exited, whether it sent or not.
        sender.close()
        running[receiver] = i, worker

    try:
        for index in range(len(tasks)):
            while index not in done:
                for i, task in itertools.islice(pending, cpus - len(running)):
                    start(i, task)
                for receiver in wait(list(running)):
                    i, worker = running.pop(receiver)
                    done[i] = _collect(receiver, worker, tasks[i])
            value = done.pop(index)
            if isinstance(value, Exception):
                raise value
            yield value
    finally:
        for _, worker in running.values():
            worker.kill()
            worker.join()


def report_rows(n_values, m_values, budget, node_cap):
    """Yield one report row per instance (n, m, l) with m <= l <= n - m.

    Instances whose lattice exceeds ``node_cap`` keep their formula columns
    but get SKIPPED search cells.  The other instances are searched in
    worker processes (``_search_in_workers``), and their rows still come in
    instance order.  Exact cells must satisfy g <= h <= construction count,
    which holds for every instance; a row breaking it raises InternalError.
    """
    instances = [
        (n, m, l) for n in n_values for m in m_values if m <= n - m for l in range(m, n - m + 1)
    ]
    in_cap = [TruncatedLattice(n, m, l).node_count <= node_cap for n, m, l in instances]
    tasks = [(*inst, budget, node_cap) for inst, ok in zip(instances, in_cap) if ok]
    with contextlib.closing(_search_in_workers(tasks)) as reports:
        for (n, m, l), searched in zip(instances, in_cap):
            conjectured = formulas.conjectured_min_width(n, m, l)
            g_formula = formulas.per_level_bound_value(n, m, l)
            counts = constructions.method_counts(n, m, l)
            construction = min(counts.values()) if counts else None
            if not searched:
                h_cell, g_cell, flags = "SKIPPED", "SKIPPED", "oversize"
            else:
                rep = next(reports)
                h, g = rep.searched_h.value, rep.searched_g.value
                if h is not None and (
                    construction is not None and h > construction
                    or g is not None and g > h
                ):
                    raise InternalError(
                        f"g <= h <= construction fails at n={n} m={m} l={l}: "
                        f"g={g} h={h} construction={construction}"
                    )
                h_cell = _search_cell(rep.searched_h)
                g_cell = _search_cell(rep.searched_g)
                flags = ";".join(
                    [
                        _flag_token("h~conj", rep.equal_flags["h_matches_conjectured"]),
                        _flag_token("g~h", rep.equal_flags["g_matches_h"]),
                        _flag_token(
                            "constr~conj",
                            rep.equal_flags["construction_matches_conjectured"],
                        ),
                    ]
                )
            yield [
                str(n),
                str(m),
                str(l),
                str(l - m + 1),
                str(conjectured),
                "" if g_formula is None else str(g_formula),
                "" if construction is None else str(construction),
                h_cell,
                g_cell,
                flags,
            ]


def cmd_report(args) -> int:
    if args.n_min > args.n_max or args.m_min > args.m_max or args.m_min < 0:
        raise DomainError("empty or negative parameter range")
    # Checked before the first row, so a bad range writes no partial CSV.
    if args.n_max > MAX_GROUND:
        raise DomainError(f"n ranges up to {args.n_max}, above the largest ground set {MAX_GROUND}")
    rows = report_rows(
        range(args.n_min, args.n_max + 1),
        range(args.m_min, args.m_max + 1),
        _budget_from(args),
        args.max_lattice_nodes,
    )
    _write_csv(args.out, _REPORT_HEADER, rows)
    return 0


def cmd_identities(args) -> int:
    records = formulas.check_identities(args.max_n, args.max_m)
    rows = (
        [r.identity, str(r.n), str(r.m), str(r.lhs), str(r.rhs), str(r.ok).lower()]
        for r in records
    )
    _write_csv(args.out, ["identity", "n", "m", "lhs", "rhs", "pass"], rows)
    return 0


def _open_out(path: str, **kwargs):
    try:
        return open(path, "w", **kwargs)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc}") from None


def _write_csv(path: Optional[str], header, rows) -> None:
    def emit(stream):
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)

    if path:
        with _open_out(path, newline="") as f:
            emit(f)
    else:
        emit(sys.stdout)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boolcut",
        description="Cutsets of truncated Boolean lattices: build, verify, search, report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a cutset and emit it as JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument(
        "--method",
        choices=[*constructions.BUILDERS, "auto"],
        default="auto",
    )
    p.add_argument("--out", help="write the cutset JSON here (summary goes to stdout)")
    _add_size_flag(p, DEFAULT_MAX_LATTICE_NODES)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="check a cutset JSON file and measure its width")
    p.add_argument("input", help="path to a cutset JSON file")
    _add_size_flag(p, DEFAULT_MAX_LATTICE_NODES)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="exact minimum width (h) or per-level bound (g)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--target", choices=["h", "g"], default="h")
    _add_budget_flags(p, nodes=2_000_000, seconds=120.0)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("report", help="conjecture-comparison CSV over a parameter range")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--m-min", type=int, default=0)
    p.add_argument("--m-max", type=int, default=32)
    p.add_argument("--out", help="CSV path (default stdout)")
    _add_budget_flags(p, nodes=50_000, seconds=10.0)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("identities", help="binomial identity check table as CSV")
    p.add_argument("--max-n", type=int, default=40)
    p.add_argument("--max-m", type=int, default=10)
    p.add_argument("--out", help="CSV path (default stdout)")
    p.set_defaults(func=cmd_identities)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
