"""Command-line interface: construct, verify, search, report, identities.

Exit codes: 0 success, 1 internal error (a result failed its own
re-verification; a bug, reported with a traceback), 2 parameter or input
error, 3 verification failure (a claimed cutset is not one), 4 search
budget exhausted.  A reader that closes stdout early ends the command
quietly with 0.  All output is JSON or CSV; every command is
deterministic, so artifacts are stable across runs (there is no
randomness anywhere, hence no seed flags).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from . import defaults
from .errors import DomainError

# Each command imports the library modules it runs, and json or csv, so that
# `--help` and a bad argument load none of them, `construct` and `verify` no
# search, and only `report` the module of its workers.

# The most nodes construct and verify enumerate unless told otherwise: verify
# of the product cutset of B_18(6, 12), a lattice of 236,912 nodes, takes
# about 0.7 s (scripts/verify_memory.py, BENCH_verify.json).
DEFAULT_MAX_LATTICE_NODES = 250_000

# The most nodes verify matches when the file's chains do not prove the
# width: the matching took 0.7 s on the 5,342 nodes of product(16,4,8) and
# 29 s on the 17,938 of product(17,5,10).
MAX_MATCHED_NODES = 10_000


def _budget_from(args):
    from .search import SearchBudget

    return SearchBudget(
        max_nodes_expanded=args.max_nodes, wall_clock_limit=args.time_limit
    )


def _node_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _add_size_flag(p: argparse.ArgumentParser, default: int) -> None:
    p.add_argument(
        "--max-lattice-nodes",
        type=_node_count,
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
    _add_size_flag(p, defaults.DEFAULT_NODE_CAP)


def cmd_construct(args) -> int:
    import json

    from . import constructions

    n, m, l = args.n, args.m, args.l
    counts = constructions.method_counts(n, m, l)
    method = constructions.choose_method(n, m, l) if args.method == "auto" else args.method
    if method not in counts:
        raise DomainError(f"method {method} does not apply to n={n} m={m} l={l}")
    _refuse_oversize(
        f"the {method} cutset of B_{n}({m}, {l}) has up to",
        counts[method] * (l - m + 1),
        args.max_lattice_nodes,
    )
    cut = constructions.BUILDERS[method](n, m, l)
    summary = {
        "method": method,
        "chain_count": cut.chain_count,
        "levels_used": cut.levels_used(),
    }
    if args.out:
        with _open_out(args.out) as f:
            cut.write_json(f)
            f.write("\n")
        print(json.dumps(summary))
    else:
        cut.write_json(sys.stdout)
        print()
        print(json.dumps(summary), file=sys.stderr)
    return 0


def _read_cutset(path: str):
    """The cutset in the JSON file at ``path``; the parsed document is freed on return."""
    import json

    from .constructions import Cutset

    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError, RecursionError) as exc:
        raise DomainError(f"cannot read cutset JSON: {exc}") from None
    return Cutset.from_json(data)


def cmd_verify(args) -> int:
    import json

    from . import analysis

    cut = _read_cutset(args.input)
    _refuse_oversize(
        f"the lattice B_{cut.lat.n}({cut.lat.m}, {cut.lat.l}) has",
        cut.lat.node_count,
        args.max_lattice_nodes,
    )
    nodes = cut.node_masks()
    # The maximum antichain and the least chain cover have the width's size
    # (Dilworth; ``width`` checks its certificates), so the file's chains,
    # when they prove the width, stand in for the matching.
    w = analysis.chain_certificate(cut.chain_masks, len(nodes))
    if w is None and len(nodes) > MAX_MATCHED_NODES:
        raise DomainError(
            f"the chains do not prove the width, and matching the cutset's "
            f"{len(nodes)} nodes is above the limit of {MAX_MATCHED_NODES}"
        )
    cut_report = analysis.is_cutset(cut.lat, nodes)
    if w is None:
        w = analysis.width(cut.nodes()).width
    out = {
        "is_cutset": cut_report.is_cutset,
        "width": w,
        "antichain_size": w,
        "chain_cover_size": w,
    }
    if not cut_report.is_cutset:
        out["missed_chain"] = cut_report.missed_chain.to_json()
    print(json.dumps(out))
    return 0 if cut_report.is_cutset else 3


def cmd_search(args) -> int:
    import json

    from . import search

    result = search.exact_search(
        args.target, args.n, args.m, args.l, _budget_from(args), node_cap=args.max_lattice_nodes
    )
    print(json.dumps(result.to_json()))
    return 0 if result.status is search.SearchStatus.EXACT else 4


def cmd_report(args) -> int:
    from .lattice import MAX_GROUND
    from .report import _REPORT_HEADER, report_rows

    if args.n_min > args.n_max or args.m_min > args.m_max or args.m_min < 0:
        raise DomainError("empty or negative parameter range")
    # Checked before the first row, so a bad range writes no partial CSV.
    if args.n_max > MAX_GROUND:
        raise DomainError(f"n ranges up to {args.n_max}, above the largest ground set {MAX_GROUND}")
    # Only 0 <= 2m <= n gives an instance, so both ranges are clipped to the
    # instances before the rows are made: the rows stay the same, and a
    # bound a billion past them costs nothing.
    rows = report_rows(
        range(max(args.n_min, 2 * args.m_min), args.n_max + 1),
        range(args.m_min, min(args.m_max, args.n_max // 2) + 1),
        _budget_from(args),
        args.max_lattice_nodes,
    )
    _write_csv(args.out, _REPORT_HEADER, rows)
    return 0


def cmd_identities(args) -> int:
    from . import formulas

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
    import csv

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
        choices=[*defaults.METHODS, "auto"],
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
    _add_budget_flags(p, nodes=defaults.MAX_NODES_EXPANDED, seconds=defaults.WALL_CLOCK_LIMIT)
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
        code = args.func(args)
        sys.stdout.flush()
        return code
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader of stdout is gone, as in `boolcut report | head -1`.
        # Python flushes stdout again at exit; /dev/null takes that write.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
