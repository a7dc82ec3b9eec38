"""Exact computation of minimum cutset invariants on small lattices.

Two quantities are computed by iterative deepening on a shared
chain-hitting branch engine:

* h(n, m, l), the minimum width of a cutset, and
* g(n, m, l), the least k such that some cutset has at most k nodes on
  every level.

The decision subproblem "is there a cutset with objective <= target?" is
solved by branching on the lexicographically least maximal chain missed by
the current selection: any cutset must contain one of its nodes, so trying
each node (in ascending numeric order) is exhaustive.  The width objective
is maintained incrementally, one matching augmentation per added node; the
per-level objective keeps plain counters.  Both objectives only grow as
nodes are added, so a branch whose objective exceeds the target is cut.
A visited-set skips selections already proven infeasible at the current
target, which only removes work (feasible selections are never recorded).
Each result counts its prunes by reason: ``objective``, ``chain_bound``
and ``memo`` (a visited-set hit).

Only canonical selections are searched: for each lowest occupied level i
in m..l in turn, the node {1..i} is pinned and candidates below level i are
skipped.  This is sound because a permutation of [n] preserves inclusion,
levels and maximal chains, so relabelling any cutset to move one of its
lowest nodes onto {1..i} keeps it a cutset with the same objective.

A chain-counting bound (the LYM argument of Yamamoto and Lubell, applied
to the chains still unhit) cuts selections that cannot be completed.  Two
path counts over the unselected nodes give ``up[v]``, the unhit chains
from v to level l, and ``down[v]``, those from level m to v; U, the sum of
``up`` over level m, counts all unhit chains, and ``down[v] * up[v]`` of
them pass through v.  Every level is an antichain, so a completion with
objective <= k (width or per-level count) adds at most ``k - count_i``
nodes on level i, and none below the pinned level.  Each unhit chain needs
an added node, so when the largest allowed products on each level sum to
less than U no completion exists and the selection is cut.  The same
``up`` sweep finds the least missed chain (``analysis.missed_chain_masks``),
so the bound adds one forward sweep and one sort per level.

Searches are exact or fail loudly: a budget interruption yields bounds or
UNKNOWN, never a wrong value, and every EXACT result re-verifies its
witness before returning.  The engine is sequential and fully
deterministic, so returned values and witnesses are reproducible.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from operator import mul
from typing import Optional

from . import analysis, formulas
from .analysis import InclusionMatcher, cover_lists, missed_chain_masks
from .chains import Chain
from .constructions import Cutset, method_counts
from .errors import DomainError, InternalError
from .lattice import MAX_GROUND, NodeSet, TruncatedLattice, level_masks

DEFAULT_NODE_CAP = 64


@dataclass(frozen=True)
class SearchBudget:
    """Resource limits for one exact search call.

    Both must be positive: ``max_nodes_expanded`` an int (not a bool) and
    ``wall_clock_limit`` a number of seconds (not NaN).  Node budgets make
    interruption deterministic; wall-clock limits are a safety net.
    """

    max_nodes_expanded: int = 2_000_000
    wall_clock_limit: float = 120.0

    def __post_init__(self) -> None:
        nodes, seconds = self.max_nodes_expanded, self.wall_clock_limit
        # "not seconds > 0" also holds for NaN, which compares false to everything.
        if type(nodes) is not int or nodes <= 0 or not seconds > 0:
            raise DomainError(f"budget limits must be positive, got {nodes!r} nodes, {seconds!r} s")


class SearchStatus(Enum):
    EXACT = "EXACT"
    BOUNDS = "LOWER_AND_UPPER_BOUNDS"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an exact search: a value with witness, or bounds.

    EXACT implies lower == value == upper and a witness that has been
    re-verified (it is a cutset and attains the value).  The witness
    stores the selected nodes as singleton chains; it need not admit a
    saturated chain cover of minimum size.  ``prunes`` counts the cut
    branches by reason: ``objective``, ``chain_bound`` and ``memo``.
    """

    status: SearchStatus
    value: Optional[int]
    lower: int
    upper: int
    witness: Optional[Cutset]
    nodes_expanded: int
    prunes: dict[str, int]
    elapsed: float

    def to_json(self) -> dict:
        return {
            "status": self.status.value,
            "value": self.value,
            "lower": self.lower,
            "upper": self.upper,
            "witness": None if self.witness is None else self.witness.to_json(),
            "stats": {
                "nodes_expanded": self.nodes_expanded,
                "prunes": dict(self.prunes),
                "elapsed_seconds": round(self.elapsed, 6),
            },
        }


class _Exhausted(Exception):
    pass


class _Budget:
    __slots__ = ("max_nodes", "deadline", "expanded", "prunes")

    def __init__(self, budget: SearchBudget) -> None:
        self.max_nodes = budget.max_nodes_expanded
        self.deadline = time.monotonic() + budget.wall_clock_limit
        self.expanded = 0
        self.prunes = {"objective": 0, "chain_bound": 0, "memo": 0}

    def tick(self) -> None:
        self.expanded += 1
        if self.expanded > self.max_nodes or time.monotonic() > self.deadline:
            raise _Exhausted


class _WidthGoal:
    """Objective for h: width of the selection, via incremental matching."""

    def __init__(self) -> None:
        self._matcher = InclusionMatcher()

    def push(self, v: int) -> int:
        self._matcher.push(v)
        return self._matcher.width

    def pop(self, v: int) -> None:
        self._matcher.pop()


class _PerLevelGoal:
    """Objective for g: the count on the level just touched."""

    def __init__(self) -> None:
        self._counts = [0] * (MAX_GROUND + 1)

    def push(self, v: int) -> int:
        i = v.bit_count()
        self._counts[i] += 1
        return self._counts[i]

    def pop(self, v: int) -> None:
        self._counts[v.bit_count()] -= 1


def _lower_covers(levels, covers) -> list[list[list[int]]]:
    """Positions of each node's lower covers, for every level but the bottom."""
    below = [[[] for _ in lv] for lv in levels[1:]]
    for cov, rows in zip(covers, below):
        for j, cs in enumerate(cov):
            for c in cs:
                rows[c].append(j)
    return below


def _short_of_chains(up, below, room) -> bool:
    """True when no allowed completion can hit every unhit chain.

    ``up`` is the per-level count of unhit chains from each node to the top
    level, ``below`` the positions of each node's lower covers and ``room``
    the most nodes a completion may still add on each level.  Exactly
    ``down[v] * up[v]`` unhit chains pass through v, where ``down[v]``
    counts unhit chains from the bottom level to v.
    """
    total = sum(up[0])
    down = [1 if u else 0 for u in up[0]]
    reach = sum(sorted(up[0], reverse=True)[: room[0]])
    for ups, bs, r in zip(up[1:], below, room[1:]):
        if reach >= total:
            return False
        # A node with no unhit chain above it feeds no node that has one.
        at = down.__getitem__
        down = [sum(map(at, b)) if u else 0 for u, b in zip(ups, bs)]
        if r:
            reach += sum(sorted(map(mul, down, ups), reverse=True)[:r])
    return reach < total


def _decide(levels, covers, below, limit, goal_cls, bud, lowest) -> Optional[list[int]]:
    """Find a selection meeting every maximal chain with objective <= limit.

    The node {1..lowest} is pinned and candidates below ``lowest`` are
    skipped.  Sound: relabelling [n] moves a lowest node of any cutset whose
    lowest level is ``lowest`` onto {1..lowest} without changing its
    objective, and branching on the least missed chain is exhaustive among
    cutsets holding the current selection.  The pinned node is in every
    selection here, so memo keys leave it out.

    A selection is also cut when the nodes it may still add cannot hit all
    of its U unhit chains (see ``_short_of_chains``).  Sound: a level is an
    antichain, so an objective <= limit (width or per-level count) allows
    at most ``limit - count_i`` more nodes on level i, and none below
    ``lowest``; every unhit chain needs one added node, and an added node v
    hits exactly ``down[v] * up[v]`` of them.  If the largest allowed such
    products sum to less than U, no completion exists, so the selection is
    infeasible and goes into the memo.  Returns the selection in insertion
    order, or None when no such selection exists.
    """
    m = levels[0][0].bit_count()
    pinned = (1 << lowest) - 1
    goal = goal_cls()
    goal.push(pinned)
    selected = {pinned}
    order = [pinned]
    room = [limit if i >= lowest else 0 for i in range(m, m + len(levels))]
    room[lowest - m] -= 1
    seen: set[frozenset[int]] = set()
    prunes = bud.prunes

    def dfs() -> bool:
        bud.tick()
        key = frozenset(order[1:])
        if key in seen:
            prunes["memo"] += 1
            return False
        found = missed_chain_masks(levels, covers, selected)
        if found is None:
            return True
        seen.add(key)
        path, up = found
        if _short_of_chains(up, below, room):
            prunes["chain_bound"] += 1
            return False
        for v in path:
            i = v.bit_count()
            if i < lowest:
                continue
            if goal.push(v) > limit:
                prunes["objective"] += 1
            else:
                selected.add(v)
                order.append(v)
                room[i - m] -= 1
                if dfs():
                    return True
                selected.remove(v)
                order.pop()
                room[i - m] += 1
            goal.pop(v)
        return False

    return order if dfs() else None


def _witness(n: int, m: int, l: int, selection: list[int]) -> Cutset:
    lat = TruncatedLattice(n, m, l)
    return Cutset(lat, tuple(Chain((NodeSet(v, n),)) for v in sorted(selection)))


def _run(n, m, l, budget, node_cap, goal_cls, measure) -> SearchResult:
    if not 0 <= m <= l <= n - m:
        raise DomainError(f"need 0 <= m <= l <= n - m, got n={n} m={m} l={l}")
    node_count = TruncatedLattice(n, m, l).node_count
    if node_count > node_cap:
        raise DomainError(
            f"lattice has {node_count} nodes, above the cap {node_cap}; "
            "raise the cap to search anyway"
        )
    levels = [level_masks(n, i) for i in range(m, l + 1)]
    covers = cover_lists(levels, n)
    below = _lower_covers(levels, covers)
    bud = _Budget(budget or SearchBudget())
    start = time.monotonic()
    # Any single level between m and l is itself a cutset, which bounds both
    # objectives by the smaller of the two extreme level sizes.
    trivial_upper = min(len(levels[0]), len(levels[-1]))
    target = 1
    try:
        while target <= trivial_upper:
            for lowest in range(m, l + 1):
                selection = _decide(levels, covers, below, target, goal_cls, bud, lowest)
                if selection is None:
                    continue
                wit = _witness(n, m, l, selection)
                nodes = wit.nodes()
                if not analysis.is_cutset(wit.lat, nodes).is_cutset or measure(nodes) != target:
                    raise InternalError(
                        f"witness for n={n} m={m} l={l} at {target} failed re-verification"
                    )
                elapsed = time.monotonic() - start
                return SearchResult(
                    SearchStatus.EXACT, target, target, target, wit, bud.expanded,
                    bud.prunes, elapsed,
                )
            target += 1
        raise InternalError("deepening exceeded the trivial upper bound")
    except _Exhausted:
        elapsed = time.monotonic() - start
        status = SearchStatus.BOUNDS if target > 1 else SearchStatus.UNKNOWN
        return SearchResult(
            status, None, target, trivial_upper, None, bud.expanded, bud.prunes, elapsed
        )


def exact_min_width(
    n: int,
    m: int,
    l: int,
    budget: Optional[SearchBudget] = None,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
) -> SearchResult:
    """Exact h(n, m, l): the minimum width over all cutsets of levels m..l.

    Iterative deepening on the target width, starting from 1.
    """
    return _run(n, m, l, budget, node_cap, _WidthGoal, lambda nodes: analysis.width(nodes).width)


def exact_min_per_level(
    n: int,
    m: int,
    l: int,
    budget: Optional[SearchBudget] = None,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
) -> SearchResult:
    """Exact g(n, m, l): least k with a cutset holding <= k nodes per level."""
    return _run(
        n, m, l, budget, node_cap, _PerLevelGoal,
        lambda nodes: max(Counter(a.level for a in nodes).values()),
    )


@dataclass(frozen=True)
class ConjectureReport:
    """Side-by-side values for one instance; draws no conclusions.

    ``equal_flags`` entries are None whenever a comparison is undecidable
    (a search did not reach EXACT, or no construction applies).  The
    conjectured formulas are stated for n much larger than m, so searched
    values on small instances may legitimately differ from them.
    ``symmetric_g_value`` carries the conjectured symmetric-case bound
    when l = n - m, as an open comparison only.
    """

    n: int
    m: int
    l: int
    c: int
    conjectured_h: int
    searched_h: SearchResult
    searched_g: SearchResult
    construction_upper_bound: Optional[int]
    symmetric_g_value: Optional[int]
    equal_flags: dict

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "l": self.l,
            "c": self.c,
            "conjectured_h": self.conjectured_h,
            "searched_h": self.searched_h.to_json(),
            "searched_g": self.searched_g.to_json(),
            "construction_upper_bound": self.construction_upper_bound,
            "symmetric_g_value": self.symmetric_g_value,
            "equal_flags": dict(self.equal_flags),
        }


def _maybe_eq(a: Optional[int], b: Optional[int]) -> Optional[bool]:
    if a is None or b is None:
        return None
    return a == b


def conjecture_report(
    n: int,
    m: int,
    l: int,
    budget: Optional[SearchBudget] = None,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
) -> ConjectureReport:
    """Compare conjectured, searched, and constructed values on one instance."""
    conjectured = formulas.conjectured_min_width(n, m, l)
    searched_h = exact_min_width(n, m, l, budget, node_cap=node_cap)
    searched_g = exact_min_per_level(n, m, l, budget, node_cap=node_cap)
    counts = method_counts(n, m, l)
    upper = min(counts.values()) if counts else None
    symmetric = (
        formulas.symmetric_per_level_bound(n, m) if l == n - m and n >= 1 else None
    )
    flags = {
        "h_matches_conjectured": _maybe_eq(searched_h.value, conjectured),
        "g_matches_h": _maybe_eq(searched_g.value, searched_h.value),
        "construction_matches_conjectured": _maybe_eq(upper, conjectured),
    }
    flags["all_equal"] = (
        None if any(v is None for v in flags.values()) else all(flags.values())
    )
    return ConjectureReport(
        n=n,
        m=m,
        l=l,
        c=l - m + 1,
        conjectured_h=conjectured,
        searched_h=searched_h,
        searched_g=searched_g,
        construction_upper_bound=upper,
        symmetric_g_value=symmetric,
        equal_flags=flags,
    )
