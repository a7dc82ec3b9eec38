"""Exact computation of minimum cutset invariants on small lattices.

Two quantities are computed by iterative deepening on a shared
chain-hitting branch engine:

* h(n, m, l), the minimum width of a cutset, and
* g(n, m, l), the least k such that some cutset has at most k nodes on
  every level.

The decision subproblem "is there a cutset with objective <= target?" is
solved by branching on the lexicographically least maximal chain missed by
the current selection: any cutset must contain one of its nodes, so trying
each node (in ascending numeric order) is exhaustive.  Both objectives
only grow as nodes are added, so a branch whose objective exceeds the
target is cut.  One list, ``room``, holds how many more nodes each level
may take, the target minus its count; it is the per-level objective.  A
level is an antichain, so a node on a level without room also makes the
width exceed the target; for h, a node that passes that test is pushed
into an incremental matching (one augmentation) and cut if the width does.
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
from v to level l, and ``down[v]``, the saturated paths from level m to
v; U, the sum of ``up`` over level m, counts all unhit chains, and
``down[v] * up[v]`` of them pass through v.  Every level is an antichain,
so a completion with objective <= k (width or per-level count) adds at
most ``k - count_i`` nodes on level i (its ``room``), and none below the
pinned level.  Each unhit chain needs an added node, so when the largest
allowed products on each level sum to less than U no completion exists
and the selection is cut.  The least missed chain is the greedy walk over
``up`` (``analysis.least_missed_chain``).

Both counts are kept incrementally (``_ChainCounts``): one full sweep
each over the empty selection when a decision call starts, then each
selected node v removes exactly the unhit chains through v, ``up[v]``
times the live paths from a node below v to v and ``down[v]`` times those
from v to a node above it, and undo restores the old counts from a trail.
``down`` is a plain live-path count, not zeroed where ``up`` is 0: a
product with ``up`` 0 is 0 anyway, and every live path into a node whose
``up`` is positive passes only nodes whose ``up`` is positive, so each
product ``down * up`` is still the count of unhit chains through the
node.  The memo key is an integer with one bit per lattice node, set
exactly for the selected nodes; it is injective, so the memo makes the
same hits as one keyed by the node set.

Searches are exact or fail loudly: a budget interruption yields bounds or
UNKNOWN, never a wrong value, and every EXACT result re-verifies its
witness before returning.  The engine is sequential and fully
deterministic, so returned values and witnesses are reproducible.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from operator import mul
from typing import Optional

from . import analysis, formulas
from .analysis import InclusionMatcher, cover_lists, least_missed_chain, missed_chain_masks
from .chains import Chain
from .constructions import Cutset, method_counts
from .errors import DomainError, InternalError
from .lattice import NodeSet, TruncatedLattice, level_masks

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
    ``memo_peak`` is the most selections one decision call held in its
    memo, the largest over the calls of the search.
    """

    status: SearchStatus
    value: Optional[int]
    lower: int
    upper: int
    witness: Optional[Cutset]
    nodes_expanded: int
    prunes: dict[str, int]
    memo_peak: int
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
                "memo_peak": self.memo_peak,
                "elapsed_seconds": round(self.elapsed, 6),
            },
        }


class _Exhausted(Exception):
    pass


class _Budget:
    __slots__ = ("max_nodes", "deadline", "expanded", "prunes", "memo_peak")

    def __init__(self, budget: SearchBudget) -> None:
        self.max_nodes = budget.max_nodes_expanded
        self.deadline = time.monotonic() + budget.wall_clock_limit
        self.expanded = 0
        self.prunes = {"objective": 0, "chain_bound": 0, "memo": 0}
        self.memo_peak = 0

    def tick(self) -> None:
        self.expanded += 1
        if self.expanded > self.max_nodes or time.monotonic() > self.deadline:
            raise _Exhausted


def _short_of_chains(up, down, room) -> bool:
    """True when no allowed completion can hit every unhit chain.

    ``up`` and ``down`` are the per-level counts of ``_ChainCounts`` and
    ``room`` the most nodes a completion may still add on each level.
    Exactly ``down[v] * up[v]`` unhit chains pass through v, and U, the sum
    of ``up`` over the bottom level, counts them all.
    """
    total = sum(up[0])
    reach = 0
    for ups, downs, r in zip(up, down, room):
        if r:
            reach += sum(sorted(map(mul, downs, ups), reverse=True)[:r])
            if reach >= total:
                return False
    return reach < total


def _lower_covers(levels, covers):
    """Positions of each node's lower covers in the level below, for every level but the bottom."""
    below = [[[] for _ in lv] for lv in levels[1:]]
    for rows, cov in zip(below, covers):
        for j, cs in enumerate(cov):
            for c in cs:
                rows[c].append(j)
    return below


def _remove_paths(trail, rows, steps, j, gain) -> None:
    """Subtract ``gain`` times the live path count from j from each row in turn.

    ``rows`` are the count lists of the levels walked, nearest first, and
    ``steps[k]`` maps a position on the level before ``rows[k]`` to its
    neighbours on ``rows[k]``.  A node is walked only where its count is
    nonzero; old values go onto ``trail``.
    """
    push = trail.append
    paths = {j: 1}
    for row, step in zip(rows, steps):
        nxt = defaultdict(int)
        for x, p in paths.items():
            for w in step[x]:
                if row[w]:
                    nxt[w] += p
        if not nxt:
            return
        for w, p in nxt.items():
            old = row[w]
            push((row, w, old))
            row[w] = old - p * gain
        paths = nxt


class _ChainCounts:
    """Unhit-chain counts of one growing selection, kept under select and undo.

    ``up[i][j]`` counts the unhit chains from the j-th node of level m + i to
    the top level and ``down[i][j]`` the saturated paths from the bottom level
    to it, both through unselected (live) nodes only, so both are 0 on a
    selected node.  ``key`` has bit ``base[i] + j`` set exactly when that
    node is selected.  The selection starts empty, with ``up`` from one
    ``missed_chain_masks`` sweep and ``down`` from one forward sweep; after
    that ``select`` and ``undo`` update all three in place, the old counts
    going onto ``trail`` as ``(list, index, old)``.
    """

    __slots__ = ("levels", "covers", "below", "base", "up", "down", "key", "trail", "marks")

    def __init__(self, levels, covers, below) -> None:
        self.levels, self.covers, self.below = levels, covers, below
        self.base = list(accumulate(map(len, levels), initial=0))
        # Every maximal chain misses the empty selection, so this is never None.
        self.up = missed_chain_masks(levels, covers, set())[1]
        self.down = [[1] * len(levels[0])]
        for lv, cov in zip(levels[1:], covers):
            row = [0] * len(lv)
            for d, cs in zip(self.down[-1], cov):
                for c in cs:
                    row[c] += d
            self.down.append(row)
        self.key = 0
        self.trail: list[tuple[list[int], int, int]] = []
        self.marks: list[tuple[int, int]] = []

    def bit(self, i: int, j: int) -> int:
        return 1 << self.base[i] + j

    def select(self, i: int, j: int) -> None:
        """Select the live j-th node v of level m + i.

        The unhit chains that v removes run through v: ``P(w, v) * up[v]``
        of them start at a live node w below v and ``down[v] * P(v, w)`` end
        at a live node w above it, where P counts the saturated paths
        between two nodes whose inner nodes are live.  Each walk leaves v
        over its lower (upper) covers and keeps only nodes with a nonzero
        count: a live node with a live path to v has ``up`` at least
        ``up[v]`` (``down`` at least ``down[v]``), so when that is positive
        the nonzero nodes are exactly the live ones.
        """
        trail = self.trail
        bit = self.bit(i, j)
        self.marks.append((len(trail), bit))
        self.key ^= bit
        ups, downs = self.up[i], self.down[i]
        u, d = ups[j], downs[j]
        trail.append((ups, j, u))
        trail.append((downs, j, d))
        ups[j] = downs[j] = 0
        if u:
            _remove_paths(trail, reversed(self.up[:i]), reversed(self.below[:i]), j, u)
        if d:
            _remove_paths(trail, self.down[i + 1:], self.covers[i:], j, d)

    def undo(self) -> None:
        """Undo the latest ``select`` that is not undone yet."""
        mark, bit = self.marks.pop()
        self.key ^= bit
        trail = self.trail
        for row, j, old in reversed(trail[mark:]):
            row[j] = old
        del trail[mark:]

    def selection(self) -> set[int]:
        flat = [v for lv in self.levels for v in lv]
        return {v for b, v in enumerate(flat) if self.key >> b & 1}


def _decide(levels, covers, below, limit, width, bud, lowest) -> Optional[set[int]]:
    """Find a selection meeting every maximal chain with objective <= limit.

    The objective is the width when ``width`` is true (h), else the largest
    count on one level (g).  ``room[i]`` is the most nodes level m + i may
    still take: ``limit`` minus its count from ``lowest`` up, 0 below.  A
    candidate on a level with no room is cut for both objectives, because a
    level is an antichain: a (limit + 1)-th node on one level makes the
    width, like the count, exceed ``limit``.  For h a candidate that passes
    is pushed into an ``InclusionMatcher`` and cut when the width exceeds
    ``limit``.

    The node {1..lowest} is pinned and candidates below ``lowest`` are
    skipped.  Sound: relabelling [n] moves a lowest node of any cutset whose
    lowest level is ``lowest`` onto {1..lowest} without changing its
    objective, and branching on the least missed chain is exhaustive among
    cutsets holding the current selection.

    The memo keys a selection by ``_ChainCounts.key``, one bit per lattice
    node.  Two selections get the same key exactly when they hold the same
    nodes, so the memo makes the same hits as one keyed by the node set.  A
    child's key is looked up before its counts are updated, so a memo hit
    costs no update.

    A selection is also cut when the nodes it may still add cannot hit all
    of its U unhit chains (see ``_short_of_chains``).  Sound: by the same
    antichain argument a completion adds at most ``room[i]`` nodes on level
    m + i; every unhit chain needs one added node, and an added node v hits
    exactly ``down[v] * up[v]`` of them.  If the largest allowed such
    products sum to less than U, no completion exists, so the selection is
    infeasible and goes into the memo.  The counts are kept incrementally:
    selecting v removes exactly the unhit chains through v, and
    ``_ChainCounts.select`` subtracts them from the counts of the live
    nodes below and above v.  ``down`` counts live paths from the bottom
    level even where ``up`` is 0; that leaves every product unchanged,
    because a product with ``up`` 0 is 0 and a live path into a node with
    positive ``up`` runs only through nodes with positive ``up``.  Returns
    the selection, or None when no such selection exists.
    """
    m = levels[0][0].bit_count()
    pinned = (1 << lowest) - 1
    matcher = InclusionMatcher() if width else None
    if width:
        matcher.push(pinned)
    st = _ChainCounts(levels, covers, below)
    st.select(lowest - m, levels[lowest - m].index(pinned))
    up, down = st.up, st.down
    room = [limit if i >= lowest else 0 for i in range(m, m + len(levels))]
    room[lowest - m] -= 1
    seen: set[int] = set()
    prunes = bud.prunes

    def dfs() -> bool:
        # The caller has counted this node and checked the memo for it.
        if not any(up[0]):
            return True
        seen.add(st.key)
        if _short_of_chains(up, down, room):
            prunes["chain_bound"] += 1
            return False
        path = least_missed_chain(levels, covers, up)
        # path[i] lies on level m + i; candidates below lowest are skipped.
        for i in range(lowest - m, len(path)):
            if not room[i]:
                prunes["objective"] += 1
                continue
            j = path[i]
            if width:
                matcher.push(levels[i][j])
                if matcher.width > limit:
                    matcher.pop()
                    prunes["objective"] += 1
                    continue
            bud.tick()
            if st.key | st.bit(i, j) in seen:
                prunes["memo"] += 1
            else:
                st.select(i, j)
                room[i] -= 1
                if dfs():
                    return True
                room[i] += 1
                st.undo()
            if width:
                matcher.pop()
        return False

    try:
        bud.tick()
        return st.selection() if dfs() else None
    finally:
        bud.memo_peak = max(bud.memo_peak, len(seen))


def _witness(n: int, m: int, l: int, selection: set[int]) -> Cutset:
    lat = TruncatedLattice(n, m, l)
    return Cutset(lat, tuple(Chain((NodeSet(v, n),)) for v in sorted(selection)))


def _run(n, m, l, budget, node_cap, width) -> SearchResult:
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
                selection = _decide(levels, covers, below, target, width, bud, lowest)
                if selection is None:
                    continue
                wit = _witness(n, m, l, selection)
                nodes = wit.nodes()
                # Re-measured independently of the search's own bookkeeping.
                value = (
                    analysis.width(nodes).width if width
                    else max(Counter(a.level for a in nodes).values())
                )
                if not analysis.is_cutset(wit.lat, nodes).is_cutset or value != target:
                    raise InternalError(
                        f"witness for n={n} m={m} l={l} at {target} failed re-verification"
                    )
                elapsed = time.monotonic() - start
                return SearchResult(
                    SearchStatus.EXACT, target, target, target, wit, bud.expanded,
                    bud.prunes, bud.memo_peak, elapsed,
                )
            target += 1
        raise InternalError("deepening exceeded the trivial upper bound")
    except _Exhausted:
        elapsed = time.monotonic() - start
        status = SearchStatus.BOUNDS if target > 1 else SearchStatus.UNKNOWN
        return SearchResult(
            status, None, target, trivial_upper, None, bud.expanded, bud.prunes,
            bud.memo_peak, elapsed,
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
    return _run(n, m, l, budget, node_cap, True)


def exact_min_per_level(
    n: int,
    m: int,
    l: int,
    budget: Optional[SearchBudget] = None,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
) -> SearchResult:
    """Exact g(n, m, l): least k with a cutset holding <= k nodes per level."""
    return _run(n, m, l, budget, node_cap, False)


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
