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

A candidate that fails, because its subtree holds no cutset or because it
is cut as above, is excluded from the subtrees of its later siblings, as
DPLL does after a failed decision (Davis, Logemann and Loveland, 1962),
and so is its whole orbit under the symmetries of the selection, as in
isomorph rejection (McKay, 1998).  Sound: a cutset that holds the
selection meets the branching chain at a first candidate, so it holds
none of the candidates before it, and the branch of that candidate was
searched with exactly those excluded.  By induction on the order of the
failures each failure is unconditional: an excluded node x failed beside
a sub-selection S' of the current one, so no cutset holds S' + x, nor any
superset of it.  The symmetries are the permutations of [n] generated by
the transpositions (a b) that map the selection S of the failure onto
itself; each of them fixes S, so every product of them does.  Such a
permutation preserves inclusion, levels and maximal chains, so it maps a
cutset holding S + x onto a cutset holding S + x' with the same levels
and objective, for x' the image of x: each image fails unconditionally
too.  The orbit is added only once x has failed, since that failure is
what it rests on; x's own subtree holds x and is searched without it.  So
only infeasible subtrees are cut, and the search meets the same first
witness as without the rule.  No selection is entered twice: two paths to
it part at some call, and the later one excludes the earlier one's
candidate, which the selection holds.  So no visited-set is kept, and a
search's memory grows with its depth and not with its node count.  Each
result counts its prunes by reason: ``objective``, ``chain_bound`` and
``excluded``.

This is the search's one symmetry rule.  Each target is searched as one
tree from the empty selection, whose least missed chain is that of the
nodes {1..k} for k = m..l.  Every transposition fixes the empty
selection, so the orbit of a failed root candidate {1..k} is all of level
k, and the subtree of {1..i} is searched with the levels m..i - 1
excluded: it holds the cutsets whose lowest level is i, relabelled so
that one of their lowest nodes is {1..i}, and no rule of its own is
needed to pin that node.

A chain-counting bound (the LYM argument of Yamamoto and Lubell, applied
to the chains still unhit) cuts selections that cannot be completed.  Two
path counts over the unselected nodes give ``up[v]``, the unhit chains
from v to level l, and ``down[v]``, the saturated paths from level m to
v; U, the sum of ``up`` over level m, counts all unhit chains, and
``down[v] * up[v]`` of them pass through v.  Every level is an antichain,
so a completion with objective <= k (width or per-level count) adds at
most ``k - count_i`` nodes on level i (its ``room``).  Nor does it add an
excluded node: each one failed, or is the image of a failure, beside a
part of the selection, so no cutset that holds the selection holds it.
Each unhit chain needs an added node, so when the largest allowed
products on each level sum to less than U no completion exists and the
selection is cut.  The failures this cut causes rest only on earlier
ones, so the induction above still holds, and the cut removes only
infeasible subtrees: the search meets the same first witness.
The least missed chain is the greedy walk over ``up``
(``analysis.least_missed_chain``).

For h the bound also uses the width.  Once the selection S has width k,
the target, take a maximum antichain A of S (Dilworth, 1950), read off the
incremental matching by Koenig's construction (1931).  A node incomparable
to every member of A would make A plus that node an antichain of k + 1
nodes, so a completion of width <= k adds only nodes comparable to some
member of A: only their products count towards the bound, and any other
candidate is cut before it is pushed.

Both counts are kept incrementally (``_ChainCounts``): a decision call
starts them from closed forms on the empty selection, then each selected
node v removes exactly the unhit chains through v, ``up[v]`` times the
live paths from a node below v to v and ``down[v]`` times those from v to
a node above it, and undo restores the old counts from a trail.
``down`` is a plain live-path count, not zeroed where ``up`` is 0: a
product with ``up`` 0 is 0 anyway, and every live path into a node whose
``up`` is positive passes only nodes whose ``up`` is positive, so each
product ``down * up`` is still the count of unhit chains through the
node.  The excluded nodes are an integer with one bit every eighth place,
so that written out as bytes it masks the allowed nodes of the bound.

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
from itertools import accumulate, combinations, compress
from math import perm
from operator import mul
from typing import Optional

from . import analysis, formulas
from .analysis import InclusionMatcher, cover_lists, least_missed_chain
from .constructions import Cutset, method_counts
from .errors import DomainError, InternalError
from .lattice import TruncatedLattice, level_masks

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
    re-verified (it is a cutset and attains the value).  Otherwise ``upper``
    is the least of the bottom level's size and the construction counts
    (``constructions.method_counts``), each the objective of a cutset.  The witness
    stores the selected nodes as singleton chains; it need not admit a
    saturated chain cover of minimum size.  ``prunes`` counts the cut
    branches by reason: ``objective``, ``chain_bound`` and ``excluded``.
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
        self.prunes = {"objective": 0, "chain_bound": 0, "excluded": 0}

    def tick(self) -> None:
        self.expanded += 1
        if self.expanded > self.max_nodes or time.monotonic() > self.deadline:
            raise _Exhausted


def _short_of_chains(up, down, room, allowed) -> bool:
    """True when no allowed completion can hit every unhit chain.

    ``up`` and ``down`` are the per-level counts of ``_ChainCounts`` and
    ``room`` the most nodes a completion may still add on each level.
    ``allowed`` holds one byte per lattice node, at ``_ChainCounts.base[i] +
    j`` for the j-th node of level m + i, and only the nodes whose byte is 1
    may be added (``_addable``): the excluded nodes never are, since no
    cutset that holds the selection holds one of them (see ``_decide``).
    Exactly ``down[v] * up[v]`` unhit chains pass through v, and U, the
    sum of ``up`` over the bottom level, counts them all.
    """
    total = sum(up[0])
    reach = 0
    b = 0
    for ups, downs, r in zip(up, down, room):
        if r:
            products = compress(map(mul, downs, ups), allowed[b:])
            reach += sum(sorted(products, reverse=True)[:r])
            if reach >= total:
                return False
        b += len(ups)
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
        nxt: dict[int, int] = {}
        for x, p in paths.items():
            for w in step[x]:
                if row[w]:
                    nxt[w] = nxt.get(w, 0) + p
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
    selected node.  ``base[i] + j`` is that node's place when the nodes are
    listed level by level.  The selection starts empty: then every node on
    level k has ``up`` = perm(n - k, l - k), the orders in which the
    elements outside it can be added, and ``down`` = perm(k, k - m), the
    orders in which its elements beyond an m-subset were added.  After that
    ``select`` and ``undo`` update both in place, the old counts going onto
    ``trail`` as ``(list, index, old)``.
    """

    __slots__ = ("covers", "below", "base", "up", "down", "trail", "marks")

    def __init__(self, n, levels, covers, below) -> None:
        self.covers, self.below = covers, below
        self.base = list(accumulate(map(len, levels), initial=0))
        m = levels[0][0].bit_count()
        l = m + len(levels) - 1
        self.up = [[perm(n - k, l - k)] * len(lv) for k, lv in enumerate(levels, m)]
        self.down = [[perm(k, k - m)] * len(lv) for k, lv in enumerate(levels, m)]
        self.trail: list[tuple[list[int], int, int]] = []
        self.marks: list[int] = []

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
        self.marks.append(len(trail))
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
        mark = self.marks.pop()
        trail = self.trail
        for row, j, old in reversed(trail[mark:]):
            row[j] = old
        del trail[mark:]


def _comparable(levels) -> dict[int, int]:
    """For each lattice node, a mask of the nodes comparable to it, itself included.

    The j-th node of level m + i has bit ``8 * (base[i] + j)``, ``base`` as
    in ``_ChainCounts``, so that an OR of masks, written out by
    ``to_bytes(len, "little")``, has one byte per node, 1 where the node is
    comparable to one of the OR'ed nodes.  Two nodes are comparable when one
    is a submask of the other, that is when their AND is one of them.
    """
    flat = [v for lv in levels for v in lv]
    return {v: sum(1 << 8 * b for b, w in enumerate(flat) if v & w in (v, w)) for v in flat}


def _addable(matcher, limit, comparable, everything, excluded) -> bytes:
    """The nodes that a completion may still add: one byte per lattice node, 1 where it may.

    Masks have the byte layout of ``_comparable``: ``everything`` holds
    every lattice node and ``excluded`` the nodes that no completion adds.
    For g ``matcher`` is None, and any other node may be added; so it may
    for h while the matcher's width is below ``limit``.  At ``limit`` only
    the nodes comparable to a member of the maximum antichain A that the
    matcher reads off its matching may be (see ``_decide``).
    """
    mask = everything
    if matcher is not None and matcher.width >= limit:
        mask = 0
        for a in matcher.antichain():
            mask |= comparable[a]
    return (mask & ~excluded).to_bytes((everything.bit_length() + 7) // 8, "little")


def _generators(selection, n, profile) -> list[int]:
    """The transpositions (a b) of [n] that map ``selection`` onto itself, as masks {a, b}.

    Swapping a and b leaves a node that holds both or neither as it is and
    flips both bits of a node that holds one of them, so (a b) maps the
    selection onto itself when every node of the second kind, flipped, is
    selected too.  Such a transposition maps the selected nodes that hold a
    onto those that hold b, level by level, so only the pairs whose entries
    in ``profile`` are equal are checked node by node: ``profile[e]`` must
    be a function of how many selected nodes on each level hold e alone.
    """
    pairs = (
        1 << a | 1 << b for a, b in combinations(range(n), 2) if profile[a] == profile[b]
    )
    return [t for t in pairs if all(v & t in (0, t) or v ^ t in selection for v in selection)]


def _orbit(x, generators) -> set[int]:
    """The orbit of the node x under the group that ``generators`` generate.

    Each generator is a transposition (a b), as the mask {a, b}; it maps a
    node that holds exactly one of a and b to the node with both bits
    flipped and any other node to itself.  It keeps every node's level, so
    the orbit lies on the level of x.
    """
    orbit = {x}
    todo = [x]
    for y in todo:
        for t in generators:
            z = y ^ t
            if y & t not in (0, t) and z not in orbit:
                orbit.add(z)
                todo.append(z)
    return orbit


def _decide(
    n, levels, covers, below, comparable, bit_of, elements, limit, width, bud
) -> Optional[set[int]]:
    """Find a selection meeting every maximal chain with objective <= limit.

    The objective is the width when ``width`` is true (h), else the largest
    count on one level (g).  ``room[i]`` is the most nodes level m + i may
    still take: ``limit`` minus its count.  A candidate on a level with no
    room is cut for both objectives, because a level is an antichain: a
    (limit + 1)-th node on one level makes the width, like the count,
    exceed ``limit``.  For h a candidate that passes is pushed into an
    ``InclusionMatcher`` and cut when the width exceeds ``limit``.

    ``dfs`` carries ``excluded``, a mask in the byte layout of
    ``_comparable`` (``bit_of`` maps each node to its bit).  Once a
    candidate x on the least missed chain is cut or its own subtree fails,
    its orbit joins the mask (see ``_orbit``), so x and its images stay
    excluded in the subtrees of x's later siblings; an excluded candidate
    is skipped as an ``excluded`` prune, without a tick.  The orbit is that
    under the ``_generators`` of the call's selection S, the transpositions
    of [n] that map S onto itself, found at the call's first failure from S
    and its ``profile``, which is kept along the path (``elements`` lists
    the elements of each node); the last candidate's orbit is not needed,
    as no sibling follows it.  A call on selection S with excluded set E
    answers "is there a cutset T holding S, disjoint from E and with
    objective <= ``limit``?".  Sound: such a T meets the chain at a first
    candidate v in the order tried; T holds none of the earlier candidates
    nor their images, which all fail beside S (below), so it is disjoint
    from the mask that the branch of v was searched with, and that branch
    finds a cutset.  And E loses no cutset: each node in E is a cut or
    failed node x, or an image of one, beside a sub-selection S' of S, with
    a smaller mask, so by induction on the order of the failures no cutset
    holds S' + x.  A permutation s generated by the transpositions fixes
    S', as each of them does, and maps a cutset T holding S' + s(x) onto
    the cutset s^-1(T) holding S' + x, with the same levels and objective,
    so no cutset holds S' + s(x) either, nor S + s(x).  The orbit joins the
    mask only after x fails: the images of x are not known to fail before
    that, and x's own subtree must not exclude them.  So a failed call
    proves S infeasible outright, and the search meets the same first
    witness as one without the rule.  A visited-set would never hit: two
    paths to one selection part at some call, and the later one is searched
    with the earlier one's candidate excluded, though the selection holds it.

    The search starts from the empty selection.  Its least missed chain
    runs through the nodes {1..k}, k = m..l, each the least mask of its
    level and so at position 0, as ``level_masks`` lists a level in
    ascending order.  Every transposition of [n] fixes the empty selection,
    so once {1..k} has failed its orbit, all of level k, is excluded: the
    subtree of {1..i} adds no node below level i.  These exclusions are
    the rule above at the root, so they need no argument of their own, and
    they do what pinning a lowest node {1..i} would.

    A selection is also cut when the nodes it may still add cannot hit all
    of its U unhit chains (see ``_short_of_chains``).  Sound: by the same
    antichain argument a completion adds at most ``room[i]`` nodes on level
    m + i; every unhit chain needs one added node, and an added node v hits
    exactly ``down[v] * up[v]`` of them.  If the largest allowed such
    products sum to less than U, no completion exists, so the selection is
    infeasible.  A node of E is never allowed: the call asks for a T
    disjoint from E, and by the argument above no cutset that holds S holds
    a node of E anyway.  So a call failed by this cut proves S infeasible
    like any other.  E holds only failures earlier than the cut and their
    images, so the induction on the order of the failures is not circular,
    and the search still meets the same first witness.  The counts are kept
    incrementally: selecting v removes exactly the unhit chains through v,
    and ``_ChainCounts.select`` subtracts them from the counts of the live
    nodes below and above v.
    ``down`` counts live paths from the bottom level even where ``up`` is 0;
    that leaves every product unchanged, because a product with ``up`` 0 is
    0 and a live path into a node with positive ``up`` runs only through
    nodes with positive ``up``.

    For h, once the width of the selection S equals ``limit``, only the
    nodes that ``_addable`` allows may be added, in the bound and among the
    candidates.  Sound: let A be a maximum antichain of S, so |A| = ``limit``.
    Any cutset T of width <= ``limit`` that holds S adds only nodes
    comparable to some member of A, since for a node v of T incomparable to
    all of them A + v would be an antichain of T with ``limit`` + 1 nodes.
    So every unhit chain needs an added node among the allowed ones, and
    the bound sums only their products; a cut selection is infeasible like
    any other.  A candidate that is not excluded but outside the allowed
    nodes would fail the push for the same reason, so it is cut as an
    ``objective`` prune before the push, with the same counts.  Returns the
    selection, or None when no such selection exists.
    """
    m = levels[0][0].bit_count()
    matcher = InclusionMatcher() if width else None
    st = _ChainCounts(n, levels, covers, below)
    up, down, base = st.up, st.down, st.base
    room = [limit] * len(levels)
    prunes = bud.prunes
    everything = sum(bit_of.values())
    chosen = set()  # the masks of the selection
    # profile[e] sums 2 ** (16 * |v|) over the selected nodes v that hold e.
    profile = [0] * n

    def dfs(excluded: int) -> bool:
        # The caller has counted this node.
        if not any(up[0]):
            return True
        allowed = _addable(matcher, limit, comparable, everything, excluded)
        if _short_of_chains(up, down, room, allowed):
            prunes["chain_bound"] += 1
            return False
        path = least_missed_chain(levels, covers, up)
        generators = None
        # path[i] lies on level m + i.
        for i, j in enumerate(path):
            x = levels[i][j]
            if excluded & bit_of[x]:
                prunes["excluded"] += 1
                continue
            fits = room[i] and allowed[base[i] + j]
            if fits and width:
                matcher.push(x)
                if matcher.width > limit:
                    matcher.pop()
                    fits = False
            if not fits:
                prunes["objective"] += 1
            else:
                bud.tick()
                st.select(i, j)
                chosen.add(x)
                weight = 1 << 16 * (m + i)
                for e in elements[x]:
                    profile[e] += weight
                room[i] -= 1
                if dfs(excluded):
                    return True
                room[i] += 1
                chosen.remove(x)
                for e in elements[x]:
                    profile[e] -= weight
                st.undo()
                if width:
                    matcher.pop()
            # x failed, and so does its image under any symmetry of the selection.
            if i + 1 == len(path):
                break
            if generators is None:
                generators = _generators(chosen, n, profile)
            for y in _orbit(x, generators):
                excluded |= bit_of[y]
        return False

    bud.tick()
    return chosen if dfs(0) else None


def _run(n, m, l, budget, node_cap, width) -> SearchResult:
    if not 0 <= m <= l <= n - m:
        raise DomainError(f"need 0 <= m <= l <= n - m, got n={n} m={m} l={l}")
    lat = TruncatedLattice(n, m, l)
    if lat.node_count > node_cap:
        raise DomainError(
            f"lattice has {lat.node_count} nodes, above the cap {node_cap}; "
            "raise the cap to search anyway"
        )
    levels = [level_masks(n, i) for i in range(m, l + 1)]
    covers = cover_lists(levels, n)
    below = _lower_covers(levels, covers)
    comparable = _comparable(levels) if width else None
    flat = [v for lv in levels for v in lv]
    bit_of = {v: 1 << 8 * b for b, v in enumerate(flat)}
    elements = {v: [e for e in range(n) if v >> e & 1] for v in flat}
    bud = _Budget(budget or SearchBudget())
    start = time.monotonic()
    # Any single level between m and l is itself a cutset, and so is every
    # construction, with k chains holding at most k nodes on a level and
    # having width at most k; both bound both objectives.  Level m is the
    # smallest, as C(n, m) <= C(n, i) for m <= i <= n - m.
    upper = min([len(levels[0]), *method_counts(n, m, l).values()])
    target = 1
    try:
        while target <= upper:
            selection = _decide(
                n, levels, covers, below, comparable, bit_of, elements, target, width, bud
            )
            if selection is not None:
                wit = Cutset(lat, tuple((v,) for v in sorted(selection)))
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
                    bud.prunes, elapsed,
                )
            target += 1
        raise InternalError(f"deepening for n={n} m={m} l={l} passed the upper bound {upper}")
    except _Exhausted:
        elapsed = time.monotonic() - start
        status = SearchStatus.BOUNDS if target > 1 else SearchStatus.UNKNOWN
        return SearchResult(
            status, None, target, upper, None, bud.expanded, bud.prunes, elapsed
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


def exact_search(
    target: str,
    n: int,
    m: int,
    l: int,
    budget: Optional[SearchBudget] = None,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
) -> SearchResult:
    """``exact_min_width`` when ``target`` is "h", ``exact_min_per_level`` when it is "g"."""
    run = {"h": exact_min_width, "g": exact_min_per_level}[target]
    return run(n, m, l, budget, node_cap=node_cap)


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
    searched_h = exact_min_width(n, m, l, budget, node_cap=node_cap)
    searched_g = exact_min_per_level(n, m, l, budget, node_cap=node_cap)
    return compare_searches(n, m, l, searched_h, searched_g)


def compare_searches(
    n: int, m: int, l: int, searched_h: SearchResult, searched_g: SearchResult
) -> ConjectureReport:
    """The report of one instance, given its searched h and g."""
    conjectured = formulas.conjectured_min_width(n, m, l)
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
