"""Exact computation of minimum cutset invariants on small lattices.

Two quantities are computed by iterative deepening on a shared
chain-hitting branch engine:

* h(n, m, l), the minimum width of a cutset, and
* g(n, m, l), the least k such that some cutset has at most k nodes on
  every level.

``_run`` raises the target from ``lower``, 1 unless the caller knows a
better lower bound (g's for h, see ``exact_min_width``), until
``_decide`` finds a cutset whose objective is at most the target.
``_decide`` solves that decision subproblem with one depth-first search
from the empty selection, which branches on the lexicographically least
maximal chain missed by the current selection: any cutset must contain
one of its nodes, so trying each node (in ascending numeric order) is
exhaustive.  The chains are bits (``_ChainBits``, built once per
search): each node holds one int with a bit for each chain through it,
the unhit chains are one int, and the least missed chain is its highest
set bit.  Each pruning rule is argued once, in the docstring of the
function that applies it:

* ``_decide``: the objective cut, the exclusion of failed candidates and
  of their orbits under the symmetries of the selection (the search's
  one symmetry rule, also at the empty root), and why no visited-set is
  kept;
* ``_short_of_chains``: the chain-counting bound, a popcount per node;
* ``_addable``: the width cut of h, from a maximum antichain.

Each result counts its prunes by reason: ``objective``, ``chain_bound``
and ``excluded``.

Searches are exact or fail loudly: a budget interruption yields bounds or
UNKNOWN, never a wrong value, every EXACT result re-verifies its witness
before returning, and a search whose chain bits would pass
``MAX_CHAIN_BYTES`` is refused before it starts.  The engine is
sequential and fully deterministic, so returned values and witnesses are
reproducible.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections import Counter
from enum import Enum
from functools import reduce
from itertools import accumulate, combinations, compress, repeat
from math import comb, perm
from operator import and_, or_
from typing import Optional

from . import analysis, formulas
from .analysis import InclusionMatcher
from .constructions import Cutset, method_counts
from .defaults import DEFAULT_NODE_CAP, MAX_NODES_EXPANDED, WALL_CLOCK_LIMIT
from .errors import DomainError, InternalError
from .lattice import TruncatedLattice, level_masks
from .records import Record

# The most bytes of chain bits a search holds: one bit for each maximal
# chain on each lattice node, 78 KB for B_7(1, 6) and 1.2 MB for B_8(1, 7).
MAX_CHAIN_BYTES = 32 << 20


class SearchBudget(Record):
    """Resource limits for one exact search call.

    Both must be positive: ``max_nodes_expanded`` an int (not a bool) and
    ``wall_clock_limit`` a number of seconds (not NaN).  Node budgets make
    interruption deterministic; wall-clock limits are a safety net.
    """

    max_nodes_expanded: int = MAX_NODES_EXPANDED
    wall_clock_limit: float = WALL_CLOCK_LIMIT

    def __post_init__(self) -> None:
        nodes, seconds = self.max_nodes_expanded, self.wall_clock_limit
        # "not seconds > 0" also holds for NaN, which compares false to everything.
        if type(nodes) is not int or nodes <= 0 or not seconds > 0:
            raise DomainError(f"budget limits must be positive, got {nodes!r} nodes, {seconds!r} s")


class SearchStatus(Enum):
    EXACT = "EXACT"
    BOUNDS = "LOWER_AND_UPPER_BOUNDS"
    UNKNOWN = "UNKNOWN"


class SearchResult(Record):
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


def _short_of_chains(through, unhit, room, allowed) -> bool:
    """True when no allowed completion can hit every unhit chain.

    This is the chain-counting bound: the LYM argument of Yamamoto and
    Lubell, applied to the chains still unhit.  ``through`` and ``unhit`` are
    those of ``_ChainBits``, so exactly ``popcount(through[i][j] & unhit)``
    unhit chains pass through the j-th node of level m + i, and
    ``popcount(unhit)`` counts them all.  ``room`` holds the most nodes a
    completion may still add on each level: every level is an antichain, so
    a completion with objective <= k (width or per-level count) adds at most
    k minus the level's count there (see ``_decide``).  ``allowed`` holds one
    byte per lattice node, at ``base[i] + j`` for the j-th node of level
    m + i, ``base[i]`` counting the nodes below level m + i, and only the
    nodes whose byte is 1 may be added (``_addable``): the excluded nodes
    never are, since no cutset that holds the selection holds one of them
    (see ``_decide``), nor are the selected ones, whose counts are 0.
    Sound: each unhit chain needs an added node, so when the largest
    allowed counts, at most ``room[i]`` of them on level m + i, sum to less
    than the unhit chains, no completion exists and the selection is
    infeasible.  A maximal chain meets each level once, so when a level's
    allowed nodes fit its room, the popcount of their OR is the sum of
    their counts.
    """
    total = unhit.bit_count()
    reach = 0
    b = 0
    for row, r in zip(through, room):
        if r:
            nodes = list(compress(row, allowed[b:]))
            if len(nodes) <= r:
                reach += (reduce(or_, nodes, 0) & unhit).bit_count()
            else:
                counts = map(int.bit_count, map(and_, nodes, repeat(unhit)))
                reach += sum(sorted(counts, reverse=True)[:r])
            if reach >= total:
                return False
        b += len(row)
    return reach < total


class _ChainBits:
    """The maximal chains as bits, and those that a growing selection leaves unhit.

    ``levels`` lists the masks of each lattice level in ascending order,
    bottom first, and ``covers[i][j]`` lists the positions on level i + 1 of
    the covers of the j-th node of level i, found by bisection.  A cover row
    is ascending, as ``v | bit`` grows with ``bit``.  The chains are numbered
    in reverse lexicographic order of their positions, bottom first: the
    least chain has the highest bit of the ``top`` bits.  From a node on
    level m + i there are ``span[i]`` = perm(n - m - i, l - m - i) saturated
    paths to the top level, so the chains through the j-th bottom node take
    the j-th run of ``span[0]`` bits from the top, and of the chains through
    a node on level m + i, those that go on to its t-th cover take the t-th
    run of ``span[i + 1]`` bits from the top of each run of ``span[i]``
    that they fill.  ``through[i][j]`` has one bit for each chain through
    the j-th node of level m + i, and ``unhit`` one for each chain that
    misses every selected node: ``select`` ANDs it and ``undo`` restores
    it.  The least missed chain is the highest set bit of ``unhit``.  The
    search hits the least chains first, so ``unhit`` loses its high bits,
    and an AND with it or a popcount reads fewer digits the deeper the
    search goes.
    """

    __slots__ = ("covers", "span", "top", "through", "unhit", "trail")

    def __init__(self, n, levels) -> None:
        m = levels[0][0].bit_count()
        l = m + len(levels) - 1
        self.covers = [
            [[bisect_left(nxt, v | 1 << e) for e in range(n) if not v >> e & 1] for v in lv]
            for lv, nxt in zip(levels, levels[1:])
        ]
        self.span = span = [perm(n - k, l - k) for k in range(m, l + 1)]
        self.top = top = len(levels[0]) * span[0]
        self.unhit = (1 << top) - 1
        self.trail: list[int] = []
        run = (1 << span[0]) - 1
        self.through = [[run << top - (j + 1) * span[0] for j in range(len(levels[0]))]]
        for rows, outer, inner, nxt in zip(self.covers, span, span[1:], levels[1:]):
            # One run of `inner` ones at the bottom of each run of `outer`.
            last = self.unhit // ((1 << outer) - 1) * ((1 << inner) - 1)
            takes = [last << outer - (t + 1) * inner for t in range(outer // inner)]
            above = [0] * len(nxt)
            for bits, row in zip(self.through[-1], rows):
                for c, take in zip(row, takes):
                    above[c] |= bits & take
            self.through.append(above)

    def select(self, i: int, j: int) -> None:
        """Select the j-th node of level m + i: its chains are hit."""
        self.trail.append(self.unhit)
        self.unhit &= ~self.through[i][j]

    def undo(self) -> None:
        """Undo the latest ``select`` that is not undone yet."""
        self.unhit = self.trail.pop()

    def least_missed(self) -> list[int]:
        """Positions, bottom to top, of the least unhit chain; some chain is unhit."""
        j, r = divmod(self.top - self.unhit.bit_length(), self.span[0])
        path = [j]
        for rows, inner in zip(self.covers, self.span[1:]):
            t, r = divmod(r, inner)
            j = rows[j][t]
            path.append(j)
        return path


def _comparable(levels) -> dict[int, int]:
    """For each lattice node, a mask of the nodes comparable to it, itself included.

    The j-th node of level m + i has bit ``8 * (base[i] + j)``, ``base`` as
    in ``_short_of_chains``, so that an OR of masks, written out by
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
    the nodes comparable to a member of A may be, a maximum antichain of the
    selection S (Dilworth, 1950) that the matcher reads off its matching by
    Koenig's construction (1931).  Sound: |A| = ``limit``, and a cutset T of
    width <= ``limit`` that holds S adds only nodes comparable to some
    member of A, since for a node v of T incomparable to all of them A + v
    would be an antichain of T with ``limit`` + 1 nodes.  So every unhit
    chain needs an added node among the allowed ones, and
    ``_short_of_chains`` sums only their counts.  A candidate that is not
    excluded but outside the allowed nodes would fail the push for the same
    reason, so ``_decide`` cuts it as an ``objective`` prune before the
    push, with the same counts.
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
    n, levels, chains, comparable, bit_of, elements, limit, width, bud
) -> Optional[set[int]]:
    """Find a selection meeting every maximal chain with objective <= limit.

    The objective is the width when ``width`` is true (h), else the largest
    count on one level (g); both only grow as nodes are added.  ``room[i]``
    is the most nodes level m + i may still take: ``limit`` minus its
    count.  A candidate on a level with no room is cut for both objectives,
    because a level is an antichain: a (limit + 1)-th node on one level
    makes the width, like the count, exceed ``limit``.  For h a candidate
    that passes is pushed into an ``InclusionMatcher`` and cut when the
    width exceeds ``limit``.

    ``dfs`` carries ``excluded``, a mask in the byte layout of
    ``_comparable`` (``bit_of`` maps each node to its bit), and ``picked``,
    the selection in that layout, which no completion adds again.  Once a
    candidate x on the least missed chain is cut or its own subtree fails,
    its orbit joins the mask (see ``_orbit``), so x and its images stay
    excluded in the subtrees of x's later siblings, as DPLL does after a
    failed decision (Davis, Logemann and Loveland, 1962) and as isomorph
    rejection does with a whole orbit (McKay, 1998); an excluded candidate
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
    S', as each of them does; it preserves inclusion, levels and maximal
    chains, so it maps a cutset T holding S' + s(x) onto the cutset s^-1(T)
    holding S' + x, with the same levels and objective, so no cutset holds
    S' + s(x) either, nor S + s(x).  The orbit joins the mask only after x
    fails: the images of x are not known to fail before that, and x's own
    subtree must not exclude them.  So a failed call proves S infeasible
    outright, and the search meets the same first witness as one without
    the rule.  A visited-set would never hit: two paths to one selection
    part at some call, and the later one is searched with the earlier one's
    candidate excluded, though the selection holds it.  So none is kept,
    and a search's memory grows with its depth and not with its node count.

    The search starts from the empty selection.  Its least missed chain
    runs through the nodes {1..k}, k = m..l, each the least mask of its
    level and so at position 0, as ``level_masks`` lists a level in
    ascending order.  Every transposition of [n] fixes the empty selection,
    so once {1..k} has failed its orbit, all of level k, is excluded: the
    subtree of {1..i} adds no node below level i, and holds the cutsets
    whose lowest level is i, relabelled so that one of their lowest nodes
    is {1..i}.  These exclusions are the rule above at the root, so they
    need no argument of their own.

    A selection is also cut when ``_short_of_chains`` finds that the nodes
    it may still add cannot hit all of its unhit chains, and for h, once
    the width of S equals ``limit``, only the nodes that ``_addable``
    allows may be added, in that bound and among the candidates; a
    candidate outside them is cut as an ``objective`` prune before the
    push.  Both cuts remove only selections that no cutset of objective
    <= ``limit`` disjoint from E completes (see those functions), so a call
    they fail proves S infeasible like any other.  E holds only failures
    earlier than the cut and their images, so the induction on the order of
    the failures is not circular.  Returns the selection, or None when no
    such selection exists.  ``chains`` (``_ChainBits``) comes with no node
    selected, and a call that returns None leaves it so.
    """
    m = levels[0][0].bit_count()
    matcher = InclusionMatcher() if width else None
    base = list(accumulate(map(len, levels), initial=0))
    room = [limit] * len(levels)
    prunes = bud.prunes
    everything = sum(bit_of.values())
    chosen = set()  # the masks of the selection
    # profile[e] sums 2 ** (16 * |v|) over the selected nodes v that hold e.
    profile = [0] * n

    def dfs(excluded: int, picked: int) -> bool:
        # The caller has counted this node.
        if not chains.unhit:
            return True
        allowed = _addable(matcher, limit, comparable, everything, excluded | picked)
        if _short_of_chains(chains.through, chains.unhit, room, allowed):
            prunes["chain_bound"] += 1
            return False
        path = chains.least_missed()
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
                chains.select(i, j)
                chosen.add(x)
                weight = 1 << 16 * (m + i)
                for e in elements[x]:
                    profile[e] += weight
                room[i] -= 1
                if dfs(excluded, picked | bit_of[x]):
                    return True
                room[i] += 1
                chosen.remove(x)
                for e in elements[x]:
                    profile[e] -= weight
                chains.undo()
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
    return chosen if dfs(0, 0) else None


def _run(n, m, l, budget, node_cap, width, lower) -> SearchResult:
    lat = TruncatedLattice(n, m, l)
    counts = method_counts(n, m, l)
    if lat.node_count > node_cap:
        raise DomainError(
            f"lattice has {lat.node_count} nodes, above the cap {node_cap}; "
            "raise the cap to search anyway"
        )
    chain_count = comb(n, m) * perm(n - m, l - m)
    if lat.node_count * chain_count > 8 * MAX_CHAIN_BYTES:
        raise DomainError(
            f"the search would hold one bit for each of the {chain_count} maximal chains "
            f"on each of the {lat.node_count} lattice nodes, above {MAX_CHAIN_BYTES} bytes"
        )
    # Any single level between m and l is itself a cutset, and so is every
    # construction, with k chains holding at most k nodes on a level and
    # having width at most k; both bound both objectives.  Level m is the
    # smallest, as C(n, m) <= C(n, i) for m <= i <= n - m.
    upper = min([comb(n, m), *counts.values()])
    if type(lower) is not int or not 1 <= lower <= upper:
        raise DomainError(f"lower must be an int from 1 to the upper bound {upper}, got {lower!r}")
    levels = [level_masks(n, i) for i in range(m, l + 1)]
    chains = _ChainBits(n, levels)
    comparable = _comparable(levels) if width else None
    flat = [v for lv in levels for v in lv]
    bit_of = {v: 1 << 8 * b for b, v in enumerate(flat)}
    elements = {v: [e for e in range(n) if v >> e & 1] for v in flat}
    bud = _Budget(budget or SearchBudget())
    start = time.monotonic()
    target = lower
    try:
        while target <= upper:
            selection = _decide(
                n, levels, chains, comparable, bit_of, elements, target, width, bud
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
    lower: int = 1,
) -> SearchResult:
    """Exact h(n, m, l): the minimum width over all cutsets of levels m..l.

    Iterative deepening on the target width, starting from ``lower``, a
    proven lower bound on h from 1 to the upper bound.  The ``lower`` of
    ``exact_min_per_level`` on the same instance is one: g <= h, because
    every level of B_n(m, l) is an antichain, so a cutset of width w holds
    at most w nodes on each level.  Each target is searched afresh, so a
    seeded search meets the same value and witness as one from 1, in fewer
    nodes when it skips targets.
    """
    return _run(n, m, l, budget, node_cap, True, lower)


def exact_min_per_level(
    n: int,
    m: int,
    l: int,
    budget: Optional[SearchBudget] = None,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
    lower: int = 1,
) -> SearchResult:
    """Exact g(n, m, l): least k with a cutset holding <= k nodes per level, from ``lower`` up."""
    return _run(n, m, l, budget, node_cap, False, lower)


def exact_search(
    target: str,
    n: int,
    m: int,
    l: int,
    budget: Optional[SearchBudget] = None,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
    lower: int = 1,
) -> SearchResult:
    """``exact_min_width`` when ``target`` is "h", ``exact_min_per_level`` when it is "g"."""
    run = {"h": exact_min_width, "g": exact_min_per_level}[target]
    return run(n, m, l, budget, node_cap=node_cap, lower=lower)


class ConjectureReport(Record):
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
    """Compare conjectured, searched, and constructed values on one instance.

    g is searched first, and h from g's ``lower`` (see ``exact_min_width``).
    """
    searched_g = exact_min_per_level(n, m, l, budget, node_cap=node_cap)
    searched_h = exact_min_width(n, m, l, budget, node_cap=node_cap, lower=searched_g.lower)
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
