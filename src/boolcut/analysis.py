"""Verifiers and measures: cutset membership and antichain width.

Width is computed through the classical reduction: over a finite family S
of subsets, inclusion is a transitive order, so the minimum number of
chains covering S equals |S| minus a maximum matching in the bipartite
graph with a lower and an upper copy of S and an edge u -> v whenever
u is a proper subset of v.  By Dilworth's theorem that chain count equals
the width, and Koenig's theorem turns the matching into an explicit
maximum antichain.  Both certificates (antichain and chain cover) are
returned and re-checked on every call.  ``width`` builds the whole graph
at once, each node's proper subsets found by submask lookup, and matches
it in one greedy pass; ``InclusionMatcher`` keeps the same matching under
push and pop and serves only the incremental exact search.

Cutset membership uses one backward sweep, top level first, that finds
the dead nodes: those from which no unselected saturated path leads to
the top level.  A top node is dead when it is selected, and a node below
when it is selected or every one of its covers is dead, so each node's
covers are tried only up to the first live one.  Each level's masks are
made one at a time, and only the dead nodes of two adjacent levels are
held; the top level's are the selected nodes themselves, and the bottom
level's are not kept.  The selection is a cutset exactly when every
bottom node is dead.  Otherwise a depth-first walk up from the least live
bottom node, through the least live cover at each step and with the dead
nodes remembered, rebuilds the lexicographically least missed maximal
chain.  How many chains pass through a node matters only to the exact
search's chain-counting bound, so those counts are kept in ``search``.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Iterator, Optional, Sequence

from .chains import Chain, augment, greedy_match
from .errors import DomainError, InternalError
from .lattice import NodeSet, TruncatedLattice, full_mask, iter_level_masks
from .records import Record


class WidthReport(Record):
    """Width of a node family with both Dilworth certificates attached."""

    width: int
    antichain_witness: tuple[NodeSet, ...]
    chain_cover: tuple[tuple[NodeSet, ...], ...]

    def to_json(self) -> dict:
        return {
            "width": self.width,
            "antichain": [a.to_json() for a in self.antichain_witness],
            "chain_cover": [[a.to_json() for a in seq] for seq in self.chain_cover],
        }


class CutsetReport(Record):
    is_cutset: bool
    missed_chain: Optional[Chain]

    def to_json(self) -> dict:
        out: dict = {"is_cutset": self.is_cutset}
        if self.missed_chain is not None:
            out["missed_chain"] = self.missed_chain.to_json()
        return out


class InclusionMatcher:
    """Maximum matching on the strict-inclusion bipartite graph, with undo.

    Nodes are bit-vector masks over a shared ground set; push() adds one
    (distinct) mask and restores maximality by augmenting from the new
    node's two copies only, pop() reverts the most recent push.  At any
    moment ``width`` is len(nodes) minus the matching size, i.e. the width
    of the current set.  Pushes and pops must nest like a stack.

    Adjacency lists are kept in insertion order, which fixes the
    augmenting-path search order and therefore the matching itself; the
    width value is independent of insertion order.  Only the exact search
    uses this class: ``width`` matches a whole family in bulk.  push()
    saves both mate dicts on the trail before it augments, each search
    with a fresh visited set, and pop() puts them back.
    """

    def __init__(self) -> None:
        self.nodes: list[int] = []
        self.above: dict[int, list[int]] = {}
        self.below: dict[int, list[int]] = {}
        self.pair_up: dict[int, int] = {}
        self.pair_down: dict[int, int] = {}
        self._trail: list[tuple[dict[int, int], dict[int, int]]] = []

    @property
    def width(self) -> int:
        return len(self.nodes) - len(self.pair_up)

    def push(self, v: int) -> None:
        ups: list[int] = []
        downs: list[int] = []
        for u in self.nodes:
            if u & ~v == 0:
                downs.append(u)
                self.above[u].append(v)
            elif v & ~u == 0:
                ups.append(u)
                self.below[u].append(v)
        self.above[v] = ups
        self.below[v] = downs
        self.nodes.append(v)
        self._trail.append((self.pair_up.copy(), self.pair_down.copy()))
        augment(v, self.above, self.pair_down, self.pair_up, set())
        if v not in self.pair_down:
            augment(v, self.below, self.pair_up, self.pair_down, set())

    def antichain(self) -> list[int]:
        """A maximum antichain of the current set, from the matching it holds."""
        return _koenig_antichain(self.nodes, self.above, self.pair_up, self.pair_down)

    def pop(self) -> None:
        v = self.nodes.pop()
        self.pair_up, self.pair_down = self._trail.pop()
        for u in self.below[v]:
            self.above[u].pop()
        for u in self.above[v]:
            self.below[u].pop()
        del self.above[v]
        del self.below[v]


def _koenig_antichain(nodes, above, pair_up, pair_down) -> list[int]:
    """A maximum antichain of ``nodes``, read off a maximum inclusion matching.

    ``above[u]`` lists the nodes properly containing u, ``pair_up[u]`` is the
    upper mate of u's lower copy and ``pair_down[x]`` the lower mate of x's
    upper copy.  Koenig: alternate from the unmatched lower copies, over any
    edge to an upper copy and back over its matching edge; the nodes whose
    lower copy is reached and whose upper copy is not form an antichain of
    ``len(nodes) - len(pair_up)`` nodes.  They come in the order of ``nodes``.
    Every upper copy reached is matched, or the matching would not be
    maximum, and distinct upper copies have distinct mates, so each mate is
    reached once.
    """
    z_low = {u for u in nodes if u not in pair_up}
    z_up: set[int] = set()
    stack = list(z_low)
    while stack:
        for x in above[stack.pop()]:
            if x not in z_up:
                z_up.add(x)
                mate = pair_down[x]
                z_low.add(mate)
                stack.append(mate)
    return [u for u in nodes if u in z_low and u not in z_up]


def _shared_ground(nodes: Iterable[NodeSet]) -> tuple[list[int], int]:
    masks: set[int] = set()
    n = -1
    for a in nodes:
        if n == -1:
            n = a.n
        elif a.n != n:
            raise DomainError("nodes mix ground sizes")
        masks.add(a.bits)
    return sorted(masks), max(n, 0)


def _proper_subsets(masks: list[int]) -> Iterator[list[int]]:
    """For each mask of the ascending list ``masks``, its proper subsets in the list.

    Each yielded list is ascending.  A mask v has 2**popcount(v) submasks,
    enumerated by ``s = (s - 1) & v`` and looked up in a set; when that
    exceeds the number of earlier masks, which are the only candidates,
    scanning those is cheaper.  Both routes give the same list.
    """
    present = set(masks)
    for i, v in enumerate(masks):
        if 1 << v.bit_count() > i:
            yield [u for u in masks[:i] if u & ~v == 0]
            continue
        subs = []
        s = v
        while s:
            s = (s - 1) & v
            if s in present:
                subs.append(s)
        subs.reverse()
        yield subs


def width(nodes: Iterable[NodeSet]) -> WidthReport:
    """Width of a finite family of subsets, with certificates.

    Returns the size of the largest antichain, an antichain of that size,
    and a partition of the input into that many ascending runs.  The two
    certificate sizes are equal by Dilworth's theorem; the equality and
    the certificates themselves are re-verified before returning.  The
    work is ``mask_width``'s.
    """
    masks, n = _shared_ground(nodes)
    w, antichain, cover = mask_width(masks)
    return WidthReport(
        width=w,
        antichain_witness=tuple(NodeSet(u, n) for u in antichain),
        chain_cover=tuple(tuple(NodeSet(x, n) for x in seq) for seq in cover),
    )


def mask_width(masks: list[int]) -> tuple[int, list[int], list[tuple[int, ...]]]:
    """The width of the family of ascending distinct bit vectors ``masks``, with certificates.

    Returns the width, a maximum antichain and a cover by that many
    ascending runs, as bit vectors, once both are re-verified; ``width``
    wraps them in ``NodeSet``s, and ``verify``, which needs only the
    number, builds none.

    The graph is built once, by ``_proper_subsets``, and matched by one
    ``chains.greedy_match`` pass in ascending mask order: an augmenting
    search from the upper copy of each node through its ``below`` list.
    This is the matching that ``InclusionMatcher.push`` reaches for the
    same order.
    """
    below = dict(zip(masks, _proper_subsets(masks)))
    above: dict[int, list[int]] = {v: [] for v in masks}
    for v in masks:
        for u in below[v]:
            above[u].append(v)
    pair_up: dict[int, int] = {}
    pair_down: dict[int, int] = {}
    greedy_match(masks, below, pair_up, pair_down)
    w = len(masks) - len(pair_up)

    antichain = _koenig_antichain(masks, above, pair_up, pair_down)

    heads = [u for u in masks if u not in pair_down]
    cover: list[tuple[int, ...]] = []
    for h in heads:
        seq = [h]
        while seq[-1] in pair_up:
            seq.append(pair_up[seq[-1]])
        cover.append(tuple(seq))

    if not (
        len(antichain) == w == len(cover)
        and sorted(x for seq in cover for x in seq) == masks
        and not any(_proper_subsets(antichain))
    ):
        raise InternalError(f"width certificates of {len(masks)} nodes do not verify")
    return w, antichain, cover


def is_antichain(nodes: Iterable[NodeSet]) -> bool:
    """True when no member properly contains another."""
    masks, _ = _shared_ground(nodes)
    return not any(_proper_subsets(masks))


def chain_certificate(chain_masks: Sequence[Sequence[int]], node_count: int) -> Optional[int]:
    """The width of the chains' union when the chains prove it, else None.

    Each chain is given by the bit vectors of its nodes, bottom first, and
    ``node_count`` is the number of distinct nodes among them, so the chains
    are disjoint exactly when their lengths sum to it.  Weak duality: k
    disjoint chains cover the union, and an antichain meets each chain at
    most once, so the width is at most k; k pairwise incomparable bottoms
    are an antichain, so the width is at least k.
    """
    if sum(map(len, chain_masks)) != node_count or any(
        _proper_subsets(sorted(ch[0] for ch in chain_masks))
    ):
        return None
    return len(chain_masks)


def _least_live_chain(bottom: int, l: int, n: int, selected) -> list[int]:
    """The least saturated path from ``bottom`` up to level l that avoids ``selected``.

    ``bottom`` is unselected and has such a path: the sweep of ``is_cutset``
    found it live.  A depth-first walk tries the covers of each node in
    ascending order, so the first path to reach level l is the
    lexicographically least; a node found to have no such path is
    remembered as dead and never entered again, so the walk enters each
    node of the up-set of ``bottom`` at most once.
    """
    free = full_mask(n)
    dead = set()
    # One entry per node of the path: the node and its covers not yet tried.
    stack = [(bottom, free ^ bottom)]
    length = l - bottom.bit_count() + 1
    while len(stack) < length:
        v, untried = stack[-1]
        if not untried:
            dead.add(v)
            stack.pop()
            if not stack:
                raise InternalError(f"no unselected path from {bottom:#x} to level {l}")
            continue
        low = untried & -untried
        stack[-1] = v, untried ^ low
        w = v | low
        if w not in selected and w not in dead:
            stack.append((w, free ^ w))
    return [v for v, _ in stack]


def is_cutset(lat: TruncatedLattice, nodes: Iterable[NodeSet | int]) -> CutsetReport:
    """Does the node collection meet every maximal chain of the lattice?

    A maximal chain runs saturated from level m to level l.  ``nodes``
    holds ``NodeSet``s over [n] or their bit vectors.  When the answer is
    no, the report carries the lexicographically least maximal chain
    disjoint from the input.

    The sweep goes from the top level down, makes each level's masks one
    at a time, and keeps the dead nodes of the level above as a set; the
    top level's dead nodes are the selected ones, so the selection serves
    as that set.  On the bottom level it stops at the first live node and
    keeps no set.  A set of bit vectors is used as it is, not copied.
    """
    n, m, l = lat.n, lat.m, lat.l
    check_node = lat.check_node
    copy = not (isinstance(nodes, (set, frozenset)) and all(type(a) is int for a in nodes))
    selected = set() if copy else nodes
    for a in nodes:
        if isinstance(a, NodeSet):
            if a.n != n:
                raise DomainError("ground size mismatch with the lattice")
            a = a.bits
        check_node(a)
        if copy:
            selected.add(a)
    free = full_mask(n)
    bottom = None
    if m == l:  # every node is a top node, live unless selected
        bottom = next((v for v in iter_level_masks(n, l) if v not in selected), None)
    dead = selected
    for k in range(l - 1, m - 1, -1):
        above, dead = dead, set()
        for v in iter_level_masks(n, k):
            if v not in selected:
                b = free ^ v
                while b and v | (b & -b) in above:
                    b &= b - 1
                if b:  # a live cover, so v is live
                    if k == m:
                        bottom = v
                        break
                    continue
            if k > m:
                dead.add(v)
        if len(dead) == comb(n, k):  # all of level k is dead, so all below is too
            break
    if bottom is None:
        return CutsetReport(True, None)
    path = _least_live_chain(bottom, l, n, selected)
    return CutsetReport(False, Chain(tuple(NodeSet(v, n) for v in path)))
