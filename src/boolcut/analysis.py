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

Cutset membership uses one backward sweep, top level first, that counts
for every node the untouched chains from it to the top level: 0 on a
selected node, 1 on an unselected top node, and otherwise the sum over the
node's covers.  The selection is a cutset exactly when every bottom count
is 0; otherwise a greedy walk up through nodes with a positive count, from
the least such bottom node and always to the least such cover,
reconstructs the lexicographically least missed maximal chain.  The exact
search starts its chain counts from the same sweep and keeps them up to
date itself, reusing the greedy walk (``least_missed_chain``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .chains import Chain, augment
from .errors import DomainError, InternalError
from .lattice import NodeSet, TruncatedLattice, full_mask, level_masks


@dataclass(frozen=True)
class WidthReport:
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


@dataclass(frozen=True)
class CutsetReport:
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
    uses this class: ``width`` matches a whole family in bulk.  Its
    augmentations pass no dead marks, because pop() undoes mate changes.
    """

    def __init__(self) -> None:
        self.nodes: list[int] = []
        self.above: dict[int, list[int]] = {}
        self.below: dict[int, list[int]] = {}
        self.pair_up: dict[int, int] = {}
        self.pair_down: dict[int, int] = {}
        self._trail: list[list[tuple]] = []

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
        log: list[tuple] = []
        augment(v, self.above, self.pair_down, self.pair_up, log)
        if v not in self.pair_down:
            augment(v, self.below, self.pair_up, self.pair_down, log)
        self._trail.append(log)

    def pop(self) -> None:
        v = self.nodes.pop()
        for mates, key, old in reversed(self._trail.pop()):
            if old is None:
                del mates[key]
            else:
                mates[key] = old
        for u in self.below[v]:
            self.above[u].pop()
        for u in self.above[v]:
            self.below[u].pop()
        del self.above[v]
        del self.below[v]


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
    the certificates themselves are re-verified before returning.

    The graph is built once, by ``_proper_subsets``, and matched in one
    greedy pass in ascending mask order: an augmenting search from the
    upper copy of each node through its ``below`` list, with dead marks
    kept across failed searches (see ``chains.augment``).  This is the
    matching that ``InclusionMatcher.push`` reaches for the same order.
    """
    masks, n = _shared_ground(nodes)
    below = dict(zip(masks, _proper_subsets(masks)))
    above: dict[int, list[int]] = {v: [] for v in masks}
    for v in masks:
        for u in below[v]:
            above[u].append(v)
    pair_up: dict[int, int] = {}
    pair_down: dict[int, int] = {}
    dead: set[int] = set()
    for v in masks:
        if augment(v, below, pair_up, pair_down, dead=dead):
            dead.clear()
    w = len(masks) - len(pair_up)

    # Koenig: alternate from unmatched lower copies; the antichain is the
    # set of nodes whose lower copy is reached and upper copy is not.
    z_low = {u for u in masks if u not in pair_up}
    z_up: set[int] = set()
    stack = sorted(z_low)
    while stack:
        u = stack.pop()
        for x in above[u]:
            if x in z_up:
                continue
            z_up.add(x)
            mate = pair_down.get(x)
            if mate is not None and mate not in z_low:
                z_low.add(mate)
                stack.append(mate)
    antichain = [u for u in masks if u in z_low and u not in z_up]

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

    return WidthReport(
        width=w,
        antichain_witness=tuple(NodeSet(u, n) for u in antichain),
        chain_cover=tuple(tuple(NodeSet(x, n) for x in seq) for seq in cover),
    )


def is_antichain(nodes: Iterable[NodeSet]) -> bool:
    """True when no member properly contains another."""
    masks, _ = _shared_ground(nodes)
    return not any(_proper_subsets(masks))


def cover_lists(levels: list[list[int]], n: int) -> list[list[list[int]]]:
    """Positions of each node's covers in the next level, for every level but the top.

    ``levels`` lists the masks of each lattice level in ascending order,
    bottom first.  Each list is ascending, because ``v | bit`` grows with
    ``bit``, so the first entry of a list is the least cover.
    """
    mask_all = full_mask(n)
    out = []
    for lv, nxt in zip(levels, levels[1:]):
        pos = {w: j for j, w in enumerate(nxt)}
        rows = []
        for v in lv:
            row = []
            b = mask_all ^ v
            while b:
                low = b & -b
                row.append(pos[v | low])
                b ^= low
            rows.append(row)
        out.append(rows)
    return out


def least_missed_chain(
    levels: list[list[int]], covers: list[list[list[int]]], counts: list[list[int]]
) -> list[int]:
    """Positions, bottom to top, of the least chain through positive counts.

    ``counts[i][j]`` is the number of untouched chains from the j-th node of
    level i to the top level, and at least one bottom count is positive.  The
    walk starts at the least bottom node with a positive count and always
    steps to the least cover with one; as ``levels`` and every cover list are
    ascending, this is the lexicographically least untouched maximal chain.
    """
    j = next(j for j, c in enumerate(counts[0]) if c)
    path = [j]
    for lv, cov, cnt in zip(levels, covers, counts[1:]):
        for j in cov[j]:
            if cnt[j]:
                break
        else:
            raise InternalError(f"missed-chain reconstruction stuck above {lv[path[-1]]:#x}")
        path.append(j)
    return path


def missed_chain_masks(
    levels: list[list[int]], covers: list[list[list[int]]], selected: set[int]
) -> Optional[tuple[list[int], list[list[int]]]]:
    """Mask-level core of the cutset check, shared with the exact search.

    ``levels`` lists the masks of each lattice level in ascending order,
    bottom first, and ``covers`` is ``cover_lists(levels, n)``.  Returns
    None when every maximal chain meets ``selected``.  Otherwise returns
    the lexicographically least untouched maximal chain, bottom to top,
    and the counts ``up``: ``up[i][j]`` is the number of untouched chains
    from the j-th node of level i to the top level (0 on selected nodes).
    """
    up = [0 if v in selected else 1 for v in levels[-1]]
    counts = [up]
    for lv, cov in zip(levels[-2::-1], covers[::-1]):
        if not any(up):
            return None
        at = up.__getitem__
        up = [0 if v in selected else sum(map(at, cs)) for v, cs in zip(lv, cov)]
        counts.append(up)
    if not any(up):
        return None
    counts.reverse()
    path = least_missed_chain(levels, covers, counts)
    return [lv[j] for lv, j in zip(levels, path)], counts


def is_cutset(lat: TruncatedLattice, nodes: Iterable[NodeSet]) -> CutsetReport:
    """Does the node collection meet every maximal chain of the lattice?

    A maximal chain runs saturated from level m to level l.  When the
    answer is no, the report carries the lexicographically least maximal
    chain disjoint from the input.
    """
    selected: set[int] = set()
    for a in nodes:
        if a.n != lat.n:
            raise DomainError("ground size mismatch with the lattice")
        if not lat.m <= a.level <= lat.l:
            raise DomainError(
                f"node {a} at level {a.level} outside levels {lat.m}..{lat.l}"
            )
        selected.add(a.bits)
    levels = [level_masks(lat.n, i) for i in lat.levels]
    found = missed_chain_masks(levels, cover_lists(levels, lat.n), selected)
    if found is None:
        return CutsetReport(True, None)
    return CutsetReport(False, Chain(tuple(NodeSet(v, lat.n) for v in found[0])))
