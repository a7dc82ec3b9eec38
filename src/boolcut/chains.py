"""Saturated chains and bounded-size chain partitions of 2^[k].

The central construction is ``bounded_chain_partition(k, c)``, a partition
of the whole cube into saturated chains of size at most c.  Two regimes:

* c > k: the bound can never bind, and the partition is the classical
  element-by-element symmetric chain recursion (every chain starting at
  level j ends at level k - j).

* c <= k: chains are grown level by level.  Each node adopts one cover
  predecessor, found by maximum bipartite matching in which a node whose
  deepest predecessor sits at chain position p only accepts predecessors
  at position p - 1 or later (and below the size cap).  This keeps chain
  positions monotone along inclusions: whenever A lies inside B, A's
  position within its chain is at most B's.  A naive "freeze chains at
  size c" variant of the recursion produces the same chain counts but
  fails that monotonicity once k reaches 8, which silently breaks the
  product-lift cutsets built on top of it; the matching formulation is
  what ``constructions.cutset_product`` relies on.

Invoked at (k, c) = (2m, m+1) the bounded partition uses C(2m, m) chains,
of which C(2m, j) - C(2m, j-1) start at each level j <= m; these counts
and the monotonicity property are exercised directly in the test suite.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Sequence

from .errors import DomainError
from .lattice import MAX_GROUND, NodeSet, check_mask, level_masks, mask_elements, mask_repr
from .records import Record, set_field


def check_chain_masks(masks: Sequence[int]) -> None:
    """Raise unless the bit vectors form a nonempty saturated ascending chain."""
    if not masks:
        raise DomainError("chain must be nonempty")
    for prev, nxt in zip(masks, masks[1:]):
        if prev & ~nxt or nxt.bit_count() != prev.bit_count() + 1:
            raise DomainError(
                f"chain not saturated ascending at {mask_repr(prev)} -> {mask_repr(nxt)}"
            )


class Chain(Record):
    """A saturated ascending run of subsets: each node adds one element."""

    nodes: tuple[NodeSet, ...]

    def __post_init__(self) -> None:
        if any(node.n != self.nodes[0].n for node in self.nodes):
            raise DomainError("chain mixes ground sizes")
        check_chain_masks([node.bits for node in self.nodes])

    @property
    def size(self) -> int:
        return len(self.nodes)

    @property
    def length(self) -> int:
        return len(self.nodes) - 1

    @property
    def bottom(self) -> NodeSet:
        return self.nodes[0]

    @property
    def top(self) -> NodeSet:
        return self.nodes[-1]

    def __iter__(self):
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def to_json(self) -> list[list[int]]:
        return [node.to_json() for node in self.nodes]


class ChainPartition(Record):
    """Disjoint chains over the ground set [k], each of size at most c.

    Each chain is kept as a tuple of bit vectors; ``chains`` builds
    ``Chain`` objects only when asked.  The constructor takes ``Chain``
    objects and ``from_masks`` takes the bit vectors.  Either enforces
    disjointness and the size bound; whether the chains cover all of 2^[k]
    is a separate question (``covers_ground``), so that deliberately
    partial inputs can still be fed to the checkers.
    """

    chain_masks: tuple[tuple[int, ...], ...]
    k: int
    c: int

    def __init__(self, chains: Iterable[Chain], k: int, c: int) -> None:
        chains = tuple(chains)
        _check_partition_bounds(k, c)
        if any(ch.bottom.n != k for ch in chains):
            raise DomainError("chain ground size differs from partition ground size")
        self._fill(tuple(tuple(node.bits for node in ch) for ch in chains), k, c)

    @classmethod
    def from_masks(cls, chain_masks: Iterable[Sequence[int]], k: int, c: int) -> "ChainPartition":
        _check_partition_bounds(k, c)
        part = cls.__new__(cls)
        part._fill(tuple(map(tuple, chain_masks)), k, c)
        return part

    def _fill(self, chain_masks: tuple[tuple[int, ...], ...], k: int, c: int) -> None:
        seen: set[int] = set()
        for ch in chain_masks:
            check_chain_masks(ch)
            if len(ch) > c:
                raise DomainError(f"chain of size {len(ch)} exceeds bound {c}")
            for v in ch:
                check_mask(v, k)
                if v in seen:
                    raise DomainError(f"node {mask_repr(v)} appears in two chains")
                seen.add(v)
        set_field(self, "chain_masks", chain_masks)
        set_field(self, "k", k)
        set_field(self, "c", c)

    @property
    def chains(self) -> tuple[Chain, ...]:
        return tuple(Chain(tuple(NodeSet(v, self.k) for v in ch)) for ch in self.chain_masks)

    def node_count(self) -> int:
        return sum(map(len, self.chain_masks))

    def covers_ground(self) -> bool:
        return self.node_count() == 1 << self.k

    def to_json(self) -> list[list[list[int]]]:
        return [[mask_elements(v) for v in ch] for ch in self.chain_masks]


def _check_partition_bounds(k: int, c: int) -> None:
    if not 0 <= k <= MAX_GROUND:
        raise DomainError(f"ground size {k} outside 0..{MAX_GROUND}")
    if c < 1:
        raise DomainError("maximum chain size c must be >= 1")


def _symmetric_chain_masks(k: int) -> list[list[int]]:
    # Element-by-element recursion: a chain either grows by the new
    # element on top, spinning off a shifted copy of its prefix, or (when
    # it is a singleton) just grows.
    chains: list[list[int]] = [[0]]
    for step in range(k):
        bit = 1 << step
        nxt: list[list[int]] = []
        for ch in chains:
            if len(ch) == 1:
                nxt.append(ch + [ch[0] | bit])
            else:
                nxt.append(ch + [ch[-1] | bit])
                nxt.append([x | bit for x in ch[:-1]])
        chains = nxt
    return chains


def augment(start: int, adjacent: dict[int, list[int]], right_mate: dict[int, int],
            left_mate: dict[int, int], visited: set[int]) -> bool:
    """Kuhn's alternating-path search from the unmatched left node ``start``.

    ``adjacent`` maps left nodes to right nodes in search order; the two
    mate dicts hold the matching from either side.  The search skips the
    right nodes in ``visited`` and adds to it every right node it visits.
    On success the path is flipped and True is returned.  Iterative,
    because levels can hold thousands of nodes.  The stack is the
    alternating path: ``start``, then the mate of each right node the path
    reached.  The flip walks it down from the top, matching each left node
    to the right node it reached last and handing its old mate down.
    """
    stack: list[tuple[int, Iterator[int]]] = [(start, iter(adjacent[start]))]
    while stack:
        x, it = stack[-1]
        for y in it:
            if y not in visited:
                break
        else:
            stack.pop()
            continue
        visited.add(y)
        holder = right_mate.get(y)
        if holder is None:
            for x, _ in reversed(stack):
                right_mate[y] = x
                y, left_mate[x] = left_mate.get(x), y
            return True
        stack.append((holder, iter(adjacent[holder])))
    return False


def greedy_match(starts: Iterable[int], adjacent: dict[int, list[int]],
                 right_mate: dict[int, int], left_mate: dict[int, int]) -> None:
    """One augmenting search from each of the unmatched left nodes ``starts``, in order.

    The matching is the one that a fresh ``visited`` set per search gives,
    but the right nodes of failed searches stay marked dead until the next
    success, so later searches skip them.  Soundness: a failed search
    visits every right node reachable from its start by alternating paths,
    and none of them is free.  A failure changes no mate and the graph
    stays as it is, and an alternating path leaves a right node only
    through its mate.  So until the next success every dead node still
    reaches no free node, and skipping it is the same as exploring it and
    failing: the visits outside the dead set happen in the same order, and
    the search flips the same first path.  A success changes mates, so it
    clears the set.
    """
    dead: set[int] = set()
    for x in starts:
        if augment(x, adjacent, right_mate, left_mate, dead):
            dead.clear()


def _bounded_chain_masks(k: int, c: int) -> list[list[int]]:
    # Level-by-level growth.  age = chain position - 1; a node may extend
    # a predecessor only while its chain stays below size c, and should
    # take one aged at least (deepest predecessor's age) - 1 so positions
    # never step backwards along inclusions.  Unmatched nodes start new
    # chains.  A second pass, over every usable predecessor, matches what
    # the window leaves unmatched.  On the (2m, m+1) instances it first
    # fires at k = 14: without it (14, 8) has 3437 chains, with bottoms up
    # at levels 11 and 12, and with it 3433.
    age = {0: 0}
    succ: dict[int, int] = {}
    for level in range(k):
        nodes = level_masks(k, level + 1)
        maxpred: dict[int, int] = {}
        window: dict[int, list[int]] = {}
        wide: dict[int, list[int]] = {}
        for y in nodes:
            preds = [y ^ (1 << b) for b in range(k) if y >> b & 1]
            mp = max(age[p] for p in preds)
            maxpred[y] = mp
            usable = sorted((p for p in preds if age[p] <= c - 2),
                            key=lambda p: (age[p], p))
            wide[y] = usable
            window[y] = [p for p in usable if age[p] >= mp - 1]
        pair_pred: dict[int, int] = {}
        pair_node: dict[int, int] = {}
        constrained = sorted((y for y in nodes if maxpred[y] >= 1),
                             key=lambda y: (-maxpred[y], y))
        greedy_match(constrained + [y for y in nodes if maxpred[y] == 0],
                     window, pair_pred, pair_node)
        greedy_match([y for y in nodes if y not in pair_node], wide, pair_pred, pair_node)
        new_age = {}
        for y in nodes:
            p = pair_node.get(y)
            if p is None:
                new_age[y] = 0
            else:
                succ[p] = y
                new_age[y] = age[p] + 1
        age = new_age
    grown = set(succ.values())
    chains = []
    for level in range(k + 1):
        for v in level_masks(k, level):
            if v not in grown:
                ch = [v]
                while ch[-1] in succ:
                    ch.append(succ[ch[-1]])
                chains.append(ch)
    return chains


def bounded_chain_partition(k: int, c: int) -> ChainPartition:
    """Partition 2^[k] into saturated chains of size at most c.

    For c > k this is the symmetric chain recursion; otherwise the
    matching-based growth described in the module docstring.  Chains are
    returned sorted by the numeric value of their bottom node.
    """
    _check_partition_bounds(k, c)
    if c > k:
        raw = _symmetric_chain_masks(k)
    else:
        raw = _bounded_chain_masks(k, c)
    raw.sort(key=lambda ch: ch[0])
    return ChainPartition.from_masks(raw, k, c)


def start_level_counts(p: ChainPartition) -> dict[int, int]:
    """How many chains start at each level (size of the bottom node)."""
    counts = Counter(ch[0].bit_count() for ch in p.chain_masks)
    return dict(sorted(counts.items()))


def check_index_monotonicity(p: ChainPartition) -> tuple[bool, list[tuple[int, int, int, int]]]:
    """Check that inclusions between chains never step backwards.

    For every ordered pair of distinct chains A and B and 1-based positions
    i, j, the containment A_i <= B_j must imply i <= j.  Returns (ok,
    violations); each violation is (a_index, i, b_index, j) with 0-based
    chain indices and 1-based positions, listing a pair with A_i <= B_j
    and i > j.
    """
    violations: list[tuple[int, int, int, int]] = []
    seqs = p.chain_masks
    for ai, a in enumerate(seqs):
        for bi, b in enumerate(seqs):
            if ai == bi:
                continue
            for i in range(1, len(a)):
                for j in range(min(i, len(b))):
                    if a[i] & ~b[j] == 0:
                        violations.append((ai, i + 1, bi, j + 1))
    return (not violations), violations
