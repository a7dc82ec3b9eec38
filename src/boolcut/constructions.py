"""Explicit cutset builders for truncated Boolean lattices.

Four strategies, each producing a cutset as a disjoint family of saturated
chains (the chain count is then an upper bound on the width, and since all
bottoms sit at the lowest level they witness that the bound is tight):

* ``cutset_level``     l = m:       the whole bottom level.
* ``cutset_bicolor``   l = m + 1:   pair every m-set avoiding element 1
                                    with itself plus 1.
* ``cutset_fourcolor`` l = m + 2:   size-3 chains through elements 1 and 2,
                                    recursing on the nodes that contain 2
                                    but not 1.
* ``cutset_product``   2m <= l:     lift each chain of the bounded
                                    partition of 2^[2m] by every possible
                                    set of outside elements.

``BUILDERS`` maps each method name to its builder, and ``cutset_auto``
picks whichever applies with the fewest chains.  No construction is known
for m + 2 < l < 2m.
"""

from __future__ import annotations

import json
from typing import Iterator, TextIO

from .chains import Chain, bounded_chain_partition, check_chain_masks
from .defaults import METHODS
from .errors import DomainError, InternalError
from .formulas import binomial, delta, per_level_bound_value
from .lattice import (
    NodeSet,
    TruncatedLattice,
    check_instance,
    level_masks,
    mask_elements,
    mask_from_json,
)
from .records import Record

# Each builder takes (n, m, l), under its name in ``defaults.METHODS``.  The
# lambdas look the builders up at call time, so a wrapper installed on this
# module later is the one called.
BUILDERS = dict(
    zip(
        METHODS,
        (
            lambda n, m, l: cutset_level(n, m),
            lambda n, m, l: cutset_bicolor(n, m),
            lambda n, m, l: cutset_fourcolor(n, m),
            lambda n, m, l: cutset_product(n, m, l),
        ),
        strict=True,
    )
)


class Cutset(Record):
    """A chain family inside a truncated lattice, claimed to be a cutset.

    Each chain is a tuple of bit vectors, bottom first, and must be
    saturated ascending within levels m..l; ``chains`` and ``nodes`` build
    ``Chain`` and ``NodeSet`` objects only when asked.  Builders in this
    module always emit pairwise disjoint chains, so the chain count bounds
    the width of the union from above.
    """

    lat: TruncatedLattice
    chain_masks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        check_node = self.lat.check_node
        for ch in self.chain_masks:
            check_chain_masks(ch)
            for v in ch:
                check_node(v)

    @property
    def chain_count(self) -> int:
        return len(self.chain_masks)

    @property
    def chains(self) -> tuple[Chain, ...]:
        n = self.lat.n
        return tuple(Chain(tuple(NodeSet(v, n) for v in ch)) for ch in self.chain_masks)

    def node_masks(self) -> set[int]:
        return {v for ch in self.chain_masks for v in ch}

    def nodes(self) -> tuple[NodeSet, ...]:
        return tuple(NodeSet(v, self.lat.n) for v in sorted(self.node_masks()))

    def levels_used(self) -> list[int]:
        return sorted({v.bit_count() for ch in self.chain_masks for v in ch})

    def _head(self) -> dict:
        return {"format": 1, "n": self.lat.n, "m": self.lat.m, "l": self.lat.l}

    def _chains_json(self) -> Iterator[list[list[int]]]:
        return ([mask_elements(v) for v in ch] for ch in self.chain_masks)

    def to_json(self) -> dict:
        return {**self._head(), "chains": list(self._chains_json())}

    def write_json(self, out: TextIO) -> None:
        """Write ``json.dumps(self.to_json())`` to ``out``, one chain at a time."""
        head = json.dumps({**self._head(), "chains": []})
        out.write(head[:-2])  # up to the "[" that opens the chains
        sep = ""
        for ch in self._chains_json():
            out.write(sep + json.dumps(ch))
            sep = ", "
        out.write("]}")

    @classmethod
    def from_json(cls, data: dict) -> "Cutset":
        if not isinstance(data, dict):
            raise DomainError("cutset JSON must be an object")
        if type(data.get("format")) is not int or data["format"] != 1:
            raise DomainError(f"unsupported cutset format {data.get('format')!r}")
        try:
            n, m, l, raw_chains = data["n"], data["m"], data["l"], data["chains"]
        except KeyError as exc:
            raise DomainError(f"malformed cutset JSON: missing {exc}") from exc
        if not all(type(x) is int for x in (n, m, l)):
            raise DomainError(f"cutset JSON n, m, l must be integers, got {n!r}, {m!r}, {l!r}")
        if not isinstance(raw_chains, list) or not all(
            isinstance(ch, list) for ch in raw_chains
        ):
            raise DomainError("cutset JSON field 'chains' must be a list of chains")
        lat = TruncatedLattice(n, m, l)
        chains = []
        for raw in raw_chains:
            # Each chain is checked as soon as it is read, so that the error
            # is the first one in the file; the levels are checked last.
            ch = tuple(mask_from_json(node, n) for node in raw)
            check_chain_masks(ch)
            chains.append(ch)
        return cls(lat, tuple(chains))


def cutset_level(n: int, m: int) -> Cutset:
    """The whole level m, as singleton chains: a cutset of levels m..m."""
    if not 0 <= m <= n:
        raise DomainError(f"need 0 <= m <= n, got n={n} m={m}")
    lat = TruncatedLattice(n, m, m)
    return Cutset(lat, tuple((v,) for v in level_masks(n, m)))


def cutset_bicolor(n: int, m: int) -> Cutset:
    """Cutset of levels m..m+1: chains B c B+{1} over m-sets B avoiding 1.

    Only the m-sets containing 1 and the (m+1)-sets avoiding 1 are missed,
    and those form an antichain, so every maximal chain is met.
    """
    if not 0 <= m <= n - 1:
        raise DomainError(f"need 0 <= m <= n - 1, got n={n} m={m}")
    lat = TruncatedLattice(n, m, m + 1)
    # b << 1 is an m-subset of [n] minus element 1.
    return Cutset(lat, tuple((b << 1, b << 1 | 1) for b in level_masks(n - 1, m)))


def _fourcolor_mask_chains(n: int, m: int) -> list[tuple[int, ...]]:
    # Stage chains B c B+{1} c B+{1,2} over m-sets B avoiding 1 and 2,
    # then recurse on the class containing 2 but not 1, which is a copy of
    # the (n-2, m-1) instance embedded by adding 2 and shifting the rest.
    out = [(b << 2, (b << 2) | 1, (b << 2) | 3) for b in level_masks(n - 2, m)]
    if m >= 1:
        out.extend(
            tuple((x << 2) | 2 for x in ch) for ch in _fourcolor_mask_chains(n - 2, m - 1)
        )
    return out


def cutset_fourcolor(n: int, m: int) -> Cutset:
    """Recursive cutset of levels m..m+2, needs n >= 2m + 2."""
    if m < 0 or n < 2 * m + 2:
        raise DomainError(f"need m >= 0 and n >= 2m + 2, got n={n} m={m}")
    lat = TruncatedLattice(n, m, m + 2)
    return Cutset(lat, tuple(_fourcolor_mask_chains(n, m)))


def cutset_product(n: int, m: int, l: int) -> Cutset:
    """Cutset of levels m..l for l >= 2m, living entirely in levels m..2m.

    Each chain C_j c ... c C_k of the bounded partition of 2^[2m] (bottom
    at level j) is lifted by every (m - j)-subset S of the outside elements
    2m+1..n, giving a chain from level m to level m + k - j.
    """
    if not 0 <= 2 * m <= l <= n - m:
        raise DomainError(f"need 0 <= 2m <= l <= n - m, got n={n} m={m} l={l}")
    lat = TruncatedLattice(n, m, l)
    part = bounded_chain_partition(2 * m, m + 1).chain_masks
    high = sum(ch[0].bit_count() > m for ch in part)
    if len(part) != binomial(2 * m, m) or high:
        raise InternalError(
            f"bounded partition of 2^[{2 * m}] has {len(part)} chains, "
            f"not C({2 * m},{m}) = {binomial(2 * m, m)}, and {high} bottoms above level {m}"
        )
    chains = []
    for ch in part:
        for s in level_masks(n - 2 * m, m - ch[0].bit_count()):
            smask = s << (2 * m)
            chains.append(tuple(v | smask for v in ch))
    return Cutset(lat, tuple(chains))


def method_counts(n: int, m: int, l: int) -> dict[str, int]:
    """Chain counts of every builder applicable to the (n, m, l) instance.

    The ground set is capped, with the lattice's message, before any
    binomial in n is evaluated: C(10**7, 10**6) alone takes about a minute.
    """
    if not 0 <= m <= l <= n - m:
        raise DomainError(f"need 0 <= m <= l <= n - m, got n={n} m={m} l={l}")
    check_instance(n, m, l)
    counts: dict[str, int] = {}
    # The level, bicolor and fourcolor builders attain the short-lattice g.
    short = per_level_bound_value(n, m, l)
    if short is not None:
        counts[METHODS[l - m]] = short
    if 2 * m <= l:
        counts["product"] = delta(n, m)
    return counts


def choose_method(n: int, m: int, l: int) -> str:
    """Pick the applicable builder with the fewest chains.

    Ties break toward the later entry of level < bicolor < fourcolor <
    product.  Raises when no construction covers (n, m, l), i.e. for
    m + 2 < l < 2m.
    """
    counts = method_counts(n, m, l)
    if not counts:
        raise DomainError(f"no construction known for n={n} m={m} l={l}")
    return min(counts, key=lambda name: (counts[name], -METHODS.index(name)))


def cutset_auto(n: int, m: int, l: int) -> Cutset:
    """Build a cutset of levels m..l with the cheapest applicable method."""
    return BUILDERS[choose_method(n, m, l)](n, m, l)
