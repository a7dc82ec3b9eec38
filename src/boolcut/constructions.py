"""Explicit cutset builders for truncated Boolean lattices, and the cutset JSON format.

Four strategies, each producing a cutset as a disjoint family of saturated
chains (the chain count is then an upper bound on the width, and since all
bottoms sit at the lowest level they witness that the bound is tight):

* ``level_chains``     l = m:       the whole bottom level.
* ``bicolor_chains``   l = m + 1:   pair every m-set avoiding element 1
                                    with itself plus 1.
* ``fourcolor_chains`` l = m + 2:   size-3 chains through elements 1 and 2,
                                    recursing on the nodes that contain 2
                                    but not 1.
* ``product_chains``   2m <= l:     lift each chain of the bounded
                                    partition of 2^[2m] by every possible
                                    set of outside elements.

Each builder checks its instance when called and raises there, then
yields its chains one at a time, so that ``write_cutset_json`` writes a
cutset without holding it.  ``BUILDERS`` maps each method name to its
builder; ``cutset_level`` and the other ``cutset_*`` functions collect a
builder's chains into a ``Cutset``, and ``cutset_auto`` picks whichever
builder applies with the fewest chains.  No construction is known for
m + 2 < l < 2m.  ``read_cutset_json`` reads a file in the layout that
``write_cutset_json`` writes one chain at a time, and ``Cutset.from_json``
is the reference reading of any parsed document.
"""

from __future__ import annotations

import json
import re
from itertools import repeat
from typing import Iterable, Iterator, Optional, Sequence, TextIO

from .chains import Chain, bounded_chain_partition, check_chain_masks
from .defaults import METHODS
from .errors import DomainError, InternalError
from .formulas import binomial, delta, per_level_bound_value
from .lattice import (
    NodeSet,
    TruncatedLattice,
    check_instance,
    iter_level_masks,
    mask_elements,
    mask_from_json,
)
from .records import Record

# Each builder takes (n, m, l), under its name in ``defaults.METHODS``, and
# returns an iterator over its chains.  The lambdas look the builders up at
# call time, so a wrapper installed on this module later is the one called.
BUILDERS = dict(
    zip(
        METHODS,
        (
            lambda n, m, l: level_chains(n, m),
            lambda n, m, l: bicolor_chains(n, m),
            lambda n, m, l: fourcolor_chains(n, m),
            lambda n, m, l: product_chains(n, m, l),
        ),
        strict=True,
    )
)


def _check_chain(ch: Sequence[int], check_node) -> None:
    """Raise unless ``ch`` is a saturated ascending chain of nodes that ``check_node`` accepts."""
    check_chain_masks(ch)
    for v in ch:
        check_node(v)


def _head(lat: TruncatedLattice) -> dict:
    return {"format": 1, "n": lat.n, "m": lat.m, "l": lat.l}


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
            _check_chain(ch, check_node)

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

    def to_json(self) -> dict:
        chains = [[mask_elements(v) for v in ch] for ch in self.chain_masks]
        return {**_head(self.lat), "chains": chains}

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


def write_cutset_json(
    out: TextIO, lat: TruncatedLattice, chain_masks: Iterable[Sequence[int]]
) -> tuple[int, list[int]]:
    """Write the cutset JSON of ``chain_masks`` over ``lat`` to ``out``, one chain at a time.

    The text is ``json.dumps(Cutset(lat, chains).to_json())``, and each
    chain gets the check of ``Cutset`` just before it is written.  Returns
    the number of chains and the levels they use, ascending.
    """
    head = json.dumps({**_head(lat), "chains": []})
    out.write(head[:-2])  # up to the "[" that opens the chains
    check_node = lat.check_node
    count = 0
    levels: set[int] = set()
    for ch in chain_masks:
        _check_chain(ch, check_node)
        out.write((", " if count else "") + json.dumps([mask_elements(v) for v in ch]))
        count += 1
        levels.update(map(int.bit_count, ch))
    out.write("]}")
    return count, sorted(levels)


# The text of a cutset file up to its first chain, as ``write_cutset_json``
# and ``json.dumps`` write it, and the decoder of the chains that follow.
_HEAD = re.compile(
    r'\{"format": 1, "n": (0|[1-9][0-9]*), "m": (0|[1-9][0-9]*), '
    r'"l": (0|[1-9][0-9]*), "chains": \['
)
_decode = json.JSONDecoder().raw_decode


def read_cutset_json(text: str) -> Optional[Cutset]:
    """The cutset of the JSON document ``text``, decoded one chain at a time, or None.

    Takes the layout that ``write_cutset_json`` writes: ``format``, ``n``,
    ``m`` and ``l`` as ``json.dumps`` writes them, then the chains, each
    decoded with ``json.JSONDecoder.raw_decode`` and turned into bit
    vectors at once, so the document is never held as lists; ``Cutset``
    checks the chains at the end.  Any other document, valid or not, gives
    None, and so does every fault of content: this reader raises no error
    of its own.  ``Cutset.from_json(json.loads(text))`` is the reference
    reading, and gives the same cutset wherever this one gives any.
    """
    head = _HEAD.match(text)
    if head is None:
        return None
    n, m, l = map(int, head.groups())
    chains = []
    i = head.end()
    try:
        lat = TruncatedLattice(n, m, l)
        while not text.startswith("]", i):
            raw, i = _decode(text, i)
            if type(raw) is not list:
                return None
            chains.append(tuple(map(mask_from_json, raw, repeat(n))))
            if not text.startswith(", [", i):
                break
            i += 2
        if not text.startswith("]}", i) or text[i + 2 :].strip(" \t\n\r"):
            return None
        return Cutset(lat, tuple(chains))
    except (ValueError, RecursionError):  # from the decoder, or a DomainError
        return None


def level_chains(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """The whole level m, as singleton chains: a cutset of levels m..m."""
    if not 0 <= m <= n:
        raise DomainError(f"need 0 <= m <= n, got n={n} m={m}")
    check_instance(n, m, m)
    return ((v,) for v in iter_level_masks(n, m))


def bicolor_chains(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """Cutset of levels m..m+1: chains B c B+{1} over m-sets B avoiding 1.

    Only the m-sets containing 1 and the (m+1)-sets avoiding 1 are missed,
    and those form an antichain, so every maximal chain is met.
    """
    if not 0 <= m <= n - 1:
        raise DomainError(f"need 0 <= m <= n - 1, got n={n} m={m}")
    check_instance(n, m, m + 1)
    # b << 1 is an m-subset of [n] minus element 1.
    return ((b << 1, b << 1 | 1) for b in iter_level_masks(n - 1, m))


def _fourcolor_chains(n: int, m: int) -> Iterator[tuple[int, ...]]:
    # Stage chains B c B+{1} c B+{1,2} over m-sets B avoiding 1 and 2,
    # then recurse on the class containing 2 but not 1, which is a copy of
    # the (n-2, m-1) instance embedded by adding 2 and shifting the rest.
    for b in iter_level_masks(n - 2, m):
        yield b << 2, (b << 2) | 1, (b << 2) | 3
    if m >= 1:
        for ch in _fourcolor_chains(n - 2, m - 1):
            yield tuple((x << 2) | 2 for x in ch)


def fourcolor_chains(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """Recursive cutset of levels m..m+2, needs n >= 2m + 2."""
    if m < 0 or n < 2 * m + 2:
        raise DomainError(f"need m >= 0 and n >= 2m + 2, got n={n} m={m}")
    check_instance(n, m, m + 2)
    return _fourcolor_chains(n, m)


def product_chains(n: int, m: int, l: int) -> Iterator[tuple[int, ...]]:
    """Cutset of levels m..l for l >= 2m, living entirely in levels m..2m.

    Each chain C_j c ... c C_k of the bounded partition of 2^[2m] (bottom
    at level j) is lifted by every (m - j)-subset S of the outside elements
    2m+1..n, giving a chain from level m to level m + k - j.  The partition
    is built, and checked, when this is called.
    """
    if not 0 <= 2 * m <= l <= n - m:
        raise DomainError(f"need 0 <= 2m <= l <= n - m, got n={n} m={m} l={l}")
    check_instance(n, m, l)
    part = bounded_chain_partition(2 * m, m + 1).chain_masks
    high = sum(ch[0].bit_count() > m for ch in part)
    if len(part) != binomial(2 * m, m) or high:
        raise InternalError(
            f"bounded partition of 2^[{2 * m}] has {len(part)} chains, "
            f"not C({2 * m},{m}) = {binomial(2 * m, m)}, and {high} bottoms above level {m}"
        )
    shift = 2 * m
    return (
        tuple(v | s << shift for v in ch)
        for ch in part
        for s in iter_level_masks(n - shift, m - ch[0].bit_count())
    )


def cutset_level(n: int, m: int) -> Cutset:
    """The cutset of ``level_chains(n, m)``."""
    chains = level_chains(n, m)
    return Cutset(TruncatedLattice(n, m, m), tuple(chains))


def cutset_bicolor(n: int, m: int) -> Cutset:
    """The cutset of ``bicolor_chains(n, m)``."""
    chains = bicolor_chains(n, m)
    return Cutset(TruncatedLattice(n, m, m + 1), tuple(chains))


def cutset_fourcolor(n: int, m: int) -> Cutset:
    """The cutset of ``fourcolor_chains(n, m)``."""
    chains = fourcolor_chains(n, m)
    return Cutset(TruncatedLattice(n, m, m + 2), tuple(chains))


def cutset_product(n: int, m: int, l: int) -> Cutset:
    """The cutset of ``product_chains(n, m, l)``."""
    chains = product_chains(n, m, l)
    return Cutset(TruncatedLattice(n, m, l), tuple(chains))


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
    chains = BUILDERS[choose_method(n, m, l)](n, m, l)
    return Cutset(TruncatedLattice(n, m, l), tuple(chains))
