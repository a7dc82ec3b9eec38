"""Ground model of the subset lattice 2^[n] and its truncated slices.

Subsets of [n] = {1, ..., n} are stored as bit vectors: element i occupies
bit i - 1, so inclusion tests, level computation, and cover enumeration are
single integer operations.  The ground set size is capped at 64 to keep the
encoding fixed-width; exact counting routines elsewhere accept larger n.

All values are immutable after construction and safe to share across
threads.  Every enumeration is in ascending numeric (bit-vector) order, so
outputs are reproducible byte for byte.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import lt
from typing import Iterator

from .errors import DomainError
from .records import Record, set_field

MAX_GROUND = 64


def full_mask(n: int) -> int:
    return (1 << n) - 1


def check_mask(bits: int, n: int) -> None:
    """Raise unless ``bits`` is the bit vector of a subset of [n]."""
    if bits < 0 or bits >> n:
        raise DomainError(f"bit vector {bits:#x} does not fit in [{n}]")


def mask_elements(bits: int) -> list[int]:
    """The 1-based elements of the subset with bit vector ``bits``, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length())
        bits ^= low
    return out


def mask_repr(bits: int) -> str:
    """The subset as ``{1,3}``: its elements, ascending."""
    return "{" + ",".join(map(str, mask_elements(bits))) + "}"


def _mask_from_elements(elements, n: int) -> int:
    """The bit vector of the 1-based ``elements``, each checked to lie in [n]."""
    bits = 0
    for e in elements:
        if not 1 <= e <= n:
            raise DomainError(f"element {e} outside [{n}]")
        bits |= 1 << (e - 1)
    return bits


_one_shifted = (1).__lshift__  # _one_shifted(e) == 1 << e


def mask_from_json(data, n: int) -> int:
    """The bit vector of a node's JSON form: an ascending list of 1-based elements of [n]."""
    if not isinstance(data, list) or not all(type(e) is int for e in data):
        raise DomainError(f"node must be a list of integers, got {data!r}")
    if not all(map(lt, data, data[1:])):
        raise DomainError(f"node elements must be ascending without repeats, got {data!r}")
    # The list ascends, so its first element outside [n] is its first if that
    # is below 1, else its first above n; and the sum of its distinct
    # elements' bits is its bit vector.
    if data and (data[0] < 1 or data[-1] > n):
        e = data[0] if data[0] < 1 else data[bisect_right(data, n)]
        raise DomainError(f"element {e} outside [{n}]")
    return sum(map(_one_shifted, data)) >> 1


class NodeSet(Record):
    """A subset of [n] = {1, ..., n}, encoded as a bit vector.

    ``bits`` has bit i - 1 set exactly when element i belongs to the set.
    """

    bits: int
    n: int

    def __init__(self, bits: int, n: int) -> None:
        # Without the generic argument handling: one is built per node.
        if not 0 <= n <= MAX_GROUND:
            raise DomainError(f"ground size {n} outside 0..{MAX_GROUND}")
        check_mask(bits, n)
        set_field(self, "bits", bits)
        set_field(self, "n", n)

    @property
    def level(self) -> int:
        """Size of the subset (its level in the lattice)."""
        return self.bits.bit_count()

    def elements(self) -> tuple[int, ...]:
        """The 1-based elements, ascending."""
        return tuple(mask_elements(self.bits))

    def __contains__(self, element: int) -> bool:
        return 1 <= element <= self.n and bool(self.bits >> (element - 1) & 1)

    def issubset(self, other: "NodeSet") -> bool:
        if self.n != other.n:
            raise DomainError("ground size mismatch")
        return self.bits & ~other.bits == 0

    @classmethod
    def from_elements(cls, elements, n: int) -> "NodeSet":
        return cls(_mask_from_elements(elements, n), n)

    def to_json(self) -> list[int]:
        """JSON form: ascending list of 1-based elements."""
        return mask_elements(self.bits)

    @classmethod
    def from_json(cls, data, n: int) -> "NodeSet":
        return cls(mask_from_json(data, n), n)

    def __repr__(self) -> str:
        return mask_repr(self.bits)


def check_instance(n: int, m: int, l: int) -> None:
    """Raise unless B_n(m, l) is a lattice: 0 <= m <= l <= n <= MAX_GROUND."""
    if not 0 <= m <= l <= n <= MAX_GROUND:
        raise DomainError(f"need 0 <= m <= l <= n <= {MAX_GROUND}, got n={n} m={m} l={l}")


class TruncatedLattice(Record):
    """The nodes of 2^[n] whose size lies between m and l, inclusive."""

    n: int
    m: int
    l: int

    def __post_init__(self) -> None:
        check_instance(self.n, self.m, self.l)

    def check_node(self, bits: int) -> None:
        """Raise unless ``bits`` is the bit vector of a node of the lattice."""
        check_mask(bits, self.n)
        if not self.m <= bits.bit_count() <= self.l:
            raise DomainError(
                f"node {mask_repr(bits)} at level {bits.bit_count()} outside levels "
                f"{self.m}..{self.l}"
            )

    @property
    def levels(self) -> range:
        return range(self.m, self.l + 1)

    @property
    def node_count(self) -> int:
        from math import comb

        return sum(comb(self.n, i) for i in self.levels)


def iter_level_masks(n: int, k: int) -> Iterator[int]:
    """All k-subsets of [n] as bit vectors, ascending, made one at a time.

    The arguments are checked when the first mask is asked for.
    """
    if not 0 <= k <= n <= MAX_GROUND:
        raise DomainError(f"need 0 <= k <= n <= {MAX_GROUND}, got n={n} k={k}")
    if k == 0:
        yield 0
        return
    v = (1 << k) - 1
    limit = 1 << n
    while v < limit:
        yield v
        # Gosper's hack: next integer with the same popcount.
        c = v & -v
        r = v + c
        v = (((r ^ v) >> 2) // c) | r


def level_masks(n: int, k: int) -> list[int]:
    """All k-subsets of [n] as bit vectors, ascending."""
    return list(iter_level_masks(n, k))


def level_nodes(n: int, k: int) -> list[NodeSet]:
    """All subsets of size k over [n], in ascending bit-vector order."""
    return [NodeSet(v, n) for v in level_masks(n, k)]

