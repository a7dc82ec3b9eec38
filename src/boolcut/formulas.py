"""Exact integer formulas for cutset widths and per-level bounds.

Everything here is arbitrary-precision integer arithmetic; unlike the
lattice model there is no cap on n.  The convention C(n, k) = 0 for k < 0
or k > n is load-bearing: every truncated sum below relies on it.

Notation used throughout the package: h(n, m, l) is the minimum width of
a cutset in the truncated lattice with levels m..l, g(n, m, l) the least
k for which some cutset has at most k nodes on each level, and
delta(n, k) = C(n, k) - C(n, k - 1).
"""

from __future__ import annotations

from collections.abc import Iterator
from math import comb

from .errors import DomainError
from .records import Record


def binomial(n: int, k: int) -> int:
    """C(n, k), with the value 0 whenever k < 0 or k > n."""
    if n < 0:
        raise DomainError(f"binomial needs n >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def delta(n: int, k: int) -> int:
    """C(n, k) - C(n, k - 1); negative above the middle level."""
    return binomial(n, k) - binomial(n, k - 1)


def _delta_sum(n: int, m: int, step: int) -> int:
    total = 0
    k = m
    while k >= 0:
        total += delta(n, k)
        k -= step
    return total


def conjectured_min_width(n: int, m: int, l: int) -> int:
    """The conjectured value of h(n, m, l): sum of delta(n, m - j*c).

    Here c = l - m + 1 is the number of levels; the sum runs over the
    floor(m / c) + 1 indices with m - j*c >= 0.  The formula is proven
    for l <= m + 2 and conjectured for large n elsewhere; this function
    simply evaluates it on any valid (n, m, l).
    """
    if not 0 <= m <= l <= n - m:
        raise DomainError(f"need 0 <= m <= l <= n - m, got n={n} m={m} l={l}")
    return _delta_sum(n, m, l - m + 1)


def per_level_bound_value(n: int, m: int, l: int) -> int | None:
    """The known closed form of g(n, m, l) for short lattices, else None.

    Covered cases: l = m for n >= m, l = m + 1 for n >= m + 1, and
    l = m + 2 for n >= 2m + 2.
    """
    if not 0 <= m <= l <= n:
        raise DomainError(f"need 0 <= m <= l <= n, got n={n} m={m} l={l}")
    if l == m:
        return binomial(n, m)
    if l == m + 1 and n >= m + 1:
        return binomial(n - 1, m)
    if l == m + 2 and n >= 2 * m + 2:
        return sum(binomial(n - 2 * j - 2, m - j) for j in range(m + 1))
    return None


def symmetric_per_level_bound(n: int, m: int) -> int:
    """The conjectured g(n, m, n - m): C(n-1, m) - C(n-1, m-1).

    Needs n >= 1 since the expression refers to ground size n - 1.
    """
    if n < 1 or not 0 <= m <= n - m:
        raise DomainError(f"need n >= 1 and 0 <= m <= n - m, got n={n} m={m}")
    return binomial(n - 1, m) - binomial(n - 1, m - 1)


class IdentityCheck(Record):
    identity: str
    n: int
    m: int
    lhs: int
    rhs: int
    ok: bool


def check_identities(max_n: int, max_m: int) -> list[IdentityCheck]:
    """The list of ``identity_checks(max_n, max_m)``."""
    return list(identity_checks(max_n, max_m))


def identity_checks(max_n: int, max_m: int) -> Iterator[IdentityCheck]:
    """Verify the four binomial identity families behind the constructions.

    For all n <= max_n and m <= max_m within each family's own parameter
    condition, n-major, one record at a time:

    * delta_sum_c1:  sum_j delta(n, m - j)  = C(n, m)
    * delta_sum_c2:  sum_j delta(n, m - 2j) = C(n-1, m)        (n >= m + 1)
    * delta_sum_c3:  sum_j delta(n, m - 3j) = sum_j C(n-2j-2, m-j)
                                                               (n >= 2m + 2)
    * lift_count:    sum_j (C(2m, j) - C(2m, j-1)) * C(n-2m, m-j)
                                            = C(n, m) - C(n, m-1)  (n >= 2m)

    A negative bound raises DomainError at once, before any record.
    """
    if max_n < 0 or max_m < 0:
        raise DomainError("bounds must be nonnegative")
    return (
        check for n in range(max_n + 1) for m in range(max_m + 1) for check in _checks_at(n, m)
    )


def _checks_at(n: int, m: int) -> Iterator[IdentityCheck]:
    lhs = _delta_sum(n, m, 1)
    rhs = binomial(n, m)
    yield IdentityCheck("delta_sum_c1", n, m, lhs, rhs, lhs == rhs)
    if n >= m + 1:
        lhs = _delta_sum(n, m, 2)
        rhs = per_level_bound_value(n, m, m + 1)
        yield IdentityCheck("delta_sum_c2", n, m, lhs, rhs, lhs == rhs)
    if n >= 2 * m + 2:
        lhs = _delta_sum(n, m, 3)
        rhs = per_level_bound_value(n, m, m + 2)
        yield IdentityCheck("delta_sum_c3", n, m, lhs, rhs, lhs == rhs)
    if n >= 2 * m:
        lhs = sum(delta(2 * m, j) * binomial(n - 2 * m, m - j) for j in range(m + 1))
        rhs = delta(n, m)
        yield IdentityCheck("lift_count", n, m, lhs, rhs, lhs == rhs)
