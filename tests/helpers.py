"""Independent oracles used across the test suite.

Everything here is deliberately written without the package's own lattice
helpers (itertools enumeration, Pascal's triangle, exhaustive subset
scans), so that test expectations do not depend on the code paths they
check.
"""

from itertools import combinations


def pascal(n: int, k: int) -> int:
    """Binomial coefficient from Pascal's triangle; 0 outside 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def mask_of(elements, _n=None) -> int:
    return sum(1 << (e - 1) for e in elements)


def level_masks_naive(n: int, k: int) -> list[int]:
    return sorted(mask_of(c) for c in combinations(range(1, n + 1), k))


def iter_maximal_chains(n: int, m: int, l: int):
    """All saturated chains from level m to level l, as tuples of masks."""

    def extend(chain):
        if len(chain) == l - m + 1:
            yield tuple(chain)
            return
        v = chain[-1]
        for e in range(n):
            bit = 1 << e
            if not v & bit:
                chain.append(v | bit)
                yield from extend(chain)
                chain.pop()

    for bottom in combinations(range(1, n + 1), m):
        yield from extend([mask_of(bottom)])


def missed_chain_masks(levels, covers, selected):
    """The least maximal chain that misses ``selected``, with the counts ``up``; None if none does.

    ``levels`` lists the masks of each lattice level in ascending order,
    bottom first, and ``covers[i][j]`` the ascending positions on level
    i + 1 of the covers of the j-th node of level i.  ``up[i][j]`` counts
    the chains from that node to the top level that miss ``selected`` (0 on
    a selected node).  The chain, bottom to top, starts at the least bottom
    node with a positive count and steps to the least cover with one, so it
    is the lexicographically least missed chain.  This is the reference for
    the search's incremental counts.
    """
    up = [0 if v in selected else 1 for v in levels[-1]]
    counts = [up]
    for lv, cov in zip(levels[-2::-1], covers[::-1]):
        up = [0 if v in selected else sum(up[c] for c in cs) for v, cs in zip(lv, cov)]
        counts.append(up)
    counts.reverse()
    if not any(counts[0]):
        return None
    j = next(j for j, c in enumerate(counts[0]) if c)
    path = [levels[0][j]]
    for lv, cov, cnt in zip(levels[1:], covers, counts[1:]):
        j = next(c for c in cov[j] if cnt[c])
        path.append(lv[j])
    return path, counts


def maximal_chain_count(n: int, m: int, l: int) -> int:
    count = pascal(n, m)
    for i in range(m, l):
        count *= n - i
    return count


def naive_is_cutset(n: int, m: int, l: int, masks) -> bool:
    selected = set(masks)
    return all(any(v in selected for v in ch) for ch in iter_maximal_chains(n, m, l))


def brute_force_width(masks) -> int:
    """Largest antichain by scanning all subsets of the input (|S| <= ~20)."""
    ms = sorted(set(masks))
    s = len(ms)
    comparable = [0] * s
    for i, a in enumerate(ms):
        for j, b in enumerate(ms):
            if i != j and (a & ~b == 0 or b & ~a == 0):
                comparable[i] |= 1 << j
    best = 0
    antichain = bytearray(1 << s)
    antichain[0] = 1
    for mask in range(1, 1 << s):
        low = mask & -mask
        rest = mask ^ low
        if antichain[rest] and not comparable[low.bit_length() - 1] & rest:
            antichain[mask] = 1
            best = max(best, mask.bit_count())
    return best


def kuhn_augment(x, adjacent, right_mate, left_mate, visited) -> bool:
    """Kuhn's augmenting-path search from left node x, written recursively.

    Tries the right nodes of ``adjacent[x]`` in order, skipping and then
    adding to ``visited``; a right node that is free, or whose mate finds
    another path, is matched to x.
    """
    for y in adjacent[x]:
        if y in visited:
            continue
        visited.add(y)
        holder = right_mate.get(y)
        if holder is None or kuhn_augment(holder, adjacent, right_mate, left_mate, visited):
            right_mate[y] = x
            left_mate[x] = y
            return True
    return False
