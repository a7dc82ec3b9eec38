"""Correctness checks for boolcut's outputs, written apart from the library.

Nothing here imports ``boolcut``: every check recomputes what it needs from
the definitions in the paper, so a fault in the library cannot hide itself
by being shared with its checker.

Subsets of [n] are bit masks (element i is bit i - 1).  A maximal chain of
B_n(m, l) climbs saturated from level m to level l; a cutset meets every
maximal chain.  Each ``check_*`` function raises ``CheckError`` on the first
fault it finds and otherwise returns the number of values it settled.
"""

from __future__ import annotations

import csv
import io
import json
from itertools import combinations
from math import comb

NODE_CAP = 64  # largest lattice the CLI searches by default

# The three searched values that no proved property pins down; see README
# for the command that recomputes them.
RECORDED = {("h", 5, 1, 4): 4, ("g", 5, 1, 4): 3, ("h", 6, 1, 4): 5}

REPORT_HEADER = [
    "n", "m", "l", "c", "conjectured_h", "g_formula", "construction_count",
    "searched_h", "searched_g", "flags",
]


class CheckError(Exception):
    """An output of the program is wrong."""


def binom(n: int, k: int) -> int:
    return comb(n, k) if 0 <= k <= n else 0


def level(n: int, k: int) -> list[int]:
    """All k-subsets of [n] as masks, ascending by their element tuples."""
    return [sum(1 << i for i in c) for c in combinations(range(n), k)]


def lattice_size(n: int, m: int, l: int) -> int:
    return sum(binom(n, i) for i in range(m, l + 1))


# -- formulas ---------------------------------------------------------------

def conjectured_h(n: int, m: int, l: int) -> int:
    c = l - m + 1
    return sum(binom(n, k) - binom(n, k - 1) for k in range(m, -1, -c))


def short_g(n: int, m: int, l: int) -> int | None:
    """The closed form of g for short lattices (l <= m + 2), else None."""
    if l == m:
        return binom(n, m)
    if l == m + 1 and n >= m + 1:
        return binom(n - 1, m)
    if l == m + 2 and n >= 2 * m + 2:
        return sum(binom(n - 2 * j - 2, m - j) for j in range(m + 1))
    return None


def builder_counts(n: int, m: int, l: int) -> dict[str, int]:
    """Chain count of every construction that applies to B_n(m, l)."""
    counts = {}
    if l == m:
        counts["level"] = binom(n, m)
    if l == m + 1 and n >= m + 1:
        counts["bicolor"] = binom(n - 1, m)
    if l == m + 2 and n >= 2 * m + 2:
        counts["fourcolor"] = short_g(n, m, l)
    if 2 * m <= l:
        counts["product"] = binom(n, m) - binom(n, m - 1)
    return counts


def auto_method(n: int, m: int, l: int) -> str:
    """The builder with the fewest chains; ties go to the later builder."""
    order = ["level", "bicolor", "fourcolor", "product"]
    counts = builder_counts(n, m, l)
    return min(counts, key=lambda name: (counts[name], -order.index(name)))


def known_value(target: str, n: int, m: int, l: int) -> int | None:
    """The value of h or g where the paper proves it, else a recorded one.

    On the short lattices l <= m + 2 the paper bounds g from below by the
    closed form; h >= g, and a construction with that many chains bounds h
    from above, so both equal it.
    """
    proved = short_g(n, m, l)
    return proved if proved is not None else RECORDED.get((target, n, m, l))


# -- lattice computations ---------------------------------------------------

def count_avoiding_chains(n: int, m: int, l: int, nodes: set[int]) -> int:
    """Number of maximal chains of B_n(m, l) that avoid ``nodes``.

    Dynamic programme over the levels: a node's count is the sum of its
    lower covers' counts, and zero when it is in ``nodes``.  A cutset is
    exactly a node set with count zero.
    """
    prev = {v: 1 for v in level(n, m) if v not in nodes}
    for k in range(m + 1, l + 1):
        cur = {}
        for w in level(n, k):
            if w in nodes:
                continue
            total = 0
            b = w
            while b:
                low = b & -b
                total += prev.get(w ^ low, 0)
                b ^= low
            if total:
                cur[w] = total
        prev = cur
    return sum(prev.values())


def maximal_chains(n: int, m: int, l: int):
    """Yield every maximal chain of B_n(m, l) as a tuple of masks."""
    full = (1 << n) - 1

    def grow(chain):
        if len(chain) == l - m + 1:
            yield tuple(chain)
            return
        top = chain[-1]
        free = full ^ top
        while free:
            low = free & -free
            chain.append(top | low)
            yield from grow(chain)
            chain.pop()
            free ^= low

    for v in level(n, m):
        yield from grow([v])


def family_width(masks) -> int:
    """Width of a small family of subsets: |S| minus a maximum matching.

    Dilworth's theorem through the bipartite strict-inclusion graph, with
    a plain recursive augmenting-path search; meant for search witnesses
    of a few dozen nodes.
    """
    nodes = sorted(set(masks))
    above = {u: [v for v in nodes if v != u and u & ~v == 0] for u in nodes}
    mate: dict[int, int] = {}

    def augment(u, seen):
        for v in above[u]:
            if v not in seen:
                seen.add(v)
                if v not in mate or augment(mate[v], seen):
                    mate[v] = u
                    return True
        return False

    return len(nodes) - sum(augment(u, set()) for u in nodes)


# -- parsing ----------------------------------------------------------------

def _int(value, what: str) -> int:
    if type(value) is not int:
        raise CheckError(f"{what} is not an integer: {value!r}")
    return value


def node_mask(elements, n: int) -> int:
    """Mask of a JSON node: strictly ascending 1-based integers."""
    if not isinstance(elements, list):
        raise CheckError(f"node is not a list: {elements!r}")
    mask = 0
    last = 0
    for e in elements:
        if _int(e, "element") <= last or e > n:
            raise CheckError(f"node {elements!r} is not ascending inside [{n}]")
        mask |= 1 << (e - 1)
        last = e
    return mask


def parse_cutset(data) -> tuple[int, int, int, list[list[int]]]:
    """(n, m, l, chains as mask lists) of a cutset JSON document."""
    if not isinstance(data, dict) or data.get("format") != 1:
        raise CheckError("not a format-1 cutset document")
    n, m, l = (_int(data.get(k), k) for k in ("n", "m", "l"))
    if not 0 <= m <= l <= n - m:
        raise CheckError(f"bad lattice n={n} m={m} l={l}")
    raw = data.get("chains")
    if not isinstance(raw, list) or not all(isinstance(ch, list) and ch for ch in raw):
        raise CheckError("'chains' is not a list of nonempty chains")
    return n, m, l, [[node_mask(v, n) for v in ch] for ch in raw]


def last_json_line(text: str):
    lines = text.strip().splitlines()
    if not lines:
        raise CheckError("no output")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from exc


# -- certify ----------------------------------------------------------------

def certify_width(m: int, l: int, chains: list[list[int]]) -> int:
    """Width of the union of ``chains``, certified from the chains alone.

    Disjoint saturated chains that all start on level m: the chains cover
    the family, so width <= their count, and their bottoms are distinct
    m-sets, an antichain, so width >= their count.
    """
    seen: set[int] = set()
    for ch in chains:
        if ch[0].bit_count() != m:
            raise CheckError(f"chain starts on level {ch[0].bit_count()}, not {m}")
        for a, b in zip(ch, ch[1:]):
            if a & ~b or b.bit_count() != a.bit_count() + 1:
                raise CheckError("chain is not saturated ascending")
        if ch[-1].bit_count() > l:
            raise CheckError(f"chain climbs above level {l}")
        seen.update(ch)
    if len(seen) != sum(len(ch) for ch in chains):
        raise CheckError("chains are not disjoint")
    return len(chains)


def check_missed_chain(chain_json, n: int, m: int, l: int, nodes: set[int]) -> None:
    """A printed missed chain is saturated, runs from m to l, avoids ``nodes``."""
    if not isinstance(chain_json, list) or len(chain_json) != l - m + 1:
        raise CheckError(f"missed chain does not span levels {m}..{l}")
    chain = [node_mask(v, n) for v in chain_json]
    if chain[0].bit_count() != m:
        raise CheckError("missed chain does not start on level m")
    for a, b in zip(chain, chain[1:]):
        if a & ~b or b.bit_count() != a.bit_count() + 1:
            raise CheckError("missed chain is not saturated")
    if nodes.intersection(chain):
        raise CheckError("missed chain meets the cutset")


def check_construct(summary, document, method: str, n: int, m: int, l: int) -> int:
    """A constructed cutset: its width, chain count and summary. Returns 1."""
    fn, fm, fl, chains = parse_cutset(document)
    if (fn, fm, fl) != (n, m, l):
        raise CheckError(f"cutset is for ({fn},{fm},{fl}), asked for ({n},{m},{l})")
    built = auto_method(n, m, l) if method == "auto" else method
    expected = builder_counts(n, m, l).get(built)
    width = certify_width(m, l, chains)
    if width != expected:
        raise CheckError(f"{built}({n},{m},{l}) has {width} chains, formula {expected}")
    levels = sorted({v.bit_count() for ch in chains for v in ch})
    want = {"method": built, "chain_count": width, "levels_used": levels}
    if summary != want:
        raise CheckError(f"summary {summary!r} differs from {want!r}")
    nodes = {v for ch in chains for v in ch}
    if count_avoiding_chains(n, m, l, nodes):
        raise CheckError(f"{built}({n},{m},{l}) misses a maximal chain")
    return 1


def check_verify(out, document) -> int:
    """Output of ``verify`` against the counted verdict and certified width.

    The file's chains cover its nodes, so the width is at most their
    count; each level is an antichain, so it is at least the largest level.
    For the builders' cutsets the two meet.  Returns 1, for the verdict.
    """
    n, m, l, chains = parse_cutset(document)
    if any(a & ~b or a == b for ch in chains for a, b in zip(ch, ch[1:])):
        raise CheckError("a chain of the file is not ascending")
    nodes = {v for ch in chains for v in ch}
    is_cut = count_avoiding_chains(n, m, l, nodes) == 0
    if not isinstance(out, dict) or out.get("is_cutset") is not is_cut:
        raise CheckError(f"verdict {out!r} but the chain count says {is_cut}")
    w = _int(out.get("width"), "width")
    if not out.get("antichain_size") == out.get("chain_cover_size") == w:
        raise CheckError("certificate sizes differ from the width")
    lo = max(sum(v.bit_count() == i for v in nodes) for i in range(m, l + 1))
    hi = len(chains)
    if not lo <= w <= hi:
        raise CheckError(f"width {w} outside the certified range {lo}..{hi}")
    if is_cut:
        if "missed_chain" in out:
            raise CheckError("a missed chain printed for a cutset")
    else:
        check_missed_chain(out.get("missed_chain"), n, m, l, nodes)
    return 1


# -- search -----------------------------------------------------------------

def check_search(out, target: str, n: int, m: int, l: int) -> int:
    """An EXACT search result, its witness and its value. Returns 1."""
    if not isinstance(out, dict) or out.get("status") != "EXACT":
        raise CheckError(f"search {target}({n},{m},{l}) is not EXACT")
    value = _int(out.get("value"), "value")
    if out.get("lower") != value or out.get("upper") != value:
        raise CheckError("EXACT result with lower or upper bound off the value")
    wn, wm, wl, chains = parse_cutset(out.get("witness"))
    if (wn, wm, wl) != (n, m, l):
        raise CheckError("witness lattice differs from the instance")
    nodes = {v for ch in chains for v in ch}
    if any(len(ch) != 1 for ch in chains) or len(nodes) != len(chains):
        raise CheckError("witness is not a set of distinct singleton nodes")
    if any(not m <= v.bit_count() <= l for v in nodes):
        raise CheckError("witness node outside the lattice")
    for chain in maximal_chains(n, m, l):
        if nodes.isdisjoint(chain):
            raise CheckError(f"witness misses the maximal chain {chain}")
    if target == "h":
        objective = family_width(nodes)
    else:
        objective = max(sum(v.bit_count() == i for v in nodes) for i in range(m, l + 1))
    if objective != value:
        raise CheckError(f"witness has objective {objective}, reported {value}")
    known = known_value(target, n, m, l)
    if known is not None and value != known:
        raise CheckError(f"{target}({n},{m},{l}) = {value}, known {known}")
    _int(out.get("stats", {}).get("nodes_expanded"), "nodes_expanded")
    return 1


# -- sweep ------------------------------------------------------------------

def report_rows(n_min: int, n_max: int, m_min: int, m_max: int):
    for n in range(n_min, n_max + 1):
        for m in range(m_min, m_max + 1):
            if m <= n - m:
                for l in range(m, n - m + 1):
                    yield n, m, l


def _cell(text: str):
    """An exact value as int, bounds as (lo, hi), UNKNOWN as None."""
    if text == "UNKNOWN":
        return None
    lo, sep, hi = text.partition("..")
    try:
        return (int(lo), int(hi)) if sep else int(text)
    except ValueError:
        raise CheckError(f"unreadable search cell {text!r}") from None


def _flag(label: str, a, b) -> str:
    if not isinstance(a, int) or not isinstance(b, int):
        return label.replace("~", "?")
    return label.replace("~", "=" if a == b else "!=")


def check_report(text: str, n_min: int, n_max: int, m_min: int, m_max: int) -> int:
    """The conjecture CSV: row set, formula columns and search cells.

    Returns the number of exact search cells, all of them confirmed.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != REPORT_HEADER:
        raise CheckError("report header differs")
    expected = list(report_rows(n_min, n_max, m_min, m_max))
    if [tuple(map(int, r[:3])) for r in rows[1:]] != expected:
        raise CheckError("report rows differ from the instance set")
    exact = 0
    for row, (n, m, l) in zip(rows[1:], expected):
        g_form = short_g(n, m, l)
        counts = builder_counts(n, m, l)
        construction = min(counts.values(), default=None)
        conj = conjectured_h(n, m, l)
        fixed = [str(l - m + 1), str(conj), "" if g_form is None else str(g_form),
                 "" if construction is None else str(construction)]
        if row[3:7] != fixed:
            raise CheckError(f"row {n},{m},{l} formula columns {row[3:7]} != {fixed}")
        if lattice_size(n, m, l) > NODE_CAP:
            if row[7:] != ["SKIPPED", "SKIPPED", "oversize"]:
                raise CheckError(f"oversize row {n},{m},{l} was searched")
            continue
        h, g = _cell(row[7]), _cell(row[8])
        for target, cell in (("h", h), ("g", g)):
            known = known_value(target, n, m, l)
            if isinstance(cell, int):
                if known is not None and cell != known:
                    raise CheckError(f"{target}({n},{m},{l}) = {cell}, known {known}")
                if construction is not None and cell > construction:
                    raise CheckError(f"{target}({n},{m},{l}) exceeds the construction")
                exact += 1
            elif cell is not None:
                lo, hi = cell
                if not lo <= hi or (construction is not None and lo > construction):
                    raise CheckError(f"{target}({n},{m},{l}) bounds {lo}..{hi} are wrong")
                if known is not None and not lo <= known <= hi:
                    raise CheckError(f"{target}({n},{m},{l}) bounds exclude {known}")
        if isinstance(h, int) and isinstance(g, int) and g > h:
            raise CheckError(f"g > h on {n},{m},{l}")
        flags = ";".join([_flag("h~conj", h, conj), _flag("g~h", g, h),
                          _flag("constr~conj", construction, conj)])
        if row[9] != flags:
            raise CheckError(f"row {n},{m},{l} flags {row[9]!r} != {flags!r}")
    return exact
