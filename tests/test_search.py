import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from boolcut import (
    CutsetReport,
    DomainError,
    InternalError,
    SearchBudget,
    SearchStatus,
    WidthReport,
    conjecture_report,
    cutset_auto,
    exact_min_per_level,
    exact_min_width,
    is_cutset,
    method_counts,
    per_level_bound_value,
    width,
)
from boolcut import analysis, search
from boolcut.lattice import level_masks

from helpers import (
    brute_force_width,
    iter_maximal_chains,
    mask_of,
    missed_chain_masks,
    naive_is_cutset,
)


def lattice_masks(n, m, l):
    out = []
    for k in range(m, l + 1):
        out.extend(sorted(mask_of(c) for c in combinations(range(1, n + 1), k)))
    return out


def completions(chains, selected, allowed):
    """Every cutset grown from ``selected`` by nodes that ``allowed`` accepts.

    ``allowed(v, counts)`` sees the per-level counts of the set so far.
    Branches on the first chain the set misses: a cutset containing the
    set must contain one of that chain's nodes, so every cutset that holds
    ``selected`` and whose added nodes pass ``allowed`` contains one of the
    yielded sets.  A set reached again is skipped: its counts, and so its
    subtree, are those of its first visit, which yielded all of it, as long
    as ``allowed`` only ever gets stricter.
    """
    counts = Counter(v.bit_count() for v in selected)
    seen = set()

    def grow(chosen):
        if chosen in seen:
            return
        seen.add(chosen)
        missed = next((ch for ch in chains if chosen.isdisjoint(ch)), None)
        if missed is None:
            yield chosen
            return
        for v in missed:
            if allowed(v, counts):
                counts[v.bit_count()] += 1
                yield from grow(chosen | {v})
                counts[v.bit_count()] -= 1

    yield from grow(frozenset(selected))


def oracle_min(n, m, l, objective):
    """Smallest objective over all cutsets, by exhaustive hitting-set branching.

    Both objectives only grow with the set, and any cutset contains one of
    the sets ``completions`` yields, so the minimum is attained there.  A
    branch is cut once some level holds ``best`` nodes: a level is an
    antichain, so both objectives are then at least ``best``.
    """
    chains = list(iter_maximal_chains(n, m, l))
    best = len(lattice_masks(n, m, l))
    for cut in completions(chains, (), lambda v, counts: counts[v.bit_count()] + 1 < best):
        assert naive_is_cutset(n, m, l, cut)
        best = min(best, objective(cut))
    return best


def oracle_min_width(n, m, l):
    return oracle_min(n, m, l, brute_force_width)


def largest_level(cut):
    return max(Counter(v.bit_count() for v in cut).values())


def oracle_min_per_level(n, m, l):
    return oracle_min(n, m, l, largest_level)


def instances(n_max):
    """Every (n, m, l) with n <= n_max and 0 <= m <= l <= n - m."""
    return [
        (n, m, l) for n in range(n_max + 1) for m in range(n // 2 + 1) for l in range(m, n - m + 1)
    ]


def assert_no_completion(n, m, l, selected, lowest, k, objective, excluded=frozenset()):
    """No cutset that holds ``selected`` and adds nodes on levels >= lowest has objective <= k.

    Nor, with ``excluded`` given, does any that adds none of its nodes.
    """
    chains = list(iter_maximal_chains(n, m, l))
    allowed = lambda v, c: v.bit_count() >= lowest and c[v.bit_count()] < k and v not in excluded
    for cut in completions(chains, selected, allowed):
        assert objective(cut) > k, (
            f"cut, but {sorted(cut)} is a cutset of objective <= {k} holding {sorted(selected)}"
        )


# The sha256 of each witness JSON, recorded before the canonical pinning
# of a lowest node was dropped, for searches that ``SEARCH_VALUES_DIGEST``
# of ``test_golden.py`` does not cover: a new cut removes only infeasible
# subtrees, so the search must still meet these witnesses first.
PINNED_WITNESSES = {
    ("h", 6, 1, 5): "38c7414b10f9b9123577c3503e6cc133a7d2f8e80183adcedf54d81ee8e378be",
    ("g", 6, 1, 5): "a734d42861b16d966c0605a81879beb48a4599a0bc9e556a34aaf2ad1337d8c1",
    ("g", 6, 1, 4): "a9af2e1bb243d295970c021b524989af35f20d1b506ef2fe9c5204710fb02f3b",
    ("h", 6, 2, 4): "472f5e39fd04aa9ff10b5bf68260e631452572b08a2b8e97cba31a66601cd998",
    ("g", 6, 2, 4): "2a447bf4fe90ddb0e6303620dc6dcaf67911b5a37aefc9bb5a9890f2e0b7f0b0",
    ("h", 6, 1, 4): "a9af2e1bb243d295970c021b524989af35f20d1b506ef2fe9c5204710fb02f3b",
    ("h", 7, 1, 4): "5c6425c32eaa02113c86a1287360f38dae1a14d27fb5510076fb8e8940392d77",
    ("g", 7, 1, 4): "5c6425c32eaa02113c86a1287360f38dae1a14d27fb5510076fb8e8940392d77",
    ("h", 7, 2, 4): "2e028a701b6e75db167b6d2076483381d5ead86f39d37d76822555eef011f97f",
    ("g", 7, 2, 4): "18b47588465e149f6569c98247ef9cdf5e38b19ff14c8623818f5e7a16dfbd9f",
    ("h", 7, 1, 5): "ff1e45f09a35a5233438a2bfbb78a74b2f1d2801ccb4a4e6db1649fc8170ecb8",
    ("g", 7, 1, 5): "ff1e45f09a35a5233438a2bfbb78a74b2f1d2801ccb4a4e6db1649fc8170ecb8",
    ("h", 8, 1, 3): "4a4191bfe6f2c8e3aae316f4f42ee5297c8f677b94beab403add13f92eb96a9d",
    ("g", 8, 1, 3): "4a4191bfe6f2c8e3aae316f4f42ee5297c8f677b94beab403add13f92eb96a9d",
    ("h", 9, 1, 3): "6cc9813248a17ab729e914050742b4f81d2a211a94e815c3644f0422783abe83",
    ("g", 9, 1, 3): "6cc9813248a17ab729e914050742b4f81d2a211a94e815c3644f0422783abe83",
    ("h", 7, 3, 4): "15411c0085aa3d5a77b13710481ae60bbb91be7a6ca7b4bb5871e13ae2bf40c3",
    ("g", 7, 3, 4): "15411c0085aa3d5a77b13710481ae60bbb91be7a6ca7b4bb5871e13ae2bf40c3",
    ("h", 8, 2, 3): "f6034f64d0ac8d8eacfba57c2ae4d523684bc4c4dd45ec19e7c048b3b96dba4f",
    ("g", 8, 2, 3): "f6034f64d0ac8d8eacfba57c2ae4d523684bc4c4dd45ec19e7c048b3b96dba4f",
    ("h", 9, 2, 3): "9f08f1d47dd38405a1fb8c3600af24b745574b9c91864a9599e152cd462bc093",
    ("g", 9, 2, 3): "9f08f1d47dd38405a1fb8c3600af24b745574b9c91864a9599e152cd462bc093",
    ("h", 8, 3, 4): "e049a1cb1aa411294f18301fda90646eb7de2b093516c2f40ef0f6057de89ba0",
    ("g", 8, 3, 4): "e049a1cb1aa411294f18301fda90646eb7de2b093516c2f40ef0f6057de89ba0",
}


def assert_pinned(run, n, m, l, r, value):
    """``r``, the result of ``run`` on (n, m, l), is EXACT at ``value`` with the pinned witness."""
    assert r.status is SearchStatus.EXACT and r.value == value
    witness = json.dumps(r.witness.to_json(), separators=(",", ":")).encode()
    target = "h" if run is exact_min_width else "g"
    assert hashlib.sha256(witness).hexdigest() == PINNED_WITNESSES[target, n, m, l]


class TestExactMinWidth:
    def test_matches_exhaustive_oracle(self):
        assert oracle_min_width(4, 1, 2) == 3
        assert exact_min_width(4, 1, 2).value == 3

    def test_small_oracle_cross_checks(self):
        # The exclusions and the chain bound prune every search; the
        # oracles branch over all cutsets.
        for n, m, l in instances(5):
            assert exact_min_width(n, m, l).value == oracle_min_width(n, m, l)
            assert exact_min_per_level(n, m, l).value == oracle_min_per_level(n, m, l)

    def test_one_level_short_of_the_cube(self):
        for n in (3, 4, 5):
            assert exact_min_width(n, 1, n - 1).value == n - 1

    def test_single_level_forces_everything(self):
        assert exact_min_width(3, 1, 1).value == 3
        assert exact_min_width(4, 2, 2).value == 6

    def test_witness_is_verified_cutset_of_claimed_width(self):
        r = exact_min_width(5, 1, 3)
        assert r.status is SearchStatus.EXACT
        nodes = r.witness.nodes()
        assert is_cutset(r.witness.lat, nodes).is_cutset
        assert width(nodes).width == r.value == r.lower == r.upper

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            exact_min_width(4, 2, 3)  # l > n - m
        with pytest.raises(DomainError):
            exact_min_width(20, 5, 10)  # above the node cap
        # Refused by the ground-set cap before C(10**7, 10**6) is evaluated.
        with pytest.raises(DomainError, match="n <= 64"):
            exact_min_width(10**7, 10**6, 10**6)

    def test_node_cap_override(self):
        assert_pinned(exact_min_width, 6, 1, 4, exact_min_width(6, 1, 4, node_cap=100), 5)

    @pytest.mark.parametrize("run", [exact_min_width, exact_min_per_level])
    def test_past_the_default_node_cap(self, run):
        # B_7(1,4) has 98 nodes; h and g were 5..7 after 200,000 nodes
        # before failed candidates were excluded, and take 41 and 59 now.
        # B_7(2,4) has 91: h took 1,243,422 nodes and g was 13..14 after
        # 2,000,000 before whole orbits were excluded, and they took 76,554
        # and 229,760 before the chain bound skipped excluded nodes, 68,254
        # and 200,020 while each lowest level had its own tree, and 68,241
        # and 200,007 now.  Every other row up to 130 lattice nodes that is
        # neither trivial nor a self-dual holdout follows, all at the
        # conjectured value; (8,3,4) takes 15,547 nodes for each.
        for n, m, l, value in [
            (7, 1, 4, 6), (7, 2, 4, 14), (7, 1, 5, 6), (8, 1, 3, 7), (9, 1, 3, 8),
            (7, 3, 4, 20), (8, 2, 3, 21), (9, 2, 3, 28), (8, 3, 4, 35),
        ]:
            assert_pinned(run, n, m, l, run(n, m, l, node_cap=130), value)

    @pytest.mark.parametrize(
        "run,n,m,l,value",
        [
            (exact_min_width, 6, 1, 5, 5),
            (exact_min_per_level, 6, 1, 5, 4),
            (exact_min_per_level, 6, 1, 4, 5),
            (exact_min_width, 6, 2, 4, 9),
            (exact_min_per_level, 6, 2, 4, 9),
        ],
    )
    def test_settles_at_the_default_budget(self, run, n, m, l, value):
        # h(6,1,5) = 5 is the conjectured value; it took 146,312 nodes when
        # it was first settled, 19,070 once whole orbits were excluded, and
        # 8,710 since the chain bound skips excluded nodes.
        assert_pinned(run, n, m, l, run(n, m, l), value)

    @pytest.mark.parametrize("nodes", [True, 2.5])
    def test_node_budget_must_be_an_int(self, nodes):
        with pytest.raises(DomainError):
            SearchBudget(nodes, 1.0)

    def test_budget_of_one_is_unknown(self):
        # With m = 0, target 1 takes 2 nodes: the root, then the node {}.
        r = exact_min_width(4, 0, 2, SearchBudget(1, 60.0))
        assert r.status is SearchStatus.UNKNOWN
        assert r.value is None and r.witness is None
        assert r.lower == 1 and r.upper >= 1

    @pytest.mark.parametrize("run", [exact_min_width, exact_min_per_level])
    def test_root_refutes_target_one(self, run):
        # With m >= 1 the chain bound of the empty root refutes target 1 in
        # its one node, so a budget of one node leaves bounds.
        r = run(4, 1, 2, SearchBudget(1, 60.0))
        assert r.status is SearchStatus.BOUNDS
        assert (r.value, r.witness, r.lower, r.upper) == (None, None, 2, 3)

    def test_partial_budget_gives_bounds(self):
        # The full search takes 208 nodes, so 100 cut it off at target 3.
        full = exact_min_width(5, 1, 4)
        partial = exact_min_width(5, 1, 4, SearchBudget(100, 60.0))
        assert partial.status is SearchStatus.BOUNDS
        assert partial.lower <= full.value <= partial.upper

    @pytest.mark.parametrize("run", [exact_min_width, exact_min_per_level])
    @pytest.mark.parametrize("n,m,l,upper", [(6, 1, 5, 5), (6, 2, 4, 9)])
    def test_cut_off_upper_is_the_construction_count(self, run, n, m, l, upper):
        # The trivial bound, the smaller extreme level, is 6 on (6,1,5) and 15 on (6,2,4).
        # 500 nodes cut off all four searches: the cheapest, g(6,1,5),
        # takes 724.
        r = run(n, m, l, SearchBudget(500, 3600.0))
        assert r.status is SearchStatus.BOUNDS
        assert r.upper == min(method_counts(n, m, l).values()) == upper

    def test_deterministic_witness(self):
        a = exact_min_width(5, 2, 3)
        b = exact_min_width(5, 2, 3)
        assert a.value == b.value and a.witness == b.witness


class TestExactMinPerLevel:
    def test_matches_exhaustive_oracle(self):
        assert oracle_min_per_level(4, 1, 2) == 3
        assert exact_min_per_level(4, 1, 2).value == 3

    def test_single_level(self):
        assert exact_min_per_level(3, 1, 1).value == 3

    def test_matches_closed_form(self):
        assert exact_min_per_level(6, 1, 3).value == per_level_bound_value(6, 1, 3) == 5

    def test_witness_attains_the_level_bound(self):
        r = exact_min_per_level(5, 1, 3)
        assert r.status is SearchStatus.EXACT
        counts = {}
        for a in r.witness.nodes():
            counts[a.level] = counts.get(a.level, 0) + 1
        assert max(counts.values()) == r.value

    def test_never_above_width(self):
        for n, m, l in [(4, 1, 2), (5, 1, 2), (5, 2, 3), (5, 1, 4)]:
            g = exact_min_per_level(n, m, l).value
            h = exact_min_width(n, m, l).value
            assert g <= h


def live_prefix_counts(n, m, l, selected):
    """Per level, the saturated chains from level m to each node that avoid ``selected``."""
    out = []
    for i in range(m, l + 1):
        ends = [ch[-1] for ch in iter_maximal_chains(n, m, i) if selected.isdisjoint(ch)]
        out.append([ends.count(v) for v in level_masks(n, i)])
    return out


def live_suffix_counts(n, m, l, selected):
    """Per level, the saturated chains from each node to level l that avoid ``selected``."""
    out = []
    for i in range(m, l + 1):
        starts = [ch[0] for ch in iter_maximal_chains(n, i, l) if selected.isdisjoint(ch)]
        out.append([starts.count(v) for v in level_masks(n, i)])
    return out


class TestChainBound:
    """The chain-counting prune of the search, against exhaustive branching."""

    @staticmethod
    def prunes(n, m, l, selected, lowest, k, allowed=None):
        levels = [level_masks(n, i) for i in range(m, l + 1)]
        covers = search._cover_rows(levels, n)[0]
        found = missed_chain_masks(levels, covers, selected)
        counts = Counter(v.bit_count() for v in selected)
        room = [k - counts[i] if i >= lowest else 0 for i in range(m, l + 1)]
        if found is None:
            return found, False
        down = live_prefix_counts(n, m, l, selected)
        if allowed is None:
            allowed = b"\x01" * sum(map(len, levels))
        return found, search._short_of_chains(found[1], down, room, allowed)

    def test_prunes_below_the_optimum(self):
        # h(4,1,2) = 3: with at most 2 nodes per level, the 12 chains of
        # B_4(1,2) cannot all be hit (3 + 3 + 2 + 2 = 10 at best).
        assert self.prunes(4, 1, 2, set(), 1, 2)[1]
        assert not self.prunes(4, 1, 2, set(), 1, 3)[1]

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=150, deadline=None)
    def test_pruned_selection_has_no_completion(self, n, data):
        m = data.draw(st.integers(0, n // 2))
        l = data.draw(st.integers(m, n - m))
        lowest = data.draw(st.integers(m, l))
        pool = lattice_masks(n, m, l)
        selected = set(data.draw(st.lists(st.sampled_from(pool), max_size=len(pool) // 2)))
        counts = Counter(v.bit_count() for v in selected)
        widest = max(len(level_masks(n, i)) for i in range(m, l + 1))
        least_k = max([1] + [counts[i] for i in range(lowest, l + 1)])
        k = data.draw(st.integers(least_k, max(least_k, widest)))

        found, pruned = self.prunes(n, m, l, selected, lowest, k)
        chains = list(iter_maximal_chains(n, m, l))
        unhit = [ch for ch in chains if selected.isdisjoint(ch)]
        if found is None:
            assert not unhit
            return
        path, up = found
        assert tuple(path) == min(unhit)
        assert up == live_suffix_counts(n, m, l, selected)
        if pruned:
            # Width is at least the count on any level, so no completion with
            # at most k nodes per level also rules out width <= k.
            allowed = lambda v, c: v.bit_count() >= lowest and c[v.bit_count()] < k
            cut = next(completions(chains, selected, allowed), None)
            assert cut is None, (
                f"pruned, but {sorted(cut)} is a cutset of width "
                f"{brute_force_width(cut)} with at most {k} nodes per level"
            )

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=150, deadline=None)
    def test_width_cut_has_no_completion(self, n, data):
        # The selection grows as in the search, by a node at or above lowest
        # of the least missed chain; its width w is the target (saturated) or
        # one below it.
        m = data.draw(st.integers(0, n // 2))
        l = data.draw(st.integers(m, n - m))
        lowest = data.draw(st.integers(m, l))
        levels = [level_masks(n, i) for i in range(m, l + 1)]
        covers = search._cover_rows(levels, n)[0]
        pool = [v for lv in levels for v in lv]
        selected = []
        for _ in range(data.draw(st.integers(0, 10))):
            found = missed_chain_masks(levels, covers, set(selected))
            if found is None:
                break
            on_chain = [v for v in found[0] if v.bit_count() >= lowest]
            selected.append(data.draw(st.sampled_from(on_chain)))
        w = brute_force_width(selected)
        k = data.draw(st.sampled_from([max(w, 1), w + 1]))
        excluded = set(data.draw(st.lists(st.sampled_from(pool), max_size=len(pool) // 2)))

        matcher = analysis.InclusionMatcher()
        for v in selected:
            matcher.push(v)
        comparable = search._comparable(levels)
        everything = sum(1 << 8 * b for b in range(len(pool)))
        mask = sum(1 << 8 * b for b, v in enumerate(pool) if v in excluded)
        antichain = matcher.antichain()
        assert list(search._addable(matcher, k, comparable, everything, mask)) == [
            v not in excluded
            and (w < k or any(v & ~a == 0 or a & ~v == 0 for a in antichain))
            for v in pool
        ]
        assert search._addable(None, k, None, everything, mask) == bytes(
            v not in excluded for v in pool
        )
        allowed = search._addable(matcher, k, comparable, everything, 0)
        if self.prunes(n, m, l, set(selected), lowest, k, allowed)[1]:
            assert_no_completion(n, m, l, selected, lowest, k, brute_force_width)

    @pytest.mark.parametrize("n,m,l", [(4, 1, 3), (5, 1, 3), (5, 1, 4)])
    def test_width_cut_on_the_search_states(self, monkeypatch, n, m, l):
        # Random selections seldom reach the states where only the width cut
        # prunes, so every selection that the search itself cuts with it is
        # checked, and those that only it cuts must exist.
        cuts = bound_cuts(monkeypatch, exact_min_width, n, m, l)
        assert any(cut.by_width for cut in cuts)
        for cut in cuts:
            if cut.by_width:
                args = n, m, l, cut.selected, m, cut.k, brute_force_width
                assert_no_completion(*args, cut.excluded)


def watch_search(monkeypatch):
    """Install hooks that keep a dict current while a search runs, and return the dict.

    ``k`` is the target of the running decision call, ``levels`` the
    levels of its lattice and ``selection`` the nodes that its
    ``_ChainCounts`` holds selected, in the order selected.
    """
    state = {}
    real_decide = search._decide

    class Counts(search._ChainCounts):
        def __init__(self, n, levels, covers, below):
            super().__init__(n, levels, covers, below)
            state.update(levels=levels, selection=[])

        def select(self, i, j):
            super().select(i, j)
            state["selection"].append(state["levels"][i][j])

        def undo(self):
            super().undo()
            state["selection"].pop()

    def decide(*args):
        *_, limit, width, bud = args
        state["k"] = limit
        return real_decide(*args)

    monkeypatch.setattr(search, "_ChainCounts", Counts)
    monkeypatch.setattr(search, "_decide", decide)
    return state


@dataclasses.dataclass(frozen=True)
class BoundCut:
    """A selection that the chain bound cut, and what the cut rested on.

    ``by_width`` holds when the bound would not cut the selection if nodes
    incomparable to the maximum antichain were allowed too, and
    ``by_exclusion`` when it would not if the ``excluded`` nodes were.
    """

    selected: frozenset
    k: int
    excluded: frozenset
    by_width: bool
    by_exclusion: bool


def excluded_nodes(state, excluded):
    """The nodes of the mask ``excluded``, in the byte layout of ``search._comparable``."""
    flat = [v for lv in state["levels"] for v in lv]
    return frozenset(v for b, v in enumerate(flat) if excluded >> 8 * b & 1)


def bound_cuts(monkeypatch, run, n, m, l):
    """Every ``BoundCut`` of the search ``run`` on (n, m, l), in the order cut."""
    state = watch_search(monkeypatch)
    real_addable, real_short = search._addable, search._short_of_chains
    cuts = []

    def addable(matcher, limit, comparable, everything, excluded):
        state.update(
            excluded=excluded,
            without_width=real_addable(None, limit, comparable, everything, excluded),
            without_exclusion=real_addable(matcher, limit, comparable, everything, 0),
        )
        return real_addable(matcher, limit, comparable, everything, excluded)

    def short_of_chains(up, down, room, allowed):
        pruned = real_short(up, down, room, allowed)
        if pruned:
            cuts.append(BoundCut(
                frozenset(state["selection"]),
                state["k"],
                excluded_nodes(state, state["excluded"]),
                not real_short(up, down, room, state["without_width"]),
                not real_short(up, down, room, state["without_exclusion"]),
            ))
        return pruned

    monkeypatch.setattr(search, "_addable", addable)
    monkeypatch.setattr(search, "_short_of_chains", short_of_chains)
    assert run(n, m, l).status is SearchStatus.EXACT
    return cuts


class TestExclusion:
    """The exclusion of failed candidates and their orbits, on the states where the search skips."""

    @staticmethod
    def skips(monkeypatch, run, n, m, l):
        """Where ``run`` skips an excluded node, and where a candidate fails.

        The skips are a set of (selection, candidate, target).  The
        failures map each such tuple to the generators of the orbit that
        the search excludes, at the selection of the call the candidate
        failed in: every failure but that of a call's last candidate, whose
        orbit no sibling would see.
        """
        state = watch_search(monkeypatch)
        watched_decide, real_orbit = search._decide, search._orbit
        skipped, failed = set(), {}

        def key(candidate):
            return frozenset(state["selection"]), candidate, state["k"]

        class Bits(dict):
            def __getitem__(self, v):
                # The search looks up a candidate's bit before testing it.
                state["candidate"] = v
                return super().__getitem__(v)

        class Prunes(dict):
            def __setitem__(self, reason, count):
                if reason == "excluded":
                    skipped.add(key(state["candidate"]))
                super().__setitem__(reason, count)

        def orbit(x, generators):
            failed[key(x)] = generators
            return real_orbit(x, generators)

        def decide(n, levels, covers, below, comparable, bit_of, *rest):
            bud = rest[-1]
            bud.prunes = Prunes(bud.prunes)
            return watched_decide(n, levels, covers, below, comparable, Bits(bit_of), *rest)

        monkeypatch.setattr(search, "_orbit", orbit)
        monkeypatch.setattr(search, "_decide", decide)
        assert run(n, m, l).status is SearchStatus.EXACT
        return skipped, failed

    @pytest.mark.parametrize(
        "run,objective",
        [(exact_min_width, brute_force_width), (exact_min_per_level, largest_level)],
        ids=["h", "g"],
    )
    @pytest.mark.parametrize("n,m,l", [(4, 1, 3), (5, 1, 3), (5, 1, 4), (5, 2, 3)])
    def test_excluded_candidates_have_no_completion(self, monkeypatch, run, objective, n, m, l):
        skipped, failed = self.skips(monkeypatch, run, n, m, l)
        assert skipped
        for selected, candidate, k in skipped:
            assert candidate not in selected
            assert_no_completion(n, m, l, selected | {candidate}, m, k, objective)
        # The generators are the transpositions that map the selection of
        # their call onto itself, all of them.
        pairs = [1 << a | 1 << b for a, b in combinations(range(n), 2)]
        for (selected, *_), generators in failed.items():
            assert set(generators) == {t for t in pairs if swapped(selected, t) == selected}

    @pytest.mark.parametrize(
        "run,objective",
        [(exact_min_width, brute_force_width), (exact_min_per_level, largest_level)],
        ids=["h", "g"],
    )
    @pytest.mark.parametrize("n,m,l", [(4, 1, 3), (5, 1, 3), (5, 1, 4), (5, 2, 3)])
    def test_bound_without_excluded_nodes_on_the_search_states(
        self, monkeypatch, run, objective, n, m, l
    ):
        # The chain bound leaves the excluded nodes out.  No cutset that
        # avoids those nodes completes a selection that it cuts only for
        # that; nor does any other, as each excluded node failed beside a
        # part of the selection.  Such selections must exist: on (5,2,3)
        # too, where both searches take 24 nodes, and 26 without the cut.
        cuts = bound_cuts(monkeypatch, run, n, m, l)
        assert any(cut.by_exclusion for cut in cuts)
        for cut in cuts:
            if cut.by_exclusion:
                args = n, m, l, cut.selected, m, cut.k, objective
                assert_no_completion(*args, cut.excluded)
                assert_no_completion(*args)

    @pytest.mark.parametrize("run", [exact_min_width, exact_min_per_level], ids=["h", "g"])
    @pytest.mark.parametrize("n,m,l", [(5, 1, 4), (5, 2, 3)])
    def test_some_skipped_node_is_only_an_orbit_image(self, monkeypatch, run, n, m, l):
        # So the test above also checks the exclusion of orbit images: here
        # some skipped node never failed itself, beside the selection it is
        # skipped at or a part of it.
        skipped, failed = self.skips(monkeypatch, run, n, m, l)
        assert any(
            not any((y, k2) == (x, k) and part <= selected for part, y, k2 in failed)
            for selected, x, k in skipped
        )

    @pytest.mark.parametrize("run", [exact_min_width, exact_min_per_level], ids=["h", "g"])
    @pytest.mark.parametrize("n,m,l", [(4, 1, 3), (5, 1, 4), (5, 2, 3)])
    def test_root_excludes_whole_levels(self, monkeypatch, run, n, m, l):
        # Every transposition fixes the empty selection, so at the root the
        # orbit of a failed candidate {1..k} is all of level k: the subtree
        # of {1..i} is searched with exactly the levels m..i - 1 excluded.
        state = watch_search(monkeypatch)
        real_addable = search._addable
        entered = []  # (target, the one selected node, the excluded nodes)

        def addable(matcher, limit, comparable, everything, excluded):
            # Called once on entering each selection; one node is a root candidate.
            if len(state["selection"]) == 1:
                entered.append((limit, *state["selection"], excluded_nodes(state, excluded)))
            return real_addable(matcher, limit, comparable, everything, excluded)

        monkeypatch.setattr(search, "_addable", addable)
        assert run(n, m, l).status is SearchStatus.EXACT
        flat = [v for lv in state["levels"] for v in lv]
        for k in {k for k, _, _ in entered}:
            tried = [(x, excluded) for k2, x, excluded in entered if k2 == k]
            assert tried == [
                ((1 << i) - 1, frozenset(v for v in flat if v.bit_count() < i))
                for i in range(m, m + len(tried))
            ]
        assert any(x.bit_count() > m for _, x, _ in entered)


def swapped(selection, t):
    """The image of ``selection`` under the transposition {a, b} = t."""
    return {v ^ t if v & t not in (0, t) else v for v in selection}


def permuted(v, perm):
    """The mask v with element e + 1 renamed to perm[e] + 1."""
    return sum(1 << perm[e] for e in range(len(perm)) if v >> e & 1)


class TestSymmetry:
    """The transpositions that fix a selection, and the orbits they generate."""

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=150, deadline=None)
    def test_generators_and_orbit_against_brute_force(self, n, data):
        # The selection is closed under some drawn transpositions, so that
        # it has symmetries beyond the trivial ones.
        pairs = [1 << a | 1 << b for a, b in combinations(range(n), 2)]
        fixing = data.draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
        seeds = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=4))
        selection = set(seeds)
        while any(swapped(selection, t) != selection for t in fixing):
            for t in fixing:
                selection |= swapped(selection, t)
        x = data.draw(st.integers(0, (1 << n) - 1))

        profile = [sum(1 << 16 * v.bit_count() for v in selection if v >> e & 1) for e in range(n)]
        generators = search._generators(selection, n, profile)
        assert set(fixing) <= set(generators)
        assert set(generators) == {t for t in pairs if swapped(selection, t) == selection}
        stabilizer_orbit = set()
        for perm in permutations(range(n)):
            if {permuted(v, perm) for v in selection} == selection:
                stabilizer_orbit.add(permuted(x, perm))
        orbit = search._orbit(x, generators)
        assert x in orbit
        assert all(swapped(orbit, t) == orbit for t in generators)
        assert {v.bit_count() for v in orbit} == {x.bit_count()}
        assert orbit <= stabilizer_orbit


class TestChainCounts:
    """The search's incremental chain counts, against fresh counts after every step."""

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=120, deadline=None)
    def test_select_and_undo_match_fresh_counts(self, n, data):
        m = data.draw(st.integers(0, n // 2))
        l = data.draw(st.integers(m, n - m))
        levels = [level_masks(n, i) for i in range(m, l + 1)]
        covers, below = search._cover_rows(levels, n)
        state = search._ChainCounts(n, levels, covers, below)

        def snapshot():
            return [row[:] for row in state.up], [row[:] for row in state.down]

        def check(selection):
            assert state.up == live_suffix_counts(n, m, l, selection)
            found = missed_chain_masks(levels, covers, selection)
            if found is not None:
                assert state.up == found[1]
            assert state.down == live_prefix_counts(n, m, l, selection)

        check(set())
        initial = snapshot()
        stack = []
        for select in data.draw(st.lists(st.booleans(), max_size=10)):
            live = [(i, j) for i, lv in enumerate(levels) for j, v in enumerate(lv)
                    if v not in stack]
            if select and live:
                i, j = data.draw(st.sampled_from(live))
                state.select(i, j)
                stack.append(levels[i][j])
            elif stack:
                state.undo()
                stack.pop()
            check(set(stack))
        while stack:
            state.undo()
            stack.pop()
            check(set(stack))
        assert snapshot() == initial
        assert state.trail == [] and state.marks == []

    def test_inconsistent_counts_fail_loudly(self):
        # A positive count with no positive cover cannot come from
        # _ChainCounts; the walk raises instead of returning a chain that is
        # not missed.
        levels = [level_masks(3, 1), level_masks(3, 2)]
        covers = search._cover_rows(levels, 3)[0]
        with pytest.raises(InternalError, match="stuck above 0x1"):
            search._least_missed_chain(levels, covers, [[1, 0, 0], [0, 0, 0]])


class TestReverification:
    """An EXACT result re-checks its witness; a wrong verdict there is a bug."""

    def test_width_disagreement_raises(self, monkeypatch):
        real = analysis.width

        def off_by_one(nodes):
            rep = real(nodes)
            return WidthReport(rep.width + 1, rep.antichain_witness, rep.chain_cover)

        monkeypatch.setattr(analysis, "width", off_by_one)
        with pytest.raises(InternalError, match="failed re-verification"):
            exact_min_width(4, 1, 2)

    @pytest.mark.parametrize("run", [exact_min_width, exact_min_per_level])
    def test_rejected_witness_raises(self, monkeypatch, run):
        monkeypatch.setattr(analysis, "is_cutset", lambda lat, nodes: CutsetReport(False, None))
        with pytest.raises(InternalError, match="failed re-verification"):
            run(4, 1, 2)


class TestSandwich:
    @pytest.mark.parametrize("n,m,l", [(4, 1, 2), (5, 1, 2), (5, 2, 3), (6, 1, 2), (4, 2, 2)])
    def test_formula_g_below_search_below_construction(self, n, m, l):
        h = exact_min_width(n, m, l)
        g = exact_min_per_level(n, m, l)
        assert h.status is SearchStatus.EXACT and g.status is SearchStatus.EXACT
        closed = per_level_bound_value(n, m, l)
        if closed is not None:
            assert closed <= g.value
        assert g.value <= h.value <= cutset_auto(n, m, l).chain_count


class TestConjectureReport:
    def test_all_equal_instance(self):
        rep = conjecture_report(4, 1, 2)
        assert rep.conjectured_h == 3
        assert rep.searched_h.value == 3 and rep.searched_g.value == 3
        assert rep.construction_upper_bound == 3
        assert rep.equal_flags["all_equal"] is True

    def test_single_term_instance(self):
        rep = conjecture_report(4, 1, 3)
        assert rep.c == 3 and rep.conjectured_h == 3
        assert rep.searched_h.value == 3

    def test_whole_level_instance(self):
        rep = conjecture_report(5, 2, 2)
        assert rep.conjectured_h == 10 == rep.searched_h.value

    def test_symmetric_case_comparison(self):
        # l = n - m: the per-level conjecture switches to its symmetric value,
        # and here the search agrees with it while differing from h.
        rep = conjecture_report(5, 1, 4)
        assert rep.symmetric_g_value == 3
        assert rep.searched_g.value == 3 and rep.searched_h.value == 4
        assert rep.equal_flags["g_matches_h"] is False

    def test_to_json(self):
        rep = conjecture_report(5, 1, 4)
        data = rep.to_json()
        assert list(data) == [
            "n", "m", "l", "c", "conjectured_h", "searched_h", "searched_g",
            "construction_upper_bound", "symmetric_g_value", "equal_flags",
        ]
        assert data["searched_h"] == rep.searched_h.to_json()
        assert data["searched_g"] == rep.searched_g.to_json()
        assert [data[k] for k in ("n", "m", "l", "c")] == [5, 1, 4, 4]
        assert data["conjectured_h"] == rep.conjectured_h
        assert data["construction_upper_bound"] == rep.construction_upper_bound
        assert data["symmetric_g_value"] == 3
        assert data["equal_flags"] == rep.equal_flags
        assert data["equal_flags"] is not rep.equal_flags
        assert json.loads(json.dumps(data)) == data

    def test_flags_undecided_under_tiny_budget(self):
        rep = conjecture_report(4, 0, 2, SearchBudget(1, 60.0))
        assert rep.searched_h.status is SearchStatus.UNKNOWN
        assert rep.equal_flags["h_matches_conjectured"] is None
        assert rep.equal_flags["all_equal"] is None


def test_exact_search_runs_the_named_target():
    assert search.exact_search("h", 5, 1, 4).value == 4
    assert search.exact_search("g", 5, 1, 4).value == 3
    with pytest.raises(KeyError):
        search.exact_search("x", 5, 1, 4)


def test_sweep_searches_script_lists_every_search_heaviest_first():
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, str(root / "scripts" / "sweep_searches.py"), "--max-nodes", "100"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    lines = out.stdout.splitlines()
    assert lines[0].split() == ["search", "status", "cpu_s", "nodes"]
    rows = [line.split() for line in lines[1:-2]]
    assert len(rows) == 158  # h and g of the 79 sweep instances
    assert len({row[0] for row in rows}) == 158
    cpu = [float(row[2]) for row in rows]
    assert cpu == sorted(cpu, reverse=True)
    assert all(int(row[3]) <= 101 for row in rows)  # the budget, plus the tick that ran past it
    assert {row[1] for row in rows} == {"EXACT", "LOWER_AND_UPPER_BOUNDS"}
    exact = sum(row[1] == "EXACT" for row in rows)
    assert lines[-2].startswith(f"total 158 searches, {exact} exact, ")
    label, digest = lines[-1].rsplit(" ", 1)
    assert label == "witnesses sha256" and len(bytes.fromhex(digest)) == 32
