import dataclasses
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from boolcut import (
    CutsetReport,
    DomainError,
    InternalError,
    SearchBudget,
    SearchStatus,
    conjecture_report,
    cutset_auto,
    exact_min_per_level,
    exact_min_width,
    is_cutset,
    per_level_bound_value,
    width,
)
from boolcut import analysis, search
from boolcut.lattice import level_masks

from helpers import brute_force_width, iter_maximal_chains, mask_of, naive_is_cutset


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
    yielded sets.
    """
    counts = Counter(v.bit_count() for v in selected)

    def grow(chosen):
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


def oracle_min_per_level(n, m, l):
    return oracle_min(n, m, l, lambda cut: max(Counter(v.bit_count() for v in cut).values()))


class TestExactMinWidth:
    def test_matches_exhaustive_oracle(self):
        assert oracle_min_width(4, 1, 2) == 3
        assert exact_min_width(4, 1, 2).value == 3

    def test_small_oracle_cross_checks(self):
        # Canonical selection and the chain bound prune every search; the
        # oracles branch over all cutsets.
        for n, m, l in [(3, 1, 2), (3, 0, 1), (4, 2, 2), (4, 1, 2), (4, 1, 3), (5, 2, 3), (5, 1, 3)]:
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

    def test_node_cap_override(self):
        r = exact_min_width(6, 1, 4, node_cap=100)
        assert r.status is SearchStatus.EXACT and r.value == 5

    @pytest.mark.parametrize("nodes", [True, 2.5])
    def test_node_budget_must_be_an_int(self, nodes):
        with pytest.raises(DomainError):
            SearchBudget(nodes, 1.0)

    def test_budget_of_one_is_unknown(self):
        r = exact_min_width(4, 1, 2, SearchBudget(1, 60.0))
        assert r.status is SearchStatus.UNKNOWN
        assert r.value is None and r.witness is None
        assert r.lower == 1 and r.upper >= 1

    def test_partial_budget_gives_bounds(self):
        full = exact_min_width(5, 1, 4)
        partial = exact_min_width(5, 1, 4, SearchBudget(2000, 60.0))
        assert partial.status is SearchStatus.BOUNDS
        assert partial.lower <= full.value <= partial.upper

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
    def prunes(n, m, l, selected, lowest, k):
        levels = [level_masks(n, i) for i in range(m, l + 1)]
        covers = analysis.cover_lists(levels, n)
        found = analysis.missed_chain_masks(levels, covers, selected)
        counts = Counter(v.bit_count() for v in selected)
        room = [k - counts[i] if i >= lowest else 0 for i in range(m, l + 1)]
        if found is None:
            return found, False
        down = live_prefix_counts(n, m, l, selected)
        return found, search._short_of_chains(found[1], down, room)

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


class TestChainCounts:
    """The search's incremental chain counts, against fresh counts after every step."""

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=120, deadline=None)
    def test_select_and_undo_match_fresh_counts(self, n, data):
        m = data.draw(st.integers(0, n // 2))
        l = data.draw(st.integers(m, n - m))
        levels = [level_masks(n, i) for i in range(m, l + 1)]
        covers = analysis.cover_lists(levels, n)
        state = search._ChainCounts(levels, covers, search._lower_covers(levels, covers))
        flat = [v for lv in levels for v in lv]

        def snapshot():
            return [row[:] for row in state.up], [row[:] for row in state.down], state.key

        def check(selection):
            assert state.up == live_suffix_counts(n, m, l, selection)
            found = analysis.missed_chain_masks(levels, covers, selection)
            if found is not None:
                assert state.up == found[1]
            assert state.down == live_prefix_counts(n, m, l, selection)
            assert state.key == sum(1 << flat.index(v) for v in selection)
            assert state.selection() == selection

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


class TestReverification:
    """An EXACT result re-checks its witness; a wrong verdict there is a bug."""

    def test_width_disagreement_raises(self, monkeypatch):
        real = analysis.width

        def off_by_one(nodes):
            rep = real(nodes)
            return dataclasses.replace(rep, width=rep.width + 1)

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

    def test_flags_undecided_under_tiny_budget(self):
        rep = conjecture_report(4, 1, 2, SearchBudget(1, 60.0))
        assert rep.searched_h.status is SearchStatus.UNKNOWN
        assert rep.equal_flags["h_matches_conjectured"] is None
        assert rep.equal_flags["all_equal"] is None
