import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from boolcut import (
    Cutset,
    DomainError,
    NodeSet,
    TruncatedLattice,
    cutset_auto,
    cutset_fourcolor,
    cutset_product,
    is_antichain,
    is_cutset,
    level_nodes,
    width,
)
from boolcut import analysis, constructions
from boolcut.lattice import level_masks

from helpers import brute_force_width, maximal_chain_count, naive_is_cutset, iter_maximal_chains


def node(elements, n):
    return NodeSet.from_elements(elements, n)


def nodes_from_masks(masks, n):
    return [NodeSet(v, n) for v in masks]


class TestIsCutset:
    def test_whole_bottom_level(self):
        lat = TruncatedLattice(4, 1, 2)
        assert is_cutset(lat, level_nodes(4, 1)).is_cutset

    def test_empty_selection_and_least_witness(self):
        lat = TruncatedLattice(4, 1, 2)
        rep = is_cutset(lat, [])
        assert not rep.is_cutset
        assert [a.elements() for a in rep.missed_chain] == [(1,), (1, 2)]

    def test_product_cutset(self):
        cut = cutset_product(4, 1, 2)
        assert is_cutset(cut.lat, cut.nodes()).is_cutset
        assert naive_is_cutset(4, 1, 2, cut.node_masks())

    def test_node_outside_levels_rejected(self):
        lat = TruncatedLattice(4, 1, 2)
        with pytest.raises(DomainError):
            is_cutset(lat, [node([], 4)])
        with pytest.raises(DomainError):
            is_cutset(lat, [node([1], 5)])
        with pytest.raises(DomainError, match="at level 0 outside levels 1..2"):
            is_cutset(lat, [0])
        with pytest.raises(DomainError, match="does not fit in"):
            is_cutset(lat, [1 << 4])

    @pytest.mark.parametrize(
        "v", [0, 0b111, 1 << 4], ids=["below m", "above l", "outside [n]"]
    )
    def test_node_message_matches_cutset(self, v):
        lat = TruncatedLattice(4, 1, 2)
        with pytest.raises(DomainError) as built:
            Cutset(lat, ((v,),))
        with pytest.raises(DomainError) as checked:
            is_cutset(lat, [v])
        assert str(checked.value) == str(built.value)

    def test_missed_chain_is_disjoint_from_input(self):
        lat = TruncatedLattice(5, 1, 3)
        sel = [node([2], 5), node([1, 3], 5)]
        rep = is_cutset(lat, sel)
        assert not rep.is_cutset
        picked = {a.bits for a in sel}
        assert all(a.bits not in picked for a in rep.missed_chain)

    @given(st.integers(2, 7), st.data())
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_naive_enumeration(self, n, data):
        m = data.draw(st.integers(0, n // 2))
        l = data.draw(st.integers(m, n - m))
        lat = TruncatedLattice(n, m, l)
        pool = [v.bits for k in range(m, l + 1) for v in level_nodes(n, k)]
        sel = set(data.draw(st.lists(st.sampled_from(pool), max_size=len(pool) // 2)))
        rep = is_cutset(lat, nodes_from_masks(sel, n))
        assert is_cutset(lat, sel) == rep
        assert rep.is_cutset == naive_is_cutset(n, m, l, sel)
        if not rep.is_cutset:
            least = min(ch for ch in iter_maximal_chains(n, m, l) if sel.isdisjoint(ch))
            assert [a.bits for a in rep.missed_chain] == list(least)

    @staticmethod
    def constructed(n):
        """(lattice, cutset node masks, maximal chains) of every constructed cutset over [n]."""
        for m in range(n // 2 + 1):
            for l in range(m, n - m + 1):
                if constructions.method_counts(n, m, l):
                    cut = cutset_auto(n, m, l)
                    yield cut.lat, cut.node_masks(), list(iter_maximal_chains(n, m, l))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_cutset_minus_one_or_two_nodes(self, n):
        # Few chains stay unhit, so from n = 6 on the least bottom node's
        # least unselected cover is sometimes dead: no unselected path leads
        # from it to level l, and the walk up has to back off.  Every pair is
        # removed up to n = 6; at n = 7, the pairs adjacent in mask order.
        backed_off = 0
        for lat, nodes, chains in self.constructed(n):
            assert is_cutset(lat, nodes).is_cutset
            pool = sorted(nodes)
            pairs = combinations(pool, 2) if n <= 6 else zip(pool, pool[1:])
            for removed in [*((v,) for v in pool), *pairs]:
                sel = nodes - set(removed)
                rep = is_cutset(lat, sel)
                unhit = [ch for ch in chains if sel.isdisjoint(ch)]
                assert rep.is_cutset == (not unhit)
                if rep.is_cutset:
                    continue
                least = min(unhit)
                assert [a.bits for a in rep.missed_chain] == list(least)
                least_cover = lambda u: min(
                    u | 1 << e for e in range(n) if not u >> e & 1 and u | 1 << e not in sel
                )
                backed_off += any(least_cover(u) != w for u, w in zip(least, least[1:]))
        assert backed_off or n < 6

    @pytest.mark.parametrize("n", range(8))
    def test_full_level_minus_one_node(self, n):
        # Builder cutsets start at level m; a full level k stops the sweep
        # just below level k, so over every (m, l) it exits at every height.
        for m in range(n + 1):
            for l in range(m, n + 1):
                lat = TruncatedLattice(n, m, l)
                chains = list(iter_maximal_chains(n, m, l))
                for k in range(m, l + 1):
                    full = set(level_masks(n, k))
                    assert is_cutset(lat, full).is_cutset
                    for v in sorted(full):
                        sel = full - {v}
                        rep = is_cutset(lat, sel)
                        assert not rep.is_cutset
                        least = min(ch for ch in chains if sel.isdisjoint(ch))
                        assert [a.bits for a in rep.missed_chain] == list(least)

    def test_sweep_holds_two_levels(self):
        # Holding every level's masks and counts, and a copy of the set,
        # traced 3.75-4.56 MB on this input; two adjacent levels' nonzero
        # counts trace about 1.4 MB.
        cut = cutset_product(16, 4, 8)
        nodes = cut.node_masks()
        tracemalloc.start()
        try:
            assert is_cutset(cut.lat, nodes).is_cutset
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.56e6 / 2


class TestNaiveEnumerationItself:
    @pytest.mark.parametrize("n,m,l", [(4, 1, 2), (5, 0, 3), (5, 2, 3), (6, 1, 4)])
    def test_chain_counts(self, n, m, l):
        assert sum(1 for _ in iter_maximal_chains(n, m, l)) == maximal_chain_count(n, m, l)


class TestWidth:
    def test_single_chain(self):
        chain = [node(list(range(1, k + 1)), 5) for k in range(4)]
        assert width(chain).width == 1

    def test_full_level_is_antichain(self):
        assert width(level_nodes(4, 2)).width == 6

    def test_product_union(self):
        masks = cutset_product(4, 1, 2).node_masks()
        assert brute_force_width(masks) == 3
        assert width(nodes_from_masks(masks, 4)).width == 3

    def test_empty(self):
        rep = width([])
        assert rep.width == 0 and rep.antichain_witness == () and rep.chain_cover == ()

    def test_certificates(self):
        masks = cutset_fourcolor(6, 1).node_masks()
        rep = width(nodes_from_masks(masks, 6))
        assert len(rep.antichain_witness) == rep.width == len(rep.chain_cover)
        assert is_antichain(rep.antichain_witness)
        covered = sorted(a.bits for seq in rep.chain_cover for a in seq)
        assert covered == sorted(masks)
        for seq in rep.chain_cover:
            for lo, hi in zip(seq, seq[1:]):
                assert lo.issubset(hi) and lo != hi

    def test_mixed_ground_rejected(self):
        with pytest.raises(DomainError):
            width([node([1], 3), node([1], 4)])

    @given(st.integers(1, 7), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, n, data):
        pool = list(range(2**n))
        masks = set(data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10)))
        assert width(nodes_from_masks(masks, n)).width == brute_force_width(masks)

    def test_disjoint_chain_union_bound(self):
        cut = cutset_product(6, 1, 2)
        rep = width(cut.nodes())
        assert rep.width <= cut.chain_count


def pairwise_antichain(masks):
    return not any(a != b and a & ~b == 0 for a in masks for b in masks)


# Small grounds hold many low-popcount masks, so submasks are looked up;
# n = 20 with few, mostly high-popcount masks makes the earlier masks scanned.
families = st.one_of(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(st.just(n), st.sets(st.integers(0, 2**n - 1), max_size=40))
    ),
    st.tuples(st.just(20), st.sets(st.integers(0, 2**20 - 1), max_size=10)),
)


class TestIsAntichain:
    def test_examples(self):
        assert is_antichain([node([], 3)])
        assert not is_antichain([node([1], 3), node([1, 2], 3)])
        assert not is_antichain([node([], 20), node(range(1, 21), 20)])
        assert is_antichain([node(range(1, 20), 20), node(range(2, 21), 20)])

    @given(families)
    @settings(max_examples=200, deadline=None)
    def test_matches_pairwise_definition(self, family):
        n, masks = family
        assert is_antichain(nodes_from_masks(masks, n)) == pairwise_antichain(masks)

    @given(families)
    @settings(max_examples=200, deadline=None)
    def test_proper_subset_lists_match_pairwise(self, family):
        from boolcut.analysis import _proper_subsets

        n, masks = family
        masks = sorted(masks)
        want = [[u for u in masks if u != v and u & ~v == 0] for v in masks]
        assert list(_proper_subsets(masks)) == want

    def test_both_routes_are_taken(self):
        from boolcut.analysis import _proper_subsets

        # In 0..8, mask 7 has 8 submasks against 7 earlier masks (scanned)
        # and mask 8 has 2 against 8 (looked up); the 20-bit full mask has
        # 2**20 submasks against 2 earlier masks (scanned).
        subsets = list(_proper_subsets(list(range(9))))
        assert subsets[7] == [0, 1, 2, 3, 4, 5, 6] and subsets[8] == [0]
        assert list(_proper_subsets([1, 2, 2**20 - 1]))[-1] == [1, 2]

    def test_fourcolor_bottoms(self):
        bottoms = [ch.bottom for ch in cutset_fourcolor(6, 1).chains]
        assert len(bottoms) == 5 and is_antichain(bottoms)


class TestIncrementalMatcher:
    @given(st.integers(1, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_width_matches_ascending_pushes(self, n, data):
        from boolcut.analysis import InclusionMatcher

        masks = sorted(data.draw(st.sets(st.integers(0, 2**n - 1), max_size=30)))
        matcher = InclusionMatcher()
        for v in masks:
            matcher.push(v)
        rep = width(nodes_from_masks(masks, n))
        pair_up = {lo.bits: hi.bits for seq in rep.chain_cover for lo, hi in zip(seq, seq[1:])}
        assert pair_up == matcher.pair_up

    def test_pushes_pass_no_dead_marks(self, monkeypatch):
        # pop() puts old mates back, which breaks the dead-mark argument of
        # chains.greedy_match, so every search of push() gets a new, empty set.
        augment = analysis.augment
        sets = []

        def spy(start, adjacent, right_mate, left_mate, visited):
            assert not visited
            sets.append(visited)
            return augment(start, adjacent, right_mate, left_mate, visited)

        monkeypatch.setattr(analysis, "augment", spy)
        matcher = analysis.InclusionMatcher()
        for v in (0b001, 0b011, 0b010, 0b111):
            matcher.push(v)
        matcher.pop()
        matcher.push(0b100)
        assert len(sets) > 5 and len({id(s) for s in sets}) == len(sets)

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_width_tracks_brute_force_through_push_pop(self, n, data):
        from boolcut.analysis import InclusionMatcher

        pool = list(range(2**n))
        matcher = InclusionMatcher()
        stack = []
        ops = data.draw(st.lists(st.booleans(), min_size=1, max_size=24))
        for is_push in ops:
            if (is_push and len(stack) < len(pool)) or not stack:
                v = data.draw(st.sampled_from([x for x in pool if x not in stack]))
                matcher.push(v)
                stack.append(v)
            else:
                matcher.pop()
                stack.pop()
            assert matcher.width == brute_force_width(stack)
            # The antichain read off the matching is a maximum one.
            antichain = matcher.antichain()
            assert len(set(antichain)) == len(antichain) == matcher.width
            assert set(antichain) <= set(stack)
            assert not any(a != b and a & ~b == 0 for a in antichain for b in antichain)


class TestReportJson:
    def test_cutset_report(self):
        lat = TruncatedLattice(4, 1, 2)
        good = is_cutset(lat, level_nodes(4, 1)).to_json()
        assert good == {"is_cutset": True}
        bad = is_cutset(lat, []).to_json()
        assert bad == {"is_cutset": False, "missed_chain": [[1], [1, 2]]}

    def test_width_report(self):
        data = width([node([1], 2), node([1, 2], 2)]).to_json()
        assert data == {
            "width": 1,
            "antichain": [[1, 2]],
            "chain_cover": [[[1], [1, 2]]],
        }
