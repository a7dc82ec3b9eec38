import pytest

from boolcut import (
    Chain,
    ChainPartition,
    Cutset,
    DomainError,
    InternalError,
    NodeSet,
    TruncatedLattice,
    choose_method,
    cutset_auto,
    cutset_bicolor,
    cutset_fourcolor,
    cutset_level,
    cutset_product,
    is_antichain,
    is_cutset,
    method_counts,
    width,
)
from boolcut import constructions

from helpers import naive_is_cutset, pascal


def elements(cut):
    return [[node.elements() for node in ch] for ch in cut.chains]


def fourcolor_count(n, m):
    return sum(pascal(n - 2 * j - 2, m - j) for j in range(m + 1))


class TestLevel:
    def test_examples(self):
        assert elements(cutset_level(3, 1)) == [[(1,)], [(2,)], [(3,)]]
        assert elements(cutset_level(4, 0)) == [[()]]
        assert cutset_level(4, 2).chain_count == pascal(4, 2)


class TestBicolor:
    def test_exact_chains(self):
        assert elements(cutset_bicolor(4, 1)) == [
            [(2,), (1, 2)],
            [(3,), (1, 3)],
            [(4,), (1, 4)],
        ]

    def test_degenerate(self):
        assert elements(cutset_bicolor(2, 0)) == [[(), (1,)]]

    def test_count(self):
        assert cutset_bicolor(8, 2).chain_count == pascal(7, 2)

    def test_domain(self):
        with pytest.raises(DomainError):
            cutset_bicolor(3, 3)


class TestFourcolor:
    def test_recursion_shape(self):
        cut = cutset_fourcolor(6, 1)
        assert cut.chain_count == pascal(4, 1) + pascal(2, 0)
        got = elements(cut)
        for x in (3, 4, 5, 6):
            assert [(x,), (1, x), (1, 2, x)] in got
        assert got[-1] == [(2,), (2, 3), (2, 3, 4)]

    def test_base_case(self):
        assert elements(cutset_fourcolor(2, 0)) == [[(), (1,), (1, 2)]]

    def test_count(self):
        # Note the stage sizes: C(6,2) + C(4,1) + C(2,0) = 15 + 4 + 1.
        assert cutset_fourcolor(8, 2).chain_count == fourcolor_count(8, 2) == 20

    def test_domain(self):
        with pytest.raises(DomainError):
            cutset_fourcolor(5, 2)


class TestProduct:
    def test_exact_chains(self):
        assert elements(cutset_product(4, 1, 2)) == [
            [(3,), (1, 3)],
            [(4,), (1, 4)],
            [(2,), (1, 2)],
        ]

    def test_m_zero(self):
        cut = cutset_product(3, 0, 2)
        assert elements(cut) == [[()]]
        assert cut.chain_count == 1

    def test_count(self):
        assert cutset_product(7, 2, 4).chain_count == pascal(7, 2) - pascal(7, 1) == 14

    def test_domain(self):
        with pytest.raises(DomainError):
            cutset_product(7, 2, 3)  # l below 2m
        with pytest.raises(DomainError):
            cutset_product(7, 2, 6)  # l above n - m

    def test_defective_partition_fails_before_lifting(self, monkeypatch):
        real = constructions.bounded_chain_partition

        def stranded_top(k, c):
            top = NodeSet((1 << k) - 1, k)
            chains = [Chain(tuple(x for x in ch if x != top)) for ch in real(k, c).chains]
            return ChainPartition(tuple(chains) + (Chain((top,)),), k=k, c=c)

        monkeypatch.setattr(constructions, "bounded_chain_partition", stranded_top)
        with pytest.raises(InternalError, match=r"7 chains, not C\(4,2\) = 6, and 1 bottoms"):
            cutset_product(6, 2, 4)

    def test_lives_in_levels_m_to_2m_and_cuts_every_taller_slice(self):
        n, m, l = 8, 2, 6
        cut = cutset_product(n, m, l)
        assert set(cut.levels_used()) <= set(range(m, 2 * m + 1))
        for l2 in range(2 * m, l + 1):
            lat = TruncatedLattice(n, m, l2)
            assert is_cutset(lat, cut.nodes()).is_cutset


class TestAllBuildersAreCutsets:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_level_and_bicolor(self, n):
        for m in range(n + 1):
            cut = cutset_level(n, m)
            assert is_cutset(cut.lat, cut.nodes()).is_cutset
            if m <= n - 1:
                cut = cutset_bicolor(n, m)
                assert is_cutset(cut.lat, cut.nodes()).is_cutset

    @pytest.mark.parametrize("n", range(2, 9))
    def test_fourcolor_and_product(self, n):
        for m in range((n - 2) // 2 + 1):
            cut = cutset_fourcolor(n, m)
            assert is_cutset(cut.lat, cut.nodes()).is_cutset
        for m in range(n // 3 + 1):
            for l in range(2 * m, n - m + 1):
                cut = cutset_product(n, m, l)
                assert is_cutset(cut.lat, cut.nodes()).is_cutset

    @pytest.mark.parametrize("n", range(2, 8))
    def test_cross_validated_against_naive(self, n):
        for m in range((n - 1) // 2 + 1):
            assert naive_is_cutset(n, m, m + 1, cutset_bicolor(n, m).node_masks())
        for m in range(n // 3 + 1):
            assert naive_is_cutset(n, m, 2 * m, cutset_product(n, m, 2 * m).node_masks())


class TestWidthCertificateIsTight:
    @pytest.mark.parametrize(
        "cut",
        [
            cutset_bicolor(6, 2),
            cutset_fourcolor(7, 2),
            cutset_product(7, 2, 4),
            cutset_product(6, 1, 4),
        ],
        ids=["bicolor", "fourcolor", "product", "product-tall"],
    )
    def test_bottoms_pin_the_width(self, cut):
        bottoms = [ch.bottom for ch in cut.chains]
        assert all(b.level == cut.lat.m for b in bottoms)
        assert len({b.bits for b in bottoms}) == cut.chain_count
        assert is_antichain(bottoms)
        assert width(cut.nodes()).width == cut.chain_count

    def test_chains_disjoint(self):
        for cut in (cutset_bicolor(7, 3), cutset_fourcolor(8, 3), cutset_product(9, 3, 6)):
            total = sum(ch.size for ch in cut.chains)
            assert len(cut.node_masks()) == total


class TestAuto:
    def test_short_lattice_uses_bicolor(self):
        assert choose_method(6, 2, 3) == "bicolor"
        assert cutset_auto(6, 2, 3).chain_count == 10

    def test_tie_breaks_toward_product(self):
        counts = method_counts(6, 1, 2)
        assert counts["bicolor"] == counts["product"] == 5
        assert choose_method(6, 1, 2) == "product"

    def test_gap_has_no_construction(self):
        with pytest.raises(DomainError):
            choose_method(13, 4, 7)
        with pytest.raises(DomainError):
            cutset_auto(13, 4, 7)

    def test_ground_set_is_refused_before_any_binomial(self, monkeypatch):
        def refuse(n, *args):
            raise AssertionError(f"a count in n={n} was computed")

        monkeypatch.setattr(constructions, "per_level_bound_value", refuse)
        monkeypatch.setattr(constructions, "delta", refuse)
        for pick in (method_counts, choose_method, cutset_auto):
            with pytest.raises(DomainError, match="need 0 <= m <= l <= n <= 64, got n=10000000"):
                pick(10**7, 10**6, 10**6)

    def test_l_m_plus_2_dispatches_fourcolor(self):
        # Within the standing domain l <= n - m, the four-color condition
        # n >= 2m + 2 holds automatically whenever l = m + 2.
        assert choose_method(9, 3, 5) == "fourcolor"
        cut = cutset_auto(9, 3, 5)
        assert cut.chain_count == fourcolor_count(9, 3)

    def test_counts_match_builders(self):
        # construct sizes its refusal as counts[method] * (l - m + 1) nodes,
        # which rests on these facts.
        for n in range(1, 11):
            for m in range(n // 2 + 1):
                for l in range(m, n - m + 1):
                    for name, count in method_counts(n, m, l).items():
                        cut = constructions.BUILDERS[name](n, m, l)
                        assert cut.chain_count == count
                        assert cut.lat == TruncatedLattice(n, m, l)
                        assert len(cut.node_masks()) <= count * (l - m + 1)


class TestCutsetJson:
    def test_round_trip(self):
        cut = cutset_product(5, 1, 3)
        again = Cutset.from_json(cut.to_json())
        assert again == cut

    def test_mask_chains_are_checked(self):
        lat = TruncatedLattice(4, 1, 2)
        for chains, message in [
            (((1, 3), (1 << 4,)), "does not fit in"),
            (((1, 6),), r"not saturated ascending at \{1\} -> \{2,3\}"),
            (((0, 1),), r"node \{\} at level 0 outside levels 1..2"),
            (((1,), ()), "chain must be nonempty"),
        ]:
            with pytest.raises(DomainError, match=message):
                Cutset(lat, chains)
        cut = Cutset(lat, ((1, 3), (2,)))
        assert cut.chains == (
            Chain((NodeSet(1, 4), NodeSet(3, 4))), Chain((NodeSet(2, 4),))
        )
        assert cut.nodes() == (NodeSet(1, 4), NodeSet(2, 4), NodeSet(3, 4))

    def test_format_field_required(self):
        data = cutset_level(3, 1).to_json()
        data.pop("format")
        with pytest.raises(DomainError):
            Cutset.from_json(data)

    def test_node_outside_levels_rejected(self):
        data = {"format": 1, "n": 4, "m": 1, "l": 2, "chains": [[[1, 2, 3]]]}
        with pytest.raises(DomainError):
            Cutset.from_json(data)

    def test_unsaturated_chain_rejected(self):
        data = {"format": 1, "n": 4, "m": 1, "l": 3, "chains": [[[1], [1, 2, 3]]]}
        with pytest.raises(DomainError):
            Cutset.from_json(data)
