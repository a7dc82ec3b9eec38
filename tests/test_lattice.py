import pytest
from hypothesis import given, strategies as st

from boolcut import DomainError, NodeSet, TruncatedLattice, level_nodes
from boolcut.lattice import level_masks

from helpers import level_masks_naive, pascal


def nodes(*element_sets, n):
    return [NodeSet.from_elements(es, n) for es in element_sets]


class TestNodeSet:
    def test_elements_round_trip(self):
        a = NodeSet.from_elements([1, 3, 5], 6)
        assert a.elements() == (1, 3, 5)
        assert a.level == 3
        assert 3 in a and 2 not in a

    def test_json_is_ascending_one_based(self):
        a = NodeSet(0b10101, 5)
        assert a.to_json() == [1, 3, 5]
        assert NodeSet.from_json([1, 3, 5], 5) == a

    def test_rejects_stray_bits(self):
        with pytest.raises(DomainError):
            NodeSet(0b100, 2)
        with pytest.raises(DomainError):
            NodeSet(1, 65)

    def test_subset(self):
        a, b = nodes([1], [1, 2], n=3)
        assert a.issubset(b) and not b.issubset(a)


class TestLevelNodes:
    def test_singletons(self):
        assert [a.elements() for a in level_nodes(2, 1)] == [(1,), (2,)]

    def test_count_matches_binomial(self):
        assert len(level_nodes(4, 2)) == pascal(4, 2)

    def test_empty_level(self):
        assert level_nodes(5, 0) == [NodeSet(0, 5)]

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            level_nodes(3, 4)
        with pytest.raises(DomainError):
            level_nodes(3, -1)

    @given(st.integers(0, 10), st.data())
    def test_matches_naive_enumeration(self, n, data):
        k = data.draw(st.integers(0, n))
        assert level_masks(n, k) == level_masks_naive(n, k)

    @pytest.mark.parametrize("n", range(13))
    def test_levels_partition_the_cube(self, n):
        assert sum(len(level_masks(n, k)) for k in range(n + 1)) == 2**n


class TestTruncatedLattice:
    def test_node_count(self):
        assert TruncatedLattice(4, 1, 2).node_count == 10

    def test_validation(self):
        with pytest.raises(DomainError):
            TruncatedLattice(4, 3, 2)
        with pytest.raises(DomainError):
            TruncatedLattice(4, 0, 5)
