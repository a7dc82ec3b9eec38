import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from boolcut import (
    Chain,
    ChainPartition,
    DomainError,
    NodeSet,
    check_index_monotonicity,
    bounded_chain_partition,
    start_level_counts,
)
from boolcut.chains import augment, greedy_match

from helpers import kuhn_augment, pascal


def chain_of(*element_sets, n):
    return Chain(tuple(NodeSet.from_elements(es, n) for es in element_sets))


def as_element_sets(partition):
    return [[node.elements() for node in ch] for ch in partition.chains]


class TestChain:
    def test_saturated_ascending_required(self):
        chain_of([1], [1, 2], n=3)
        with pytest.raises(DomainError):
            chain_of([1], [1, 2, 3], n=3)
        with pytest.raises(DomainError):
            chain_of([1], [2], n=3)
        with pytest.raises(DomainError):
            Chain(())

    def test_size_and_length(self):
        ch = chain_of([2], [2, 3], [1, 2, 3], n=3)
        assert ch.size == 3 and ch.length == 2
        assert ch.bottom.elements() == (2,) and ch.top.elements() == (1, 2, 3)


class TestBoundedChainPartition:
    def test_k2_c2_exact(self):
        assert as_element_sets(bounded_chain_partition(2, 2)) == [
            [(), (1,)],
            [(2,), (1, 2)],
        ]

    def test_k1_base(self):
        assert as_element_sets(bounded_chain_partition(1, 2)) == [[(), (1,)]]

    def test_k4_c3_chain_count(self):
        assert len(bounded_chain_partition(4, 3).chains) == pascal(4, 2)

    def test_bad_parameters(self):
        with pytest.raises(DomainError):
            bounded_chain_partition(-1, 2)
        with pytest.raises(DomainError):
            bounded_chain_partition(3, 0)

    @given(st.integers(0, 9), st.data())
    @settings(max_examples=60, deadline=None)
    def test_partitions_the_cube_within_size_bound(self, k, data):
        c = data.draw(st.integers(1, k + 2))
        p = bounded_chain_partition(k, c)
        assert p.covers_ground()
        assert all(ch.size <= c for ch in p.chains)

    @pytest.mark.parametrize("k,c", [(11, 3), (11, 12), (12, 1), (12, 5), (12, 7), (12, 13)])
    def test_partitions_at_the_ground_size_extremes(self, k, c):
        p = bounded_chain_partition(k, c)
        assert p.covers_ground()
        assert all(ch.size <= c for ch in p.chains)

    @pytest.mark.parametrize("k", range(11))
    def test_symmetric_decomposition_at_full_size(self, k):
        # c = k + 1 never freezes a chain, giving the symmetric decomposition.
        for ch in bounded_chain_partition(k, k + 1).chains:
            assert ch.top.level == k - ch.bottom.level

    def test_chains_sorted_by_bottom(self):
        p = bounded_chain_partition(5, 3)
        bottoms = [ch.bottom.bits for ch in p.chains]
        assert bottoms == sorted(bottoms)

    def test_deterministic(self):
        assert bounded_chain_partition(7, 3) == bounded_chain_partition(7, 3)
        assert bounded_chain_partition(8, 5) == bounded_chain_partition(8, 5)

    @pytest.mark.xfail(strict=True, reason="k = 14 leaves the top node as a singleton chain")
    def test_middle_cap_at_k14_uses_the_middle_level_count(self):
        p = bounded_chain_partition(14, 8)
        assert len(p.chains) == pascal(14, 7)
        assert all(ch.bottom.level <= 7 for ch in p.chains)


class TestStartLevelCounts:
    def test_small_cases(self):
        assert start_level_counts(bounded_chain_partition(2, 2)) == {0: 1, 1: 1}
        assert start_level_counts(bounded_chain_partition(4, 3)) == {0: 1, 1: 3, 2: 2}
        assert start_level_counts(bounded_chain_partition(0, 1)) == {0: 1}

    @pytest.mark.parametrize("m", range(7))
    def test_bounded_partition_start_profile(self, m):
        counts = start_level_counts(bounded_chain_partition(2 * m, m + 1))
        for j, got in counts.items():
            assert j <= m
            assert got == pascal(2 * m, j) - pascal(2 * m, j - 1)


class TestIndexMonotonicity:
    @pytest.mark.parametrize("m", range(6))
    def test_holds_for_bounded_partition(self, m):
        ok, violations = check_index_monotonicity(bounded_chain_partition(2 * m, m + 1))
        assert ok and violations == []

    def test_detects_backward_inclusion(self):
        # {1} sits at position 2 of its chain but inside the position-1
        # node {1,2} of the other chain.
        p = ChainPartition(
            chains=(
                chain_of([1, 2], n=2),
                chain_of([], [1], n=2),
            ),
            k=2,
            c=2,
        )
        ok, violations = check_index_monotonicity(p)
        assert not ok
        assert (1, 2, 0, 1) in violations


class TestChainPartitionType:
    def test_rejects_overlap(self):
        with pytest.raises(DomainError):
            ChainPartition((chain_of([1], n=2), chain_of([1], [1, 2], n=2)), k=2, c=2)
        with pytest.raises(DomainError, match=r"node \{1\} appears in two chains"):
            ChainPartition.from_masks([(1,), (1, 3)], k=2, c=2)

    def test_rejects_oversized_chain(self):
        with pytest.raises(DomainError):
            ChainPartition((chain_of([], [1], n=1),), k=1, c=1)
        with pytest.raises(DomainError, match="chain of size 2 exceeds bound 1"):
            ChainPartition.from_masks([(0, 1)], k=1, c=1)

    def test_masks_are_checked_like_chains(self):
        with pytest.raises(DomainError, match=r"not saturated ascending at \{1\} -> \{2\}"):
            ChainPartition.from_masks([(1, 2)], k=2, c=2)
        with pytest.raises(DomainError, match="does not fit in"):
            ChainPartition.from_masks([(4,)], k=2, c=2)
        chains = (chain_of([], [1], n=2), chain_of([2], n=2))
        assert ChainPartition(chains, k=2, c=2) == ChainPartition.from_masks([(0, 1), (2,)], 2, 2)
        assert ChainPartition.from_masks([(0, 1), (2,)], 2, 2).chains == chains

    def test_serialization_shape(self):
        p = bounded_chain_partition(2, 2)
        assert p.to_json() == [[[], [1]], [[2], [1, 2]]]


@given(st.integers(1, 7), st.integers(1, 7), st.data())
@settings(max_examples=200, deadline=None)
def test_augment_matches_the_recursive_search(n_left, n_right, data):
    # A random graph with a random matching along its edges, a random
    # unmatched start and random visited right nodes.
    right = st.lists(st.integers(0, n_right - 1), unique=True, max_size=n_right)
    adjacent = {x: data.draw(right) for x in range(n_left)}
    start = data.draw(st.integers(0, n_left - 1))
    right_mate, left_mate = {}, {}
    for x in data.draw(st.permutations(range(n_left))):
        free = [y for y in adjacent[x] if y not in right_mate]
        if x != start and free and data.draw(st.booleans()):
            y = data.draw(st.sampled_from(free))
            right_mate[y], left_mate[x] = x, y
    visited = set(data.draw(st.lists(st.integers(0, n_right - 1), max_size=n_right)))
    want = (dict(right_mate), dict(left_mate), set(visited))
    found = kuhn_augment(start, adjacent, *want)
    assert augment(start, adjacent, right_mate, left_mate, visited) == found
    assert (right_mate, left_mate, visited) == want


class TestAugmentDeadMarks:
    @given(st.integers(1, 7), st.integers(1, 7), st.data())
    @settings(max_examples=150, deadline=None)
    def test_greedy_pass_is_unchanged_by_dead_marks(self, n_left, n_right, data):
        # A random graph and a supergraph whose lists extend its lists, matched
        # one after the other into shared mates, as the window and wide passes
        # of the chain partition are: greedy_match must leave the mates that a
        # plain loop of searches, each with a fresh visited set, leaves.
        right = st.lists(st.integers(0, n_right - 1), unique=True, max_size=n_right)
        wide = {x: data.draw(right) for x in range(n_left)}
        window = {x: [y for y in ys if data.draw(st.booleans())] for x, ys in wide.items()}
        plain, greedy = ({}, {}), ({}, {})
        for graph in (window, wide):
            order = data.draw(st.permutations(range(n_left)))
            starts = [x for x in order if x not in plain[1]]
            for x in starts:
                augment(x, graph, *plain, set())
            greedy_match(starts, graph, *greedy)
            assert greedy == plain


def test_partition_properties_script_reports_every_property():
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, str(root / "scripts" / "partition_properties.py"), "--max-m", "5"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    rows = [line.split() for line in out.stdout.splitlines()[1:]]
    assert [int(row[0]) for row in rows] == list(range(6))
    for m, chains, middle, _, starts_ok, monotone in rows:
        assert chains == middle == str(pascal(2 * int(m), int(m)))
        assert starts_ok == monotone == "True"
