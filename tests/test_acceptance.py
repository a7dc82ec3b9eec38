"""Acceptance suite: one test per criterion, each printing a PASS line.

All expectations are exact integer equalities; each criterion also carries
a wall-clock ceiling that is asserted.  Run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""

import csv
import time
from contextlib import contextmanager

import pytest

from boolcut import (
    SearchBudget,
    check_identities,
    check_index_monotonicity,
    conjectured_min_width,
    cutset_bicolor,
    cutset_fourcolor,
    cutset_level,
    cutset_product,
    exact_min_per_level,
    exact_min_width,
    bounded_chain_partition,
    is_cutset,
    start_level_counts,
    width,
)
from boolcut.lattice import NodeSet
from boolcut.report import _REPORT_HEADER, report_rows

from helpers import brute_force_width, naive_is_cutset, pascal


@contextmanager
def criterion(name, limit_seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < limit_seconds, f"{name} took {elapsed:.1f}s, limit {limit_seconds}s"
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.1f}s < {limit_seconds:.0f}s)")


def bicolor_domain(n_max):
    return [(n, m) for n in range(1, n_max + 1) for m in range(n)]


def fourcolor_domain(n_max):
    return [(n, m) for n in range(2, n_max + 1) for m in range((n - 2) // 2 + 1)]


def product_domain(n_max):
    return [
        (n, m, l)
        for n in range(n_max + 1)
        for m in range(n // 3 + 1)
        for l in range(2 * m, n - m + 1)
    ]


def test_c1_construction_counts():
    with criterion("C1 construction-counts", 10.0):
        for n, m in bicolor_domain(12):
            assert cutset_bicolor(n, m).chain_count == pascal(n - 1, m)
        for n, m in fourcolor_domain(12):
            expected = sum(pascal(n - 2 * j - 2, m - j) for j in range(m + 1))
            assert cutset_fourcolor(n, m).chain_count == expected
        for n in range(13):
            for m in range(n // 3 + 1):
                expected = pascal(n, m) - pascal(n, m - 1)
                assert cutset_product(n, m, 2 * m).chain_count == expected


def test_c2_cutset_validity():
    with criterion("C2 cutset-validity", 60.0):
        for n in range(11):
            for m in range(n + 1):
                cut = cutset_level(n, m)
                assert is_cutset(cut.lat, cut.nodes()).is_cutset
        for n, m in bicolor_domain(10):
            cut = cutset_bicolor(n, m)
            assert is_cutset(cut.lat, cut.nodes()).is_cutset
        for n, m in fourcolor_domain(10):
            cut = cutset_fourcolor(n, m)
            assert is_cutset(cut.lat, cut.nodes()).is_cutset
        for n, m, l in product_domain(10):
            cut = cutset_product(n, m, l)
            assert is_cutset(cut.lat, cut.nodes()).is_cutset
        # Cross-validation against direct maximal-chain enumeration.
        for n in range(8):
            for m in range(n + 1):
                assert naive_is_cutset(n, m, m, cutset_level(n, m).node_masks())
        for n, m in bicolor_domain(7):
            assert naive_is_cutset(n, m, m + 1, cutset_bicolor(n, m).node_masks())
        for n, m in fourcolor_domain(7):
            assert naive_is_cutset(n, m, m + 2, cutset_fourcolor(n, m).node_masks())
        for n, m, l in product_domain(7):
            assert naive_is_cutset(n, m, l, cutset_product(n, m, l).node_masks())


def test_c3_width_tightness():
    with criterion("C3 width-tightness", 120.0):
        builds = [cutset_bicolor(n, m) for n, m in bicolor_domain(10)]
        builds += [cutset_fourcolor(n, m) for n, m in fourcolor_domain(10)]
        # Product chains do not depend on l, so one width check per (n, m).
        builds += [
            cutset_product(n, m, 2 * m) for n in range(11) for m in range(n // 3 + 1)
        ]
        for cut in builds:
            assert width(cut.nodes()).width == cut.chain_count
        # The width routine itself, against the subset-scan oracle.
        oracle_sets = [
            cutset_bicolor(10, 1).node_masks(),   # exactly 18 nodes
            cutset_fourcolor(6, 1).node_masks(),  # 15 nodes
            cutset_product(5, 1, 3).node_masks(),
            set(range(1, 17)),                    # ad-hoc masks over [6]
            {0b111, 0b1011, 0b1100, 0b0011, 0b10101, 0b01110, 0b10000, 0b1, 0b11111},
        ]
        for masks in oracle_sets:
            assert len(masks) <= 18
            n = max(v.bit_length() for v in masks)
            got = width([NodeSet(v, n) for v in masks]).width
            assert got == brute_force_width(masks)


def test_c4_bounded_chain_partition_properties():
    with criterion("C4 chain-partition-properties", 60.0):
        for m in range(7):
            p = bounded_chain_partition(2 * m, m + 1)
            assert p.covers_ground()
            assert len(p.chains) == pascal(2 * m, m)
            assert all(ch.size <= m + 1 for ch in p.chains)
            counts = start_level_counts(p)
            assert set(counts) <= set(range(m + 1))
            for j in range(m + 1):
                assert counts.get(j, 0) == pascal(2 * m, j) - pascal(2 * m, j - 1)
        for m in range(6):
            ok, violations = check_index_monotonicity(bounded_chain_partition(2 * m, m + 1))
            assert ok, violations


def test_c5_identity_suite():
    with criterion("C5 identity-suite", 10.0):
        records = check_identities(40, 10)
        assert all(r.ok for r in records)
        by_name = {}
        for r in records:
            by_name.setdefault(r.identity, 0)
            by_name[r.identity] += 1
        assert set(by_name) == {"delta_sum_c1", "delta_sum_c2", "delta_sum_c3", "lift_count"}
        lift = [r for r in records if r.identity == "lift_count" and (r.n, r.m) == (7, 2)]
        assert lift and lift[0].lhs == lift[0].rhs == 14


def test_c6_search_anchors():
    with criterion("C6 search-anchors", 300.0):
        assert exact_min_width(3, 1, 2).value == 2
        assert exact_min_width(4, 1, 3).value == 3
        assert exact_min_width(5, 1, 4).value == 4
        assert exact_min_width(4, 1, 2).value == 3
        assert exact_min_per_level(4, 1, 2).value == 3
        assert exact_min_width(3, 1, 1).value == pascal(3, 1)
        assert exact_min_width(4, 2, 2).value == pascal(4, 2)


def test_c7_constant_plateau():
    with criterion("C7 constant-plateau", 5.0):
        for n in range(41):
            for m in range(min(10, n // 3) + 1):
                target = pascal(n, m) - pascal(n, m - 1)
                for l in range(2 * m, n - m + 1):
                    assert conjectured_min_width(n, m, l) == target


@pytest.mark.usefixtures("no_worker_outlives_the_test")
def test_c8_conjecture_comparison_csv(tmp_path):
    # The asymptotic regime is out of reach at desk scale; instead a full
    # comparison table over every instance with at most 64 lattice nodes
    # (n up to 12), in which the exact rows must satisfy g <= h <= the
    # construction bound.
    with criterion("C8 conjecture-comparison-csv", 600.0):
        budget = SearchBudget(max_nodes_expanded=50_000, wall_clock_limit=10.0)
        rows = list(report_rows(range(3, 13), range(0, 7), budget, 64))
        out = tmp_path / "conjecture_comparison.csv"
        with open(out, "w", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(_REPORT_HEADER)
            writer.writerows(rows)
        with open(out) as f:
            parsed = list(csv.DictReader(f))
        in_cap = [r for r in parsed if r["searched_h"] != "SKIPPED"]
        assert len(parsed) > 200 and len(in_cap) > 60
        exact_rows = 0
        for r in in_cap:
            if r["searched_h"].isdigit() and r["construction_count"]:
                exact_rows += 1
                assert int(r["searched_h"]) <= int(r["construction_count"]), r
            if r["searched_h"].isdigit() and r["searched_g"].isdigit():
                assert int(r["searched_g"]) <= int(r["searched_h"]), r
        assert exact_rows > 50
