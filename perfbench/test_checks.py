"""Each checker in checks.py accepts a known-good output and rejects bad ones.

Run: python3 -m pytest -q perfbench/test_checks.py

The good outputs below were printed by the boolcut CLI; every bad one is a
single edit of a good one, so a checker that passes the good input and
fails the edit is sensitive to exactly that fault.
"""

from __future__ import annotations

import copy
import random
from itertools import combinations
from math import comb, factorial

import pytest

import checks
from checks import CheckError

FOURCOLOR_5_1 = {"format": 1, "n": 5, "m": 1, "l": 3, "chains": [
    [[3], [1, 3], [1, 2, 3]], [[4], [1, 4], [1, 2, 4]],
    [[5], [1, 5], [1, 2, 5]], [[2], [2, 3], [2, 3, 4]]]}
FOURCOLOR_SUMMARY = {"method": "fourcolor", "chain_count": 4, "levels_used": [1, 2, 3]}

SEARCH_G_5_1_4 = {"status": "EXACT", "value": 3, "lower": 3, "upper": 3, "witness": {
    "format": 1, "n": 5, "m": 1, "l": 4, "chains": [
        [[1]], [[2]], [[3]], [[1, 4]], [[2, 4]], [[3, 4]], [[1, 2, 5]], [[1, 2, 3, 5]],
        [[1, 4, 5]], [[2, 4, 5]], [[1, 3, 4, 5]], [[2, 3, 4, 5]]]},
    "stats": {"nodes_expanded": 842, "elapsed_seconds": 0.011188}}
SEARCH_H_4_1_2 = {"status": "EXACT", "value": 3, "lower": 3, "upper": 3, "witness": {
    "format": 1, "n": 4, "m": 1, "l": 2,
    "chains": [[[1]], [[2]], [[3]], [[1, 4]], [[2, 4]], [[3, 4]]]},
    "stats": {"nodes_expanded": 27, "elapsed_seconds": 0.000542}}

REPORT_3_4 = """\
n,m,l,c,conjectured_h,g_formula,construction_count,searched_h,searched_g,flags
3,0,0,1,1,1,1,1,1,h=conj;g=h;constr=conj
3,0,1,2,1,1,1,1,1,h=conj;g=h;constr=conj
3,0,2,3,1,1,1,1,1,h=conj;g=h;constr=conj
3,0,3,4,1,,1,1,1,h=conj;g=h;constr=conj
3,1,1,1,3,3,3,3,3,h=conj;g=h;constr=conj
3,1,2,2,2,2,2,2,2,h=conj;g=h;constr=conj
4,0,0,1,1,1,1,1,1,h=conj;g=h;constr=conj
4,0,1,2,1,1,1,1,1,h=conj;g=h;constr=conj
4,0,2,3,1,1,1,1,1,h=conj;g=h;constr=conj
4,0,3,4,1,,1,1,1,h=conj;g=h;constr=conj
4,0,4,5,1,,1,1,1,h=conj;g=h;constr=conj
4,1,1,1,4,4,4,4,4,h=conj;g=h;constr=conj
4,1,2,2,3,3,3,3,3,h=conj;g=h;constr=conj
4,1,3,3,3,3,3,3,3,h=conj;g=h;constr=conj
4,2,2,1,6,6,6,6,6,h=conj;g=h;constr=conj
"""


def masks(doc):
    return {v for ch in checks.parse_cutset(doc)[3] for v in ch}


def test_chain_count_matches_enumeration_and_is_zero_on_cutsets():
    n, m, l = 5, 1, 3
    assert checks.count_avoiding_chains(n, m, l, set()) == comb(n, m) * factorial(n - m) // factorial(n - l)
    rng = random.Random(0)
    for _ in range(50):
        nodes = set(rng.sample(checks.level(n, 2) + checks.level(n, 3), rng.randrange(8)))
        brute = sum(nodes.isdisjoint(c) for c in checks.maximal_chains(n, m, l))
        assert checks.count_avoiding_chains(n, m, l, nodes) == brute
    cut = masks(FOURCOLOR_5_1)
    assert checks.count_avoiding_chains(n, m, l, cut) == 0
    assert checks.count_avoiding_chains(n, m, l, cut - {0b10}) > 0


def test_family_width_matches_brute_force():
    rng = random.Random(1)
    universe = [v for k in range(5) for v in checks.level(4, k)]
    for _ in range(100):
        fam = rng.sample(universe, rng.randrange(1, 9))
        best = max(len(s) for r in range(len(fam) + 1) for s in combinations(fam, r)
                   if all(a & ~b and b & ~a for a in s for b in s if a != b))
        assert checks.family_width(fam) == best


@pytest.mark.parametrize("edit", [
    lambda d: d.update(n=4.9),
    lambda d: d.update(m=True),
    lambda d: d["chains"][0].__setitem__(0, [3, 3]),
    lambda d: d["chains"][0].__setitem__(0, [0]),
    lambda d: d.update(format=2),
    lambda d: d["chains"].append([]),
])
def test_parser_rejects_malformed_cutsets(edit):
    doc = copy.deepcopy(FOURCOLOR_5_1)
    edit(doc)
    with pytest.raises(CheckError):
        checks.parse_cutset(doc)


def test_construct_check():
    assert checks.check_construct(FOURCOLOR_SUMMARY, FOURCOLOR_5_1, "fourcolor", 5, 1, 3) == 1
    bad = [
        # a chain dropped: count below the formula
        dict(FOURCOLOR_5_1, chains=FOURCOLOR_5_1["chains"][:3]),
        # a chain that skips a level
        dict(FOURCOLOR_5_1, chains=[[[3], [1, 2, 3]]] + FOURCOLOR_5_1["chains"][1:]),
        # a chain starting above level m
        dict(FOURCOLOR_5_1, chains=[[[1, 3], [1, 2, 3]]] + FOURCOLOR_5_1["chains"][1:]),
        # two chains sharing a node
        dict(FOURCOLOR_5_1, chains=[[[3], [1, 3], [1, 2, 3]]] * 2 + FOURCOLOR_5_1["chains"][2:]),
        # right count and shape, but a maximal chain is missed
        dict(FOURCOLOR_5_1, chains=[[[3], [3, 4], [3, 4, 5]]] + FOURCOLOR_5_1["chains"][1:]),
    ]
    for doc in bad:
        with pytest.raises(CheckError):
            checks.check_construct(FOURCOLOR_SUMMARY, doc, "fourcolor", 5, 1, 3)
    with pytest.raises(CheckError):
        checks.check_construct(dict(FOURCOLOR_SUMMARY, chain_count=5), FOURCOLOR_5_1,
                               "fourcolor", 5, 1, 3)
    with pytest.raises(CheckError):
        checks.check_construct(FOURCOLOR_SUMMARY, FOURCOLOR_5_1, "fourcolor", 5, 1, 2)


def test_verify_check():
    good = {"is_cutset": True, "width": 4, "antichain_size": 4, "chain_cover_size": 4}
    assert checks.check_verify(good, FOURCOLOR_5_1) == 1
    for out in [dict(good, is_cutset=False), dict(good, width=5, antichain_size=5,
                chain_cover_size=5), dict(good, antichain_size=3),
                dict(good, missed_chain=[[1], [1, 2], [1, 2, 3]])]:
        with pytest.raises(CheckError):
            checks.check_verify(out, FOURCOLOR_5_1)
    broken = dict(FOURCOLOR_5_1, chains=FOURCOLOR_5_1["chains"][1:])
    missed = {"is_cutset": False, "width": 3, "antichain_size": 3, "chain_cover_size": 3,
              "missed_chain": [[1], [1, 2], [1, 2, 3]]}
    assert checks.check_verify(missed, broken) == 1
    for out in [dict(missed, is_cutset=True), {k: v for k, v in missed.items()
                if k != "missed_chain"}, dict(missed, width=2)]:
        with pytest.raises(CheckError):
            checks.check_verify(out, broken)


@pytest.mark.parametrize("chain", [
    [[1], [1, 4], [1, 2, 4]],  # meets the nodes at {1,4}
    [[1], [1, 2]],  # too short
    [[1], [1, 2, 3], [1, 2, 3, 4]],  # not saturated
    [[1, 2], [1, 2, 3], [1, 2, 3, 5]],  # does not start on level m
])
def test_missed_chain_check_rejects(chain):
    nodes = masks(dict(FOURCOLOR_5_1, chains=FOURCOLOR_5_1["chains"][1:]))
    checks.check_missed_chain([[1], [1, 2], [1, 2, 3]], 5, 1, 3, nodes)
    with pytest.raises(CheckError):
        checks.check_missed_chain(chain, 5, 1, 3, nodes)


def test_search_check():
    assert checks.check_search(SEARCH_G_5_1_4, "g", 5, 1, 4) == 1
    assert checks.check_search(SEARCH_H_4_1_2, "h", 4, 1, 2) == 1
    witness = SEARCH_H_4_1_2["witness"]
    bad = [
        (dict(SEARCH_H_4_1_2, status="LOWER_AND_UPPER_BOUNDS"), "h", (4, 1, 2)),
        # recorded value differs: g(5,1,4) = 3 is on record, h(5,1,4) = 4
        (SEARCH_G_5_1_4, "h", (5, 1, 4)),
        # witness no longer a cutset
        (dict(SEARCH_H_4_1_2, witness=dict(witness, chains=witness["chains"][1:])), "h", (4, 1, 2)),
        # witness width above the value: add the node {1,2}, comparable to {1}
        (dict(SEARCH_H_4_1_2, witness=dict(witness, chains=witness["chains"] + [[[1, 2]]])),
         "h", (4, 1, 2)),
        # proved value h(4,1,2) = C(3,1) = 3, reported 2 with bounds to match
        (dict(SEARCH_H_4_1_2, value=2, lower=2, upper=2), "h", (4, 1, 2)),
        (dict(SEARCH_H_4_1_2, lower=2), "h", (4, 1, 2)),
    ]
    for out, target, inst in bad:
        with pytest.raises(CheckError):
            checks.check_search(out, target, *inst)


def test_report_check():
    assert checks.check_report(REPORT_3_4, 3, 4, 0, 32) == 30
    edits = [
        ("4,1,3,3,3,3,3,3,3,", "4,1,3,3,3,3,3,4,3,"),  # h above the proved value
        ("4,1,3,3,3,3,3,3,3,", "4,1,3,3,3,3,3,3,4,"),  # g > h and above proved
        ("4,1,3,3,3,3,3,", "4,1,3,3,4,3,3,"),          # conjectured_h
        ("3,0,3,4,1,,1,", "3,0,3,4,1,1,1,"),          # g_formula where none is known
        ("3,0,3,4,1,,1,1,1,", "3,0,3,4,1,,1,2..3,1,"),  # bounds above construction
        ("4,2,2,1,6,6,6,6,6,h=conj", "4,2,2,1,6,6,6,6,6,h!=conj"),  # flags
        ("4,2,2,1,6,6,6,6,6,h=conj;g=h;constr=conj\n", ""),  # a row missing
    ]
    for old, new in edits:
        assert old in REPORT_3_4
        with pytest.raises(CheckError):
            checks.check_report(REPORT_3_4.replace(old, new, 1), 3, 4, 0, 32)
    with pytest.raises(CheckError):
        checks.check_report(REPORT_3_4, 3, 5, 0, 32)
