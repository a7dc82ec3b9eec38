import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import example, given, settings, strategies as st

import boolcut.chains
import boolcut.lattice
from boolcut import (
    InternalError,
    SearchBudget,
    SearchResult,
    TruncatedLattice,
    WidthReport,
    analysis,
    cli,
    constructions,
    formulas,
    search,
)
from boolcut.cli import main
from boolcut.constructions import Cutset
from boolcut.report import report_rows


# Recorded output of `report --n-min 3 --n-max 4 --m-min 0 --m-max 2` and of
# `search --n 5 --m 1 --l 4` with `--target h` and `--target g` (minus the
# elapsed time): the CLI contract is byte-for-byte stable, node counts included.
# The counts of h were re-recorded when the antichain cut went in (6,435 nodes
# before, with the same value and witness), and those of h and g when failed
# candidates were excluded from their later siblings' subtrees (4,556 and 93
# nodes before), again when their whole orbits were (733 and 54 nodes
# before), again when the chain bound left the excluded nodes out (349
# and 53 nodes before), and again when each target became one tree from the
# empty selection (208 and 34 nodes before), each time with the same values
# and witnesses.
GOLDEN_REPORT_CSV = """\
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
GOLDEN_SEARCH_JSON = {
    "status": "EXACT",
    "value": 4,
    "lower": 4,
    "upper": 4,
    "witness": {
        "format": 1,
        "n": 5,
        "m": 1,
        "l": 4,
        "chains": [[[1]], [[2]], [[3]], [[4]], [[1, 5]], [[2, 5]], [[3, 5]], [[4, 5]]],
    },
    "stats": {
        "nodes_expanded": 208,
        "prunes": {"objective": 9, "chain_bound": 88, "excluded": 243},
    },
}
GOLDEN_SEARCH_G_JSON = {
    "status": "EXACT",
    "value": 3,
    "lower": 3,
    "upper": 3,
    "witness": {
        "format": 1,
        "n": 5,
        "m": 1,
        "l": 4,
        "chains": [
            [[1]], [[2]], [[3]], [[1, 4]], [[2, 4]], [[3, 4]], [[1, 2, 5]], [[1, 2, 3, 5]],
            [[1, 4, 5]], [[2, 4, 5]], [[1, 3, 4, 5]], [[2, 3, 4, 5]],
        ],
    },
    "stats": {
        "nodes_expanded": 33,
        "prunes": {"objective": 5, "chain_bound": 14, "excluded": 19},
    },
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConstruct:
    def test_writes_file_and_summary(self, capsys, tmp_path):
        path = tmp_path / "cut.json"
        code, out, _ = run(
            capsys, "construct", "--n", "4", "--m", "1", "--l", "2",
            "--method", "product", "--out", str(path),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary == {"method": "product", "chain_count": 3, "levels_used": [1, 2]}
        data = json.loads(path.read_text())
        assert data["format"] == 1 and len(data["chains"]) == 3

    def test_stdout_payload_without_out(self, capsys):
        code, out, err = run(
            capsys, "construct", "--n", "2", "--m", "0", "--l", "1", "--method", "bicolor"
        )
        assert code == 0
        data = json.loads(out)
        assert data["chains"] == [[[], [1]]]
        assert json.loads(err)["chain_count"] == 1

    def test_auto_reports_chosen_method(self, capsys, tmp_path):
        path = tmp_path / "cut.json"
        code, out, _ = run(
            capsys, "construct", "--n", "6", "--m", "1", "--l", "2",
            "--method", "auto", "--out", str(path),
        )
        assert code == 0
        assert json.loads(out)["method"] == "product"

    def test_dispatch_gap_exits_2(self, capsys):
        code, _, err = run(
            capsys, "construct", "--n", "13", "--m", "4", "--l", "7", "--method", "auto"
        )
        assert code == 2 and "no construction" in err

    def test_method_level_mismatch_exits_2(self, capsys):
        code, _, _ = run(
            capsys, "construct", "--n", "4", "--m", "1", "--l", "2", "--method", "level"
        )
        assert code == 2

    @pytest.mark.parametrize("n", range(7))
    def test_explicit_method_exits_2_unless_method_counts_has_it(self, capsys, n):
        # Outside 0 <= m <= l <= n - m method_counts raises, and no method
        # applies: B_5(3, 3) and B_4(2, 3) are two such lattices.
        for m in range(n + 1):
            for l in range(m, n + 1):
                applies = constructions.method_counts(n, m, l) if l <= n - m else {}
                for method in constructions.BUILDERS:
                    code, _, _ = run(
                        capsys, "construct", "--n", str(n), "--m", str(m),
                        "--l", str(l), "--method", method,
                    )
                    assert code == (0 if method in applies else 2), (m, l, method)

    def test_invalid_parameters_exit_2(self, capsys):
        code, _, _ = run(
            capsys, "construct", "--n", "4", "--m", "3", "--l", "2", "--method", "auto"
        )
        assert code == 2

    def test_oversize_request_exits_2_at_once(self, capsys):
        # 2,147,042,307,851,595 chains over 21 levels: building it would never end.
        code, out, err = run(capsys, "construct", "--n", "60", "--m", "20", "--l", "40")
        assert code == 2 and out == ""
        assert err.startswith("error: the product cutset of B_60(20, 40) has up to ")
        assert "45087888464883495 nodes, above --max-lattice-nodes 250000" in err

    @pytest.mark.parametrize("method", [*constructions.BUILDERS, "auto"])
    def test_ground_set_is_refused_before_any_binomial(self, capsys, monkeypatch, method):
        # C(10**7, 10**6) alone takes about a minute, so the cap on n comes first.
        def refuse(n, *args):
            raise AssertionError(f"a count in n={n} was computed")

        monkeypatch.setattr(constructions, "per_level_bound_value", refuse)
        monkeypatch.setattr(constructions, "delta", refuse)
        code, out, err = run(
            capsys, "construct", "--n", "10000000", "--m", "1000000", "--l", "1000000",
            "--method", method,
        )
        assert (code, out) == (2, "")
        assert err == "error: need 0 <= m <= l <= n <= 64, got n=10000000 m=1000000 l=1000000\n"

    @pytest.mark.parametrize("cap,code", [("5", 2), ("6", 0)])
    def test_size_cap_override(self, capsys, cap, code):
        # The product cutset of B_4(1, 2) has 3 chains over 2 levels.
        got, _, _ = run(
            capsys, "construct", "--n", "4", "--m", "1", "--l", "2", "--max-lattice-nodes", cap
        )
        assert got == code

    @pytest.mark.parametrize(
        "method,n,m,l,verified",
        [
            ("level", 16, 5, 5, True),
            ("bicolor", 16, 5, 6, True),
            ("fourcolor", 16, 4, 6, True),
            ("product", 16, 4, 8, True),
            ("auto", 14, 3, 9, True),
            ("product", 18, 6, 12, False),
        ],
    )
    def test_certify_sizes_stay_under_the_default_cap(self, method, n, m, l, verified):
        if method == "auto":
            method = constructions.choose_method(n, m, l)
        counts = constructions.method_counts(n, m, l)
        assert counts[method] * (l - m + 1) <= cli.DEFAULT_MAX_LATTICE_NODES
        if verified:
            assert TruncatedLattice(n, m, l).node_count <= cli.DEFAULT_MAX_LATTICE_NODES


@st.composite
def chain_families(draw):
    """``(n, m, l, chains)`` for a cutset file over B_n(m, l) with n <= 6.

    Each chain is saturated: the prefixes of sizes lo..hi of a permutation
    of [n].  Half the families are disjoint chains with every bottom on
    level m, which prove their width; the others start anywhere.  Then at
    most one fault goes in: a node put into a second chain, a node above a
    bottom added as a chain of its own, or the singleton chains of a
    comparable pair.
    """
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, n))
    l = draw(st.integers(m, n))
    disjoint = draw(st.booleans())
    fault = draw(st.sampled_from([None, "shared", "above", "pair"]))

    def prefixes(lo, hi):
        order = draw(st.permutations(range(1, n + 1)))
        return [sorted(order[:i]) for i in range(lo, hi + 1)]

    chains, used = [], set()
    for _ in range(draw(st.integers(0, 16))):
        lo = m if disjoint else draw(st.integers(m, l))
        chain = prefixes(lo, draw(st.integers(lo, l)))
        nodes = {tuple(x) for x in chain}
        if not (disjoint and nodes & used):
            used |= nodes
            chains.append(chain)
    bottoms = [ch[0] for ch in chains if len(ch[0]) < l]
    if fault == "shared" and chains:
        chains.append([draw(st.sampled_from(draw(st.sampled_from(chains))))])
    elif fault == "above" and bottoms:
        b = draw(st.sampled_from(bottoms))
        e = draw(st.sampled_from([x for x in range(1, n + 1) if x not in b]))
        chains.append([sorted([*b, e])])
    elif fault == "pair" and m < l:
        low, *_, high = prefixes(m, draw(st.integers(m + 1, l)))
        chains += [[low], [high]]
    return n, m, l, chains


class TestVerify:
    def _construct(self, capsys, tmp_path, n, m, l, method="auto"):
        path = tmp_path / f"cut_{n}_{m}_{l}.json"
        code, _, _ = run(
            capsys, "construct", "--n", str(n), "--m", str(m), "--l", str(l),
            "--method", method, "--out", str(path),
        )
        assert code == 0
        return path

    def test_product_round_trip(self, capsys, tmp_path):
        path = self._construct(capsys, tmp_path, 4, 1, 2, "product")
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert json.loads(out) == {
            "is_cutset": True,
            "width": 3,
            "antichain_size": 3,
            "chain_cover_size": 3,
        }

    @pytest.mark.parametrize(
        "n,m,l,method",
        [
            (5, 2, 2, "level"),
            (7, 3, 4, "bicolor"),
            (8, 3, 5, "fourcolor"),
            (9, 2, 5, "product"),
            (12, 4, 8, "product"),
            (12, 5, 6, "bicolor"),
            (12, 5, 7, "fourcolor"),
            (12, 6, 6, "level"),
        ],
    )
    def test_round_trip_across_builders(self, capsys, tmp_path, n, m, l, method):
        path = self._construct(capsys, tmp_path, n, m, l, method)
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0 and json.loads(out)["is_cutset"] is True

    @given(chain_families())
    @example((2, 1, 1, [[[1]], [[1]]]))  # one node in two chains: width 1, not 2
    @example((2, 1, 2, [[[1]], [[1, 2]]]))  # comparable bottoms: width 1, not 2
    @settings(max_examples=150, deadline=None)
    def test_width_matches_the_matching(self, family):
        n, m, l, chains = family
        data = {"format": 1, "n": n, "m": m, "l": l, "chains": chains}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cut.json")
            with open(path, "w") as f:
                json.dump(data, f)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["verify", path])
        got = json.loads(out.getvalue())
        cut = Cutset.from_json(data)
        want = analysis.width(cut.nodes())
        assert (got["width"], got["antichain_size"], got["chain_cover_size"]) == (
            want.width, len(want.antichain_witness), len(want.chain_cover)
        )
        assert code == (0 if analysis.is_cutset(cut.lat, cut.nodes()).is_cutset else 3)

    def test_construct_and_verify_build_no_object_per_node(
        self, capsys, tmp_path, monkeypatch
    ):
        # Both commands keep a cutset as bit vectors, so their memory does
        # not grow by an object per node of the cutset or of its lattice.
        def refuse(self):
            raise AssertionError(f"built a {type(self).__name__}")

        monkeypatch.setattr(boolcut.lattice.NodeSet, "__post_init__", refuse)
        monkeypatch.setattr(boolcut.chains.Chain, "__post_init__", refuse)
        path = self._construct(capsys, tmp_path, 9, 2, 5, "product")
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0 and json.loads(out)["is_cutset"] is True

    def test_width_matching_runs_only_without_a_certificate(
        self, capsys, tmp_path, monkeypatch
    ):
        calls = []
        width = analysis.width
        monkeypatch.setattr(analysis, "width", lambda nodes: calls.append(1) or width(nodes))
        path = self._construct(capsys, tmp_path, 9, 2, 5, "product")
        code, _, _ = run(capsys, "verify", str(path))
        assert code == 0 and calls == []
        # The search witness holds {1} and {1, 5}, each a singleton chain.
        path.write_text(json.dumps(GOLDEN_SEARCH_JSON["witness"]))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0 and json.loads(out)["width"] == 4 and calls == [1]

    def test_matching_above_the_limit_exits_2_at_once(self, capsys, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(analysis, "width", lambda nodes: calls.append(1))
        monkeypatch.setattr(analysis, "is_cutset", lambda lat, nodes: calls.append(1))
        monkeypatch.setattr(cli, "MAX_MATCHED_NODES", 7)
        # Eight singleton chains with comparable bottoms: no certificate.
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(GOLDEN_SEARCH_JSON["witness"]))
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out, calls) == (2, "", [])
        assert "8 nodes is above the limit of 7" in err
        monkeypatch.undo()
        monkeypatch.setattr(cli, "MAX_MATCHED_NODES", 8)
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0 and json.loads(out)["width"] == 4
        # A file whose chains prove the width needs no matching, whatever its size.
        monkeypatch.setattr(cli, "MAX_MATCHED_NODES", 0)
        code, _, _ = run(capsys, "verify", str(self._construct(capsys, tmp_path, 9, 2, 5)))
        assert code == 0

    def test_n18_construction_verifies(self, capsys, tmp_path):
        # 9996 chains and 50,138 nodes; the matching alone ran for minutes.
        path = self._construct(capsys, tmp_path, 18, 6, 12)
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0 and json.loads(out)["width"] == formulas.delta(18, 6) == 9996
        # The same nodes as singleton chains prove nothing, and are too many to match.
        data = json.loads(path.read_text())
        data["chains"] = [[node] for ch in data["chains"] for node in ch]
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (2, "") and "50138 nodes" in err

    def test_empty_cutset_exits_3_with_missed_chain(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"format": 1, "n": 4, "m": 1, "l": 2, "chains": []}))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 3
        assert json.loads(out)["missed_chain"] == [[1], [1, 2]]

    def test_node_outside_levels_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"format": 1, "n": 4, "m": 1, "l": 2, "chains": [[[1, 2, 3]]]})
        )
        code, _, _ = run(capsys, "verify", str(path))
        assert code == 2

    @pytest.mark.parametrize(
        "overrides",
        [
            {"format": True},
            {"format": 1.0},
            {"n": 4.9},
            {"n": 4.0},
            {"m": True},
            {"l": "2"},
            {"chains": [[[3, 3]]]},
            {"chains": [[[3, 1]]]},
            {"chains": [[[True]]]},
            {"n": 4.9, "m": True, "chains": [[[3, 3]]]},
        ],
    )
    def test_loose_cutset_json_exits_2(self, capsys, tmp_path, overrides):
        data = {"format": 1, "n": 4, "m": 1, "l": 2, "chains": [[[3], [1, 3]]], **overrides}
        path = tmp_path / "loose.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2 and err.startswith("error:")

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, "verify", str(path))
        assert code == 2

    @pytest.mark.parametrize(
        "content", [b"\xff\xfe{}", b'{"a":' * 100_000], ids=["not-utf-8", "deeply-nested"]
    )
    def test_unreadable_json_exits_2(self, capsys, tmp_path, content):
        path = tmp_path / "cut.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read cutset JSON: ")

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "verify", str(tmp_path / "absent.json"))
        assert code == 2

    def test_oversize_lattice_exits_2_at_once(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(
            {"format": 1, "n": 40, "m": 10, "l": 20, "chains": [[list(range(1, 11))]]}
        ))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2 and out == ""
        assert err.startswith(
            "error: the lattice B_40(10, 20) has 618305492694 nodes, "
            "above --max-lattice-nodes 250000"
        )

    @pytest.mark.parametrize("cap,code", [("9", 2), ("10", 0)])
    def test_size_cap_override(self, capsys, tmp_path, cap, code):
        path = self._construct(capsys, tmp_path, 4, 1, 2, "product")  # 4 + 6 lattice nodes
        got, _, _ = run(capsys, "verify", str(path), "--max-lattice-nodes", cap)
        assert got == code


class TestSearch:
    def test_h_anchor(self, capsys):
        code, out, _ = run(capsys, "search", "--n", "4", "--m", "1", "--l", "3")
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "EXACT" and data["value"] == 3
        assert data["witness"]["format"] == 1

    def test_g_target(self, capsys):
        code, out, _ = run(
            capsys, "search", "--n", "4", "--m", "1", "--l", "2", "--target", "g"
        )
        assert code == 0 and json.loads(out)["value"] == 3

    def test_oversize_exits_2(self, capsys):
        code, _, _ = run(capsys, "search", "--n", "20", "--m", "5", "--l", "10")
        assert code == 2

    def test_cap_override(self, capsys):
        code, out, _ = run(
            capsys, "search", "--n", "6", "--m", "1", "--l", "3",
            "--max-lattice-nodes", "100", "--target", "g",
        )
        assert code == 0 and json.loads(out)["value"] == 5

    @pytest.mark.parametrize(
        "flag,value", [("--time-limit", "nan"), ("--time-limit", "0"), ("--max-nodes", "0")]
    )
    def test_invalid_budget_exits_2(self, capsys, flag, value):
        code, _, err = run(capsys, "search", "--n", "4", "--m", "1", "--l", "2", flag, value)
        assert code == 2 and err.startswith("error:")

    def test_exhausted_budget_exits_4(self, capsys):
        code, out, _ = run(
            capsys, "search", "--n", "4", "--m", "0", "--l", "2", "--max-nodes", "1"
        )
        assert code == 4 and json.loads(out)["status"] == "UNKNOWN"

    def test_h_6_1_4_settles_at_the_sweep_budget(self, capsys):
        # The conjectured Delta_6(1) = 5; the node count is pinned by the
        # search counts digest in test_golden.py.
        code, out, _ = run(
            capsys, "search", "--n", "6", "--m", "1", "--l", "4",
            "--max-nodes", "50000", "--time-limit", "3600",
        )
        data = json.loads(out)
        assert code == 0 and data["status"] == "EXACT" and data["value"] == 5


@pytest.mark.usefixtures("no_worker_outlives_the_test")
class TestReport:
    def test_five_rows_for_small_range(self, capsys):
        code, out, _ = run(
            capsys, "report", "--n-min", "3", "--n-max", "4", "--m-min", "1", "--m-max", "1"
        )
        assert code == 0
        lines = out.strip().splitlines()
        header, rows = lines[0], lines[1:]
        assert header == "n,m,l,c,conjectured_h,g_formula,construction_count,searched_h,searched_g,flags"
        assert len(rows) == 5
        assert "4,1,2,2,3,3,3,3,3,h=conj;g=h;constr=conj" in rows

    def test_bad_range_exits_2(self, capsys):
        code, _, _ = run(capsys, "report", "--n-min", "5", "--n-max", "3")
        assert code == 2

    def test_range_past_the_ground_cap_exits_2_before_writing(self, capsys, tmp_path):
        path = tmp_path / "r.csv"
        code, _, err = run(
            capsys, "report", "--n-min", "64", "--n-max", "65", "--m-min", "0",
            "--m-max", "1", "--out", str(path),
        )
        assert code == 2 and "65" in err
        assert not path.exists()

    @pytest.mark.parametrize(
        "wide, tight",
        [
            (["--n-min", "3", "--n-max", "4", "--m-max", "1000000000"],
             ["--n-min", "3", "--n-max", "4", "--m-max", "2"]),
            (["--n-min", "-1000000000", "--n-max", "4", "--m-min", "1"],
             ["--n-min", "2", "--n-max", "4", "--m-min", "1"]),
        ],
    )
    def test_bounds_past_every_instance_cost_nothing(self, wide, tight):
        # Only 0 <= 2m <= n gives an instance, so a range that reaches a
        # billion values past the instances ends at once, with the rows of
        # the range that holds just them.
        out = [
            subprocess.run(
                [sys.executable, "-m", "boolcut.cli", "report", *argv],
                env=_python_env(),
                capture_output=True,
                check=True,
                timeout=60,
            ).stdout
            for argv in (wide, tight)
        ]
        assert out[0] == out[1]
        assert out[0].count(b"\n") > 1

    def test_tiny_budget_reports_unknown_but_exits_0(self, capsys):
        code, out, _ = run(
            capsys, "report", "--n-min", "4", "--n-max", "4", "--m-min", "0",
            "--m-max", "0", "--max-nodes", "1",
        )
        assert code == 0
        assert any("UNKNOWN" in line for line in out.splitlines()[1:])

    @pytest.mark.parametrize("broken", ["h_above_construction", "g_above_h"])
    def test_sandwich_violation_raises(self, monkeypatch, broken):
        # h and g run in separate workers, so the g worker searches h itself.
        real = search.exact_search

        def exact(result, value):
            return SearchResult(
                result.status, value, value, value, result.witness, result.nodes_expanded,
                result.prunes, result.elapsed,
            )

        def violating(target, n, m, l, budget, node_cap):
            result = real(target, n, m, l, budget, node_cap=node_cap)
            if broken == "g_above_h" and target == "g":
                h = real("h", n, m, l, budget, node_cap=node_cap).value
                return exact(result, h + 1)
            if broken == "h_above_construction" and target == "h":
                return exact(result, min(constructions.method_counts(n, m, l).values()) + 1)
            return result

        monkeypatch.setattr(search, "exact_search", violating)
        with pytest.raises(InternalError, match="g <= h <= construction fails"):
            main(["report", "--n-min", "4", "--n-max", "4", "--m-min", "1", "--m-max", "1"])

    def test_worker_internal_error_reaches_main(self, monkeypatch):
        real = analysis.width

        def off_by_one(nodes):
            rep = real(nodes)
            return WidthReport(rep.width + 1, rep.antichain_witness, rep.chain_cover)

        monkeypatch.setattr(analysis, "width", off_by_one)
        with pytest.raises(InternalError, match="failed re-verification"):
            main(["report", "--n-min", "4", "--n-max", "4", "--m-min", "1", "--m-max", "1"])

    def test_closing_the_rows_stops_the_workers(self, monkeypatch, tmp_path):
        # With four CPUs the searches of (3, 0, 1) start beside those of
        # (3, 0, 0) and stall.  The worker freed by h(3, 0, 0) may take
        # h(3, 0, 2) before g(3, 0, 0) is done, so two or three searches stall.  The
        # rows are closed once two have, and closing must end every one of
        # them.  The class fixture checks the same.
        real = search.exact_search
        stalled = tmp_path / "stalled"
        stalled.touch()

        def stalls_after_3_0_0(target, n, m, l, budget, node_cap):
            if (n, m, l) != (3, 0, 0):
                with open(stalled, "a") as f:
                    f.write(f"{os.getpid()}\n")
                time.sleep(600)
            return real(target, n, m, l, budget, node_cap=node_cap)

        monkeypatch.setattr(search, "exact_search", stalls_after_3_0_0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        rows = report_rows(range(3, 13), range(0, 33), SearchBudget(50_000, 3600.0), 64)
        try:
            assert next(rows)[:3] == ["3", "0", "0"]
            deadline = time.monotonic() + 10
            while len(stalled.read_text().split()) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert len(stalled.read_text().split()) >= 2
        finally:
            rows.close()
        workers = [int(pid) for pid in stalled.read_text().split()]
        assert not any(map(_running, workers))

    def test_workers_serve_many_searches(self, monkeypatch, tmp_path):
        # Each worker is forked once and runs one search after another, so the
        # 86 searches of n = 3..6 (h and g of 43 instances) run in no more
        # processes than there are usable CPUs.
        real = search.exact_search
        pids = tmp_path / "pids"
        pids.touch()

        def noting_the_pid(target, n, m, l, budget, node_cap):
            with open(pids, "a") as f:
                f.write(f"{os.getpid()}\n")
            return real(target, n, m, l, budget, node_cap=node_cap)

        monkeypatch.setattr(search, "exact_search", noting_the_pid)
        out = str(tmp_path / "r.csv")
        assert main(["report", "--n-min", "3", "--n-max", "6", "--out", out]) == 0
        searches = pids.read_text().split()
        assert len(searches) == 86
        assert len(set(searches)) <= len(os.sched_getaffinity(0))

    def test_worker_that_dies_without_a_result_raises(self, monkeypatch):
        # As when a worker is killed from outside, say by the OOM killer.
        real = search.exact_search

        def dies_on_g_4_1_2(target, n, m, l, budget, node_cap):
            if (target, n, m, l) == ("g", 4, 1, 2):
                os._exit(1)
            return real(target, n, m, l, budget, node_cap=node_cap)

        monkeypatch.setattr(search, "exact_search", dies_on_g_4_1_2)
        message = "the g search worker for n=4 m=1 l=2 exited with code 1 and sent no result"
        with pytest.raises(InternalError, match=message):
            main(["report", "--n-min", "3", "--n-max", "4", "--m-min", "1", "--m-max", "1"])

    def test_worker_errors_are_raised_in_row_order(self, monkeypatch):
        # Every later search fails first; the report still raises the error
        # of the first one, with the worker's traceback as its cause.
        def fails_on_3_1(target, n, m, l, budget, node_cap):
            if (target, l) == ("h", 1):
                time.sleep(0.5)
            raise InternalError(f"planted in {target} at l={l}")

        monkeypatch.setattr(search, "exact_search", fails_on_3_1)
        with pytest.raises(InternalError, match="planted in h at l=1") as exc:
            main(["report", "--n-min", "3", "--n-max", "3", "--m-min", "1", "--m-max", "1"])
        assert "in fails_on_3_1" in str(exc.value.__cause__)

    def test_golden_stability(self, capsys):
        _, out, _ = run(
            capsys, "report", "--n-min", "3", "--n-max", "4", "--m-min", "0", "--m-max", "2"
        )
        assert out == GOLDEN_REPORT_CSV
        for target, golden in (("h", GOLDEN_SEARCH_JSON), ("g", GOLDEN_SEARCH_G_JSON)):
            _, out, _ = run(
                capsys, "search", "--n", "5", "--m", "1", "--l", "4", "--target", target
            )
            data = json.loads(out)
            del data["stats"]["elapsed_seconds"]
            assert data == golden


class TestIdentities:
    def test_csv_and_all_pass(self, capsys):
        code, out, _ = run(capsys, "identities", "--max-n", "12", "--max-m", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "identity,n,m,lhs,rhs,pass"
        assert lines[1:]
        assert all(line.endswith(",true") for line in lines[1:])

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "identities.csv"
        code, _, _ = run(
            capsys, "identities", "--max-n", "6", "--max-m", "2", "--out", str(path)
        )
        assert code == 0
        assert path.read_text().startswith("identity,n,m,lhs,rhs,pass\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--n", "4", "--m", "1", "--l", "2"],
        ["report", "--n-min", "3", "--n-max", "3", "--m-max", "0"],
        ["identities", "--max-n", "4", "--max-m", "1"],
    ],
)
def test_unwritable_out_exits_2(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "f"
    code, _, err = run(capsys, *argv, "--out", str(path))
    assert code == 2
    assert err.startswith(f"error: cannot write {path}: ")
    assert "Traceback" not in err
    assert not path.parent.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--n", "4", "--m", "1", "--l", "2"],
        ["verify", "cut.json"],
        ["search", "--n", "4", "--m", "1", "--l", "2"],
        ["report", "--n-min", "3", "--n-max", "3"],
    ],
)
def test_negative_lattice_cap_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--max-lattice-nodes", "-5"])
    assert exc.value.code == 2
    assert "--max-lattice-nodes: must be at least 0, got -5" in capsys.readouterr().err


def _python_env():
    """The environment for a Python subprocess that imports this boolcut."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


# Runs `cli.main(sys.argv[1:])` and prints, as its last line, its exit code,
# the boolcut modules loaded and which of dataclasses, inspect and
# multiprocessing are.
_MAIN_THEN_MODULES = """
import json, sys
from boolcut import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
loaded = sorted(name for name in sys.modules if name.partition(".")[0] == "boolcut")
heavy = [name for name in ("dataclasses", "inspect", "multiprocessing") if name in sys.modules]
print(json.dumps([code, loaded, heavy]))
"""

_CLI_ONLY = ["boolcut", "boolcut.cli", "boolcut.defaults", "boolcut.errors"]
_CONSTRUCT = sorted(
    [
        *_CLI_ONLY,
        "boolcut.chains",
        "boolcut.constructions",
        "boolcut.formulas",
        "boolcut.lattice",
        "boolcut.records",
    ]
)
_SEARCH = sorted([*_CONSTRUCT, "boolcut.analysis", "boolcut.search"])


def test_importing_the_cli_imports_no_process_pool(tmp_path):
    # construct, verify and search never start workers, so they must not pay
    # for the multiprocessing modules at start-up.
    out = subprocess.run(
        [sys.executable, "-c", "import sys, boolcut.cli; print('multiprocessing' in sys.modules)"],
        env=_python_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "False\n"
    # Each command loads the library modules it runs and no others: the help
    # and a bad argument none, construct no analysis, verify no search and
    # only report its workers' module and multiprocessing.  None loads
    # dataclasses or inspect.
    cutset = str(tmp_path / "cutset.json")
    for argv, code, modules, heavy in [
        (["--help"], 0, _CLI_ONLY, []),
        (["search", "--help"], 0, _CLI_ONLY, []),
        (["search", "--n", "six"], 2, _CLI_ONLY, []),
        (["construct", "--n", "6", "--m", "1", "--l", "3", "--out", cutset], 0, _CONSTRUCT, []),
        (["verify", cutset], 0, sorted([*_CONSTRUCT, "boolcut.analysis"]), []),
        (["search", "--n", "4", "--m", "1", "--l", "2"], 0, _SEARCH, []),
        (
            ["report", "--n-min", "3", "--n-max", "3"],
            0,
            sorted([*_SEARCH, "boolcut.report"]),
            ["multiprocessing"],
        ),
    ]:
        out = subprocess.run(
            [sys.executable, "-c", _MAIN_THEN_MODULES, *argv],
            env=_python_env(),
            capture_output=True,
            text=True,
            check=True,
        )
        last = json.loads(out.stdout.splitlines()[-1])
        assert last == [code, modules, heavy], argv


_PUBLIC_NAMES = [
    "Chain", "ChainPartition", "ConjectureReport", "Cutset", "CutsetReport", "DomainError",
    "IdentityCheck", "InternalError", "NodeSet", "SearchBudget", "SearchResult", "SearchStatus",
    "TruncatedLattice", "WidthReport", "analysis", "binomial", "bounded_chain_partition",
    "chains", "check_identities", "check_index_monotonicity", "choose_method",
    "conjecture_report", "conjectured_min_width", "constructions", "cutset_auto",
    "cutset_bicolor", "cutset_fourcolor", "cutset_level", "cutset_product", "delta", "errors",
    "exact_min_per_level", "exact_min_width", "formulas", "is_antichain", "is_cutset",
    "lattice", "level_masks", "level_nodes", "method_counts", "per_level_bound_value",
    "search", "start_level_counts", "symmetric_per_level_bound", "width",
]

_NAMESPACE = """
import importlib, json, sys, types

def fresh():
    for name in [name for name in sys.modules if name.partition(".")[0] == "boolcut"]:
        del sys.modules[name]
    return importlib.import_module("boolcut")

boolcut = fresh()
loaded = sorted(name for name in sys.modules if name.partition(".")[0] == "boolcut")
public = sorted(name for name in dir(boolcut) if not name.startswith("_"))
# Each name is resolved first thing in a package of its own, since resolving
# one name imports modules that later ones might otherwise rely on.
modules = [name for name in public if isinstance(getattr(fresh(), name), types.ModuleType)]
boolcut = fresh()
star = {}
exec("from boolcut import *", star)
del star["__builtins__"]
try:
    boolcut.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({
    "loaded": loaded,
    "dir": public,
    "star": sorted(star),
    "modules": modules,
    "version": boolcut.__version__,
    "unknown": unknown,
}))
"""


def test_the_package_namespace_is_kept():
    # `import boolcut` loads none of its modules: each public name, a module
    # among them, resolves on first use.  These are the names the package
    # bound when it still imported every module at once.
    out = subprocess.run(
        [sys.executable, "-c", _NAMESPACE],
        env=_python_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(out.stdout) == {
        "loaded": ["boolcut"],
        "dir": _PUBLIC_NAMES,
        "star": _PUBLIC_NAMES,
        "modules": ["analysis", "chains", "constructions", "errors", "formulas", "lattice", "search"],
        "version": "0.1.0",
        "unknown": "module 'boolcut' has no attribute 'no_such_name'",
    }


_AUDITED_REPORT = """
import os, sys
from boolcut import SearchBudget
from boolcut.report import report_rows

parent = os.getpid()

def hook(event, args):
    if event == "import" and os.getpid() != parent:
        os.write(2, b"a worker imported %s\\n" % args[0].encode())

sys.addaudithook(hook)  # the workers, forked for the first row, inherit it
print(len(list(report_rows(range(3, 5), range(0, 2), SearchBudget(100, 60.0), 64))))
"""


def test_a_worker_whose_search_succeeds_imports_nothing():
    # A worker is forked once and runs many searches on the modules that the
    # parent had imported; a failed search alone imports traceback.  The
    # hook skips the parent, which imports multiprocessing for the workers.
    out = subprocess.run(
        [sys.executable, "-c", _AUDITED_REPORT],
        env=_python_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert (out.stdout, out.stderr) == ("14\n", "")


_STALLED_REPORT = """
import os, sys, time
from boolcut import SearchBudget, search
from boolcut.report import report_rows

def stall(target, n, m, l, budget, node_cap):
    os.write(2, b"%d\\n" % os.getpid())  # one write, whole even when workers race
    time.sleep(600)

search.exact_search = stall
list(report_rows(range(3, 5), range(0, 3), SearchBudget(10, 1.0), 64))
"""


def _running(pid):
    """Whether the process is alive: neither gone nor a zombie left unreaped."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_workers_exit_when_report_is_killed():
    # A SIGKILL runs no cleanup in the parent, so each worker must notice on
    # its own that the parent is gone.  The stalled report has 15 instances,
    # so 30 searches.
    proc = subprocess.Popen(
        [sys.executable, "-c", _STALLED_REPORT],
        env=_python_env(),
        stderr=subprocess.PIPE,
        text=True,
    )
    workers = []
    try:
        for _ in range(min(len(os.sched_getaffinity(0)), 30)):
            workers.append(int(proc.stderr.readline()))
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    try:
        deadline = time.monotonic() + 10
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, workers))
    finally:
        for pid in filter(_running, workers):
            os.kill(pid, signal.SIGKILL)


_MAIN_THEN_CHECK_WORKERS = """
import multiprocessing, sys
from boolcut import cli

code = cli.main(sys.argv[1:])
if multiprocessing.active_children():
    sys.exit("a search worker outlived the command")
sys.exit(code)
"""


@pytest.mark.parametrize(
    "argv,lines_read",
    [
        # As `boolcut report ... | head -1`: the report writes its header,
        # then finds the pipe closed at a later write.
        (["report", "--n-min", "3", "--n-max", "5"], 1),
        # As `boolcut search ... | true`: the pipe is closed at the first write.
        (["search", "--n", "4", "--m", "1", "--l", "2"], 0),
    ],
)
def test_reader_closing_stdout_ends_the_command_quietly(argv, lines_read):
    # Stdout is block-buffered, as it is for a user, so output is still
    # buffered when the command ends.
    env = _python_env()
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-c", _MAIN_THEN_CHECK_WORKERS, *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    for _ in range(lines_read):
        assert proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, "")


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
