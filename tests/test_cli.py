import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

from boolcut import (
    InternalError,
    SearchBudget,
    TruncatedLattice,
    analysis,
    cli,
    constructions,
    search,
)
from boolcut.cli import main, report_rows


# Recorded output of `report --n-min 3 --n-max 4 --m-min 0 --m-max 2` and of
# `search --n 5 --m 1 --l 4` with `--target h` and `--target g` (minus the
# elapsed time): the CLI contract is byte-for-byte stable, node counts included.
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
        "nodes_expanded": 6435,
        "prunes": {"objective": 5307, "chain_bound": 1818, "memo": 1667},
        "memo_peak": 4576,
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
        "nodes_expanded": 93,
        "prunes": {"objective": 29, "chain_bound": 44, "memo": 16},
        "memo_peak": 56,
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
        assert cli._construction_size(n, m, l, method) <= cli.DEFAULT_MAX_LATTICE_NODES
        if verified:
            assert TruncatedLattice(n, m, l).node_count <= cli.DEFAULT_MAX_LATTICE_NODES


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
            capsys, "search", "--n", "4", "--m", "1", "--l", "2", "--max-nodes", "1"
        )
        assert code == 4 and json.loads(out)["status"] == "UNKNOWN"


class TestReport:
    @pytest.fixture(autouse=True)
    def no_worker_outlives_the_test(self):
        """The searches run in worker processes; every report test, whether it
        succeeds, exits 2 or raises, must leave none of them running."""
        yield
        assert multiprocessing.active_children() == []

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

    def test_tiny_budget_reports_unknown_but_exits_0(self, capsys):
        code, out, _ = run(
            capsys, "report", "--n-min", "4", "--n-max", "4", "--m-min", "1",
            "--m-max", "1", "--max-nodes", "1",
        )
        assert code == 0
        assert any("UNKNOWN" in line for line in out.splitlines()[1:])

    @pytest.mark.parametrize("broken", ["h_above_construction", "g_above_h"])
    def test_sandwich_violation_raises(self, monkeypatch, broken):
        real = search.conjecture_report

        def exact(result, value):
            return dataclasses.replace(result, value=value, lower=value, upper=value)

        def violating(*args, **kwargs):
            rep = real(*args, **kwargs)
            h = rep.searched_h.value
            if broken == "g_above_h":
                return dataclasses.replace(rep, searched_g=exact(rep.searched_g, h + 1))
            upper = rep.construction_upper_bound
            return dataclasses.replace(rep, searched_h=exact(rep.searched_h, upper + 1))

        monkeypatch.setattr(search, "conjecture_report", violating)
        with pytest.raises(InternalError, match="g <= h <= construction fails"):
            main(["report", "--n-min", "4", "--n-max", "4", "--m-min", "1", "--m-max", "1"])

    def test_worker_internal_error_reaches_main(self, monkeypatch):
        real = analysis.width

        def off_by_one(nodes):
            rep = real(nodes)
            return dataclasses.replace(rep, width=rep.width + 1)

        monkeypatch.setattr(analysis, "width", off_by_one)
        with pytest.raises(InternalError, match="failed re-verification"):
            main(["report", "--n-min", "4", "--n-max", "4", "--m-min", "1", "--m-max", "1"])

    def test_closing_the_rows_stops_the_workers(self, monkeypatch):
        # Every later search is still running when the rows are closed; the
        # class fixture checks that closing stopped them.
        real = search.conjecture_report

        def stalls_after_3_0_0(n, m, l, budget, node_cap):
            if (n, m, l) != (3, 0, 0):
                time.sleep(600)
            return real(n, m, l, budget, node_cap=node_cap)

        monkeypatch.setattr(search, "conjecture_report", stalls_after_3_0_0)
        rows = report_rows(range(3, 13), range(0, 33), SearchBudget(50_000, 3600.0), 64)
        assert next(rows)[:3] == ["3", "0", "0"]
        rows.close()

    def test_worker_that_dies_without_a_result_raises(self, monkeypatch):
        # As when a worker is killed from outside, say by the OOM killer.
        real = search.conjecture_report

        def dies_on_4_1_2(n, m, l, budget, node_cap):
            if (n, m, l) == (4, 1, 2):
                os._exit(1)
            return real(n, m, l, budget, node_cap=node_cap)

        monkeypatch.setattr(search, "conjecture_report", dies_on_4_1_2)
        message = "n=4 m=1 l=2 exited with code 1 and sent no result"
        with pytest.raises(InternalError, match=message):
            main(["report", "--n-min", "3", "--n-max", "4", "--m-min", "1", "--m-max", "1"])

    def test_worker_errors_are_raised_in_row_order(self, monkeypatch):
        # The later instance fails first; the report still raises the error
        # of the earlier one, with the worker's traceback as its cause.
        def fails_on_3_1(n, m, l, budget, node_cap):
            if l == 1:
                time.sleep(0.5)
            raise InternalError(f"planted at l={l}")

        monkeypatch.setattr(search, "conjecture_report", fails_on_3_1)
        with pytest.raises(InternalError, match="planted at l=1") as exc:
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


def _python_env():
    """The environment for a Python subprocess that imports this boolcut."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_importing_the_cli_imports_no_process_pool():
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


_STALLED_REPORT = """
import os, sys, time
from boolcut import SearchBudget, cli, search

def stall(n, m, l, budget, node_cap):
    os.write(2, b"%d\\n" % os.getpid())  # one write, whole even when workers race
    time.sleep(600)

search.conjecture_report = stall
list(cli.report_rows(range(3, 5), range(0, 3), SearchBudget(10, 1.0), 64))
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
    # its own that the parent is gone.  The stalled report has 15 instances.
    proc = subprocess.Popen(
        [sys.executable, "-c", _STALLED_REPORT],
        env=_python_env(),
        stderr=subprocess.PIPE,
        text=True,
    )
    workers = []
    try:
        for _ in range(min(len(os.sched_getaffinity(0)), 15)):
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


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
