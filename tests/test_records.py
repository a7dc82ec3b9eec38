"""The behaviour of the library's records, pinned class by class.

Every record is a frozen value: its ``repr`` text, ``==`` and ``hash`` over
its fields in order, construction by position, keyword and default, the
errors of its field checks, refusal of assignment and deletion, and a
``pickle`` round trip.
"""

import ast
import pickle
from pathlib import Path

import pytest

import boolcut
from boolcut import (
    Chain,
    ChainPartition,
    ConjectureReport,
    Cutset,
    CutsetReport,
    DomainError,
    IdentityCheck,
    NodeSet,
    SearchBudget,
    SearchResult,
    SearchStatus,
    TruncatedLattice,
    WidthReport,
)
from boolcut.defaults import MAX_NODES_EXPANDED, WALL_CLOCK_LIMIT


def _result(value=2, prunes=None):
    return SearchResult(
        SearchStatus.EXACT, value, value, value,
        Cutset(TruncatedLattice(3, 1, 2), ((1,), (2,), (5,), (6,))), 6,
        {"objective": 1, "chain_bound": 1, "excluded": 1} if prunes is None else prunes, 0.5,
    )


def _report(c=2):
    return ConjectureReport(
        3, 1, 2, c, 2, _result(), _result(), 2, 1,
        {"h_matches_conjectured": True, "g_matches_h": True},
    )


# (build, build of a record that differs in one field, the repr text)
RECORDS = {
    "NodeSet": (lambda: NodeSet(5, 4), lambda: NodeSet(5, 5), "{1,3}"),
    "TruncatedLattice": (
        lambda: TruncatedLattice(4, 1, 2),
        lambda: TruncatedLattice(4, 1, 3),
        "TruncatedLattice(n=4, m=1, l=2)",
    ),
    "Chain": (
        lambda: Chain((NodeSet(1, 3), NodeSet(3, 3))),
        lambda: Chain((NodeSet(1, 3), NodeSet(5, 3))),
        "Chain(nodes=({1}, {1,2}))",
    ),
    "ChainPartition": (
        lambda: ChainPartition.from_masks([(0, 1, 3), (2,)], 2, 3),
        lambda: ChainPartition.from_masks([(0, 1, 3), (2,)], 2, 4),
        "ChainPartition(chain_masks=((0, 1, 3), (2,)), k=2, c=3)",
    ),
    "Cutset": (
        lambda: Cutset(TruncatedLattice(4, 1, 2), ((1, 3), (2, 6))),
        lambda: Cutset(TruncatedLattice(4, 1, 2), ((1, 3), (2, 10))),
        "Cutset(lat=TruncatedLattice(n=4, m=1, l=2), chain_masks=((1, 3), (2, 6)))",
    ),
    "WidthReport": (
        lambda: WidthReport(2, (NodeSet(1, 3), NodeSet(2, 3)), ((NodeSet(1, 3),), (NodeSet(2, 3),))),
        lambda: WidthReport(3, (NodeSet(1, 3), NodeSet(2, 3)), ((NodeSet(1, 3),), (NodeSet(2, 3),))),
        "WidthReport(width=2, antichain_witness=({1}, {2}), chain_cover=(({1},), ({2},)))",
    ),
    "CutsetReport": (
        lambda: CutsetReport(False, Chain((NodeSet(1, 3), NodeSet(3, 3)))),
        lambda: CutsetReport(True, Chain((NodeSet(1, 3), NodeSet(3, 3)))),
        "CutsetReport(is_cutset=False, missed_chain=Chain(nodes=({1}, {1,2})))",
    ),
    "IdentityCheck": (
        lambda: IdentityCheck("lift_count", 4, 1, 3, 3, True),
        lambda: IdentityCheck("lift_count", 4, 1, 3, 3, False),
        "IdentityCheck(identity='lift_count', n=4, m=1, lhs=3, rhs=3, ok=True)",
    ),
    "SearchBudget": (
        lambda: SearchBudget(),
        lambda: SearchBudget(wall_clock_limit=1.0),
        "SearchBudget(max_nodes_expanded=2000000, wall_clock_limit=120.0)",
    ),
    "SearchResult": (
        _result,
        lambda: _result(prunes={"objective": 0, "chain_bound": 1, "excluded": 1}),
        "SearchResult(status=<SearchStatus.EXACT: 'EXACT'>, value=2, lower=2, upper=2, "
        "witness=Cutset(lat=TruncatedLattice(n=3, m=1, l=2), "
        "chain_masks=((1,), (2,), (5,), (6,))), nodes_expanded=6, "
        "prunes={'objective': 1, 'chain_bound': 1, 'excluded': 1}, elapsed=0.5)",
    ),
    "ConjectureReport": (
        _report,
        lambda: _report(c=3),
        "ConjectureReport(n=3, m=1, l=2, c=2, conjectured_h=2, searched_h={r}, "
        "searched_g={r}, construction_upper_bound=2, symmetric_g_value=1, "
        "equal_flags={'h_matches_conjectured': True, 'g_matches_h': True})",
    ),
}

# The fields of each record, in order.
FIELDS = {
    "NodeSet": ("bits", "n"),
    "TruncatedLattice": ("n", "m", "l"),
    "Chain": ("nodes",),
    "ChainPartition": ("chain_masks", "k", "c"),
    "Cutset": ("lat", "chain_masks"),
    "WidthReport": ("width", "antichain_witness", "chain_cover"),
    "CutsetReport": ("is_cutset", "missed_chain"),
    "IdentityCheck": ("identity", "n", "m", "lhs", "rhs", "ok"),
    "SearchBudget": ("max_nodes_expanded", "wall_clock_limit"),
    "SearchResult": (
        "status", "value", "lower", "upper", "witness", "nodes_expanded", "prunes", "elapsed",
    ),
    "ConjectureReport": (
        "n", "m", "l", "c", "conjectured_h", "searched_h", "searched_g",
        "construction_upper_bound", "symmetric_g_value", "equal_flags",
    ),
}

UNHASHABLE = {"SearchResult", "ConjectureReport"}  # they hold dicts

names = pytest.mark.parametrize("name", sorted(RECORDS))


def _fields(record, name):
    return tuple(getattr(record, f) for f in FIELDS[name])


@names
def test_repr_text(name):
    build, _, text = RECORDS[name]
    assert repr(build()) == text.replace("{r}", repr(_result()))


@names
def test_equality_is_over_the_fields_of_one_class(name):
    build, other, _ = RECORDS[name]
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert a != other() and not a == other()
    as_tuple = _fields(a, name)
    assert a != as_tuple and not a == as_tuple
    assert a.__eq__(as_tuple) is NotImplemented
    stranger = TruncatedLattice(1, 0, 1) if name != "TruncatedLattice" else NodeSet(1, 1)
    assert a != stranger and not a == stranger
    assert a.__eq__(stranger) is NotImplemented


@names
def test_hash(name):
    build, other, _ = RECORDS[name]
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(build())
    else:
        assert hash(build()) == hash(build())
        assert len({build(), build(), other()}) == 2


@names
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(name, protocol):
    build, _, _ = RECORDS[name]
    record = build()
    copy = pickle.loads(pickle.dumps(record, protocol))
    assert type(copy) is type(record)
    assert copy == record
    assert repr(copy) == repr(record)


@names
def test_fields_are_frozen(name):
    build, _, _ = RECORDS[name]
    record = build()
    before = repr(record)
    for field in FIELDS[name]:
        with pytest.raises(AttributeError):
            setattr(record, field, 1)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == before


@names
def test_construction_by_keyword(name):
    build, _, _ = RECORDS[name]
    record = build()
    if name == "ChainPartition":  # its constructor takes Chain objects
        again = ChainPartition(record.chains, k=record.k, c=record.c)
    else:
        again = type(record)(**dict(zip(FIELDS[name], _fields(record, name))))
    assert again == record
    assert _fields(again, name) == _fields(record, name)


def test_defaults_and_argument_errors():
    assert SearchBudget() == SearchBudget(MAX_NODES_EXPANDED, WALL_CLOCK_LIMIT)
    budget = SearchBudget(wall_clock_limit=1.0)
    assert (budget.max_nodes_expanded, budget.wall_clock_limit) == (MAX_NODES_EXPANDED, 1.0)
    budget = SearchBudget(7)
    assert (budget.max_nodes_expanded, budget.wall_clock_limit) == (7, WALL_CLOCK_LIMIT)
    for bad in [
        lambda: NodeSet(1),
        lambda: NodeSet(1, 2, 3),
        lambda: NodeSet(1, 2, n=3),
        lambda: TruncatedLattice(4, 1, 2, l=2),
        lambda: TruncatedLattice(n=4, m=1, k=2),
        lambda: SearchBudget(1, 2.0, 3),
        lambda: SearchBudget(nodes=1),
        lambda: IdentityCheck("x", 1, 2, 3, 3),
    ]:
        with pytest.raises(TypeError):
            bad()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: NodeSet(1, 65), "ground size 65 outside 0..64"),
        (lambda: NodeSet(1, -1), "ground size -1 outside 0..64"),
        (lambda: NodeSet(16, 4), "bit vector 0x10 does not fit in [4]"),
        (lambda: NodeSet(-1, 4), "bit vector -0x1 does not fit in [4]"),
        (lambda: TruncatedLattice(4, 3, 2), "need 0 <= m <= l <= n <= 64, got n=4 m=3 l=2"),
        (lambda: TruncatedLattice(65, 1, 2), "need 0 <= m <= l <= n <= 64, got n=65 m=1 l=2"),
        (lambda: Chain(()), "chain must be nonempty"),
        (lambda: Chain((NodeSet(1, 3), NodeSet(3, 4))), "chain mixes ground sizes"),
        (
            lambda: Chain((NodeSet(1, 3), NodeSet(7, 3))),
            "chain not saturated ascending at {1} -> {1,2,3}",
        ),
        (
            lambda: ChainPartition([Chain((NodeSet(0, 2), NodeSet(1, 2), NodeSet(3, 2)))], 2, 2),
            "chain of size 3 exceeds bound 2",
        ),
        (
            lambda: ChainPartition([Chain((NodeSet(1, 2),))], 3, 2),
            "chain ground size differs from partition ground size",
        ),
        (lambda: ChainPartition.from_masks([(1,), (1, 3)], 2, 2), "node {1} appears in two chains"),
        (lambda: ChainPartition.from_masks([], 65, 2), "ground size 65 outside 0..64"),
        (lambda: ChainPartition.from_masks([], 2, 0), "maximum chain size c must be >= 1"),
        (
            lambda: Cutset(TruncatedLattice(4, 1, 2), ((1, 3, 7),)),
            "node {1,2,3} at level 3 outside levels 1..2",
        ),
        (
            lambda: Cutset(TruncatedLattice(4, 1, 2), ((1, 6),)),
            "chain not saturated ascending at {1} -> {2,3}",
        ),
        (lambda: SearchBudget(0), "budget limits must be positive, got 0 nodes, 120.0 s"),
        (lambda: SearchBudget(True), "budget limits must be positive, got True nodes, 120.0 s"),
        (
            lambda: SearchBudget(wall_clock_limit=float("nan")),
            "budget limits must be positive, got 2000000 nodes, nan s",
        ),
    ],
)
def test_field_checks(build, message):
    with pytest.raises(DomainError) as exc:
        build()
    assert str(exc.value) == message


def test_the_library_imports_no_dataclasses_and_runs_no_generated_code():
    # Importing dataclasses loads inspect, ast, dis and tokenize, and its
    # decorators exec the methods they make, in every command process.
    found = []
    for path in sorted(Path(boolcut.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "").partition(".")[0]]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name in ("dataclasses", "exec", "eval", "compile")]
    assert found == []
