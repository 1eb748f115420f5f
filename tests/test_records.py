"""Value semantics of bnpg's immutable records: equal arguments give equal
objects with equal hashes, no attribute can be assigned, and the fields a
record derives in its constructor are still derived."""

import copy
import pickle
from fractions import Fraction

import pytest

from bnpg.critical_clique import build_cc_graph, rooted_forest
from bnpg.decomposition import NiceTreeDecomposition, TreeDecomposition, validate_nice
from bnpg.game import Game, Graph, Profile
from bnpg.instance_io import GameSpec
from bnpg.oracle import OracleLimits
from bnpg.report import SolveReport, SolveStatus

from helpers import path_graph

# A leaf under an introduce of 0, twice, joined, then 0 forgotten at the root.
JOIN_BAGS = ((), (0,), (), (0,), (0,), ())
JOIN_PARENT = (1, 4, 3, 4, 5, None)

# name: (build one record, build a record that differs from it, one field)
RECORDS = {
    "Graph": (
        lambda: Graph(3, frozenset({(0, 1), (1, 2)})),
        lambda: Graph(3, frozenset({(0, 1)})),
        "edges",
    ),
    "Game": (
        lambda: Game(path_graph(2), [(0, "1/2", 1), (0, "1/3", 2)], ["1/6", 0]),
        lambda: Game(path_graph(2), [(0, "1/2", 1), (0, "1/3", 2)], ["1/6", 1]),
        "scale",
    ),
    "Profile": (lambda: Profile.of(0, 2), lambda: Profile.of(0), "investing"),
    "SolveReport": (
        lambda: SolveReport(SolveStatus.SOLVED, "brute", Profile.of(1), Fraction(3, 2), 0.5, 4, "d"),
        lambda: SolveReport(SolveStatus.SOLVED, "brute", Profile.of(1), Fraction(1, 2), 0.5, 4, "d"),
        "value",
    ),
    "OracleLimits": (lambda: OracleLimits(), lambda: OracleLimits(max_players=5), "max_players"),
    "CriticalCliqueGraph": (
        lambda: build_cc_graph(path_graph(4)),
        lambda: build_cc_graph(path_graph(3)),
        "cliques",
    ),
    "RootedForest": (
        lambda: rooted_forest(build_cc_graph(path_graph(4))),
        lambda: rooted_forest(build_cc_graph(path_graph(3))),
        "roots",
    ),
    "TreeDecomposition": (
        lambda: TreeDecomposition(((1, 0, 1), (2, 1)), ((1, 0),)),
        lambda: TreeDecomposition(((0, 1), (1, 3)), ((0, 1),)),
        "bags",
    ),
    "NiceTreeDecomposition": (
        lambda: NiceTreeDecomposition(JOIN_BAGS, JOIN_PARENT, 5),
        lambda: NiceTreeDecomposition(((), (1,), ()), (1, 2, None), 2),
        "kinds",
    ),
    "GameSpec": (
        lambda: GameSpec("gnp", n=5, seed=1, p=0.5),
        lambda: GameSpec("gnp", n=5, seed=2, p=0.5),
        "seed",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_equal_arguments_give_equal_records_with_equal_hashes(name):
    build, build_other, _ = RECORDS[name]
    first, second, other = build(), build(), build_other()
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert first != other and not first == other
    assert type(first).__name__ == name


@pytest.mark.parametrize("name", RECORDS)
def test_records_refuse_every_assignment(name):
    build, _, field = RECORDS[name]
    record = build()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is before and record == build()


@pytest.mark.parametrize("name", RECORDS)
def test_records_survive_copy_and_pickle(name):
    record = RECORDS[name][0]()
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert clone == record and hash(clone) == hash(record) and type(clone) is type(record)


def test_decompositions_canonicalize_their_bags_and_edges():
    td = RECORDS["TreeDecomposition"][0]()
    assert td.bags == ((0, 1), (1, 2)) and td.tree_edges == ((0, 1),)
    assert td == TreeDecomposition(((0, 1), (1, 2)), ((0, 1),))


def test_graph_equality_hash_and_repr_ignore_the_adjacency():
    graph, other = Graph.from_edges(3, [(0, 1), (1, 2)]), Graph.from_edges(3, [(1, 2), (0, 1)])
    assert graph.neighbors(1) == frozenset({0, 2})
    object.__setattr__(other, "_adj", ())
    assert graph == other and hash(graph) == hash(other)
    assert repr(graph) == repr(other) and "_adj" not in repr(graph)
    assert repr(Graph(2, frozenset({(0, 1)}))) == "Graph(player_count=2, edges=frozenset({(0, 1)}))"


def test_records_keep_no_callers_list():
    """A list given for a frozen field is stored as the frozenset or tuple
    it stands for, so the record hashes, and equals the record built from
    that; a frozenset given is kept as it is."""
    edges = frozenset({(0, 1)})
    graph = Graph(2, [(0, 1)])
    assert graph == Graph(2, edges) and hash(graph) == hash(Graph(2, edges))
    assert Graph(2, edges).edges is edges
    nice, same = NiceTreeDecomposition(((),), [None], 0), NiceTreeDecomposition(((),), (None,), 0)
    assert nice == same and hash(nice) == hash(same)


def test_a_profile_is_not_a_tuple():
    """The benchmark's span hooks read `result[0]` from a tuple result, so a
    tuple Profile would be taken for a (profile, value) pair."""
    profile = Profile.of(2, 0)
    assert not isinstance(profile, tuple)
    assert list(profile) == [0, 2] and len(profile) == 2 and 2 in profile
    assert profile.flip(2) == Profile.of(0)


def test_nice_decomposition_derives_its_shape():
    nice = NiceTreeDecomposition(JOIN_BAGS, JOIN_PARENT, 5)
    assert nice.kinds == ("leaf", "introduce", "leaf", "introduce", "join", "forget")
    assert nice.children == ((), (0,), (), (2,), (1, 3), (4,))
    assert nice.distinguished == (None, 0, None, 0, None, 0)
    assert nice.postorder == (2, 3, 0, 1, 4, 5)
    assert nice.width() == 0
    assert validate_nice(nice, Graph(1, frozenset())) == []


def test_a_solve_report_keeps_its_defaults_and_solved():
    report = SolveReport(SolveStatus.NO_PSNE, "ccforest")
    assert (report.profile, report.value, report.elapsed, report.table_entries, report.detail) == (
        None,
        None,
        0.0,
        0,
        "",
    )
    assert not report.solved and RECORDS["SolveReport"][0]().solved
    assert OracleLimits() == OracleLimits(20, None)
