"""Tree decompositions: axioms, heuristics, nice form, PACE files."""

import pickle
import random
import time

import pytest

from bnpg.decomposition import (
    HEURISTICS,
    NiceTreeDecomposition,
    TreeDecomposition,
    Violation,
    _nice_from_skeleton,
    heuristic_decomposition,
    read_pace,
    to_nice,
    validate_decomposition,
    validate_nice,
    write_pace,
)
from bnpg.elimination import elimination_order, nice_from_elimination
from bnpg.game import Game, Graph, root_walk
from bnpg.instance_io import GameSpec, ParseError, gen_random_game
from bnpg.treewidth import (
    prepare_decomposition,
    solve_esw_treewidth,
    solve_psne_treewidth,
    solve_usw_treewidth,
)

from helpers import (
    complete_graph,
    cycle_graph,
    gnp_graph,
    hub_with_a_leaf_cycle,
    path_graph,
    address_space_cap,
    random_game,
    random_tree,
    reference_elimination,
)


# ---------------------------------------------------------------------------
# structural checks on the bag tree itself
# ---------------------------------------------------------------------------


def test_decomposition_needs_a_bag():
    with pytest.raises(ValueError):
        TreeDecomposition((), ())


def test_skeleton_must_be_a_tree():
    with pytest.raises(ValueError, match="tree edges"):
        TreeDecomposition(((0,), (1,)), ())  # two bags, no edge
    with pytest.raises(ValueError, match="duplicate"):
        TreeDecomposition(((0,), (1,)), ((0, 1), (1, 0)))
    with pytest.raises(ValueError, match="self-loop"):
        TreeDecomposition(((0,), (1,)), ((0, 0),))
    with pytest.raises(ValueError, match="missing bag"):
        TreeDecomposition(((0,), (1,)), ((0, 5),))
    # right count but disconnected (cycle + isolated bag)
    with pytest.raises(ValueError, match="connect"):
        TreeDecomposition(
            ((0,), (0,), (0,), (0,)), ((0, 1), (1, 2), (0, 2))
        )


def test_width_is_max_bag_size_minus_one():
    td = TreeDecomposition(((0, 1), (1, 2, 3)), ((0, 1),))
    assert td.width() == 2
    assert TreeDecomposition(((),), ()).width() == -1


def test_bags_are_canonicalized():
    td = TreeDecomposition(((2, 0, 2),), ())
    assert td.bags == ((0, 2),)


# ---------------------------------------------------------------------------
# the three coverage axioms
# ---------------------------------------------------------------------------

P4 = path_graph(4)
P4_TD = TreeDecomposition(((0, 1), (1, 2), (2, 3)), ((0, 1), (1, 2)))


def test_valid_decomposition_has_no_violations():
    assert validate_decomposition(P4_TD, P4) == []


def test_missing_vertex_is_reported():
    td = TreeDecomposition(((0, 1), (1, 2)), ((0, 1),))
    violations = validate_decomposition(td, P4)
    assert any(
        v.axiom == "vertex-cover" and "vertex 3" in v.detail for v in violations
    )


def test_uncovered_edge_is_reported():
    td = TreeDecomposition(((0, 1), (1, 2), (3,)), ((0, 1), (1, 2)))
    violations = validate_decomposition(td, P4)
    assert [v.axiom for v in violations] == ["edge-cover"]
    assert "(2, 3)" in violations[0].detail


def test_edge_cover_violations_come_in_ascending_order():
    # one-vertex bags on a chain cover no edge at all
    graph = gnp_graph(40, 0.2, random.Random(3))
    td = TreeDecomposition(tuple((v,) for v in range(40)), tuple((v, v + 1) for v in range(39)))
    details = [v.detail for v in validate_decomposition(td, graph)]
    assert details == [f"edge ({u}, {v}) is contained in no bag" for u, v in sorted(graph.edges)]
    first = min(graph.edges)
    with pytest.raises(ValueError, match=rf"edge-cover: edge \({first[0]}, {first[1]}\)"):
        to_nice(td, graph)


def test_disconnected_trace_is_reported():
    # vertex 1 appears in bags 0 and 2 but not in the bag between them
    td = TreeDecomposition(((0, 1), (0, 2), (1, 2), (2, 3)), ((0, 1), (1, 2), (2, 3)))
    violations = validate_decomposition(td, P4)
    assert any(v.axiom == "connectivity" and "vertex 1" in v.detail for v in violations)


def test_foreign_vertex_is_reported():
    td = TreeDecomposition(((0, 1, 9), (1, 2), (2, 3)), ((0, 1), (1, 2)))
    violations = validate_decomposition(td, P4)
    assert any("vertex 9" in v.detail for v in violations)


def test_validating_a_star_decomposition_is_not_quadratic():
    """A centre bag holding every vertex, with a one-vertex bag hung from it
    for each: a search from each vertex's first bag over the skeleton walked
    the centre's n neighbors, 0.03 / 0.12 / 0.57 s at n = 1000 / 2000 /
    4000, fourfold per doubling, about 14 s at 20000."""
    n = 20000
    graph = path_graph(n)
    td = TreeDecomposition([tuple(range(n))] + [(v,) for v in range(n)], [(0, v + 1) for v in range(n)])
    started = time.perf_counter()
    assert validate_decomposition(td, graph) == []
    assert time.perf_counter() - started < 5


# ---------------------------------------------------------------------------
# elimination heuristics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("heuristic", ["min_fill", "min_degree"])
def test_heuristics_produce_valid_decompositions(heuristic):
    rng = random.Random(31)
    for _ in range(25):
        g = gnp_graph(rng.randrange(1, 12), rng.choice((0.2, 0.5, 0.8)), rng)
        td = heuristic_decomposition(g, heuristic)
        assert validate_decomposition(td, g) == []


def test_heuristics_hit_known_widths():
    assert heuristic_decomposition(path_graph(8)).width() == 1
    assert heuristic_decomposition(cycle_graph(8)).width() == 2
    assert heuristic_decomposition(complete_graph(5)).width() == 4
    rng = random.Random(5)
    assert heuristic_decomposition(random_tree(20, rng)).width() == 1


def test_heuristic_is_deterministic():
    rng = random.Random(6)
    g = gnp_graph(10, 0.4, rng)
    assert heuristic_decomposition(g) == heuristic_decomposition(g)


def _hubs_sharing_leaves(hubs, leaves, p, rng):
    """`hubs` vertices each adjacent to every one of `leaves` leaves, with
    edges among the leaves drawn at rate p: eliminating a leaf adds fill
    edges that share every hub, or every other leaf of a hub pair, as a
    common neighbor."""
    spokes = [(h, hubs + leaf) for h in range(hubs) for leaf in range(leaves)]
    among = gnp_graph(leaves, p, rng).edges
    return Graph.from_edges(hubs + leaves, spokes + [(hubs + a, hubs + b) for a, b in among])


def _elimination_corpus():
    rng = random.Random(35)
    for p in (0.2, 0.5, 0.8):
        for _ in range(80):
            yield gnp_graph(rng.randrange(1, 30), p, rng)
    for n in range(1, 40, 3):
        yield path_graph(n)
        yield random_tree(n, rng)
        if n >= 3:
            yield cycle_graph(n)
    for seed in range(60):
        spec = GameSpec("bounded_tw", n=rng.randrange(5, 61), width=rng.randrange(1, 4), seed=seed)
        yield gen_random_game(spec).graph
    for _ in range(20):
        # the tail vertices have no edges
        n = rng.randrange(1, 20)
        core = gnp_graph(n, 0.3, rng)
        yield Graph.from_edges(n + rng.randrange(1, 6), core.edges)
    for leaves in (8, 30, 60, 120):
        yield hub_with_a_leaf_cycle(leaves)
    for hubs, p in ((1, 0.05), (2, 0.0), (2, 0.05), (3, 0.02)):
        yield _hubs_sharing_leaves(hubs, 120, p, rng)
    for n, p in ((35, 0.5), (37, 0.6), (38, 0.7), (40, 0.6)):
        yield gnp_graph(n, p, rng)


@pytest.mark.parametrize("heuristic", ["min_fill", "min_degree"])
def test_heap_elimination_matches_the_min_scan(heuristic):
    """Same bags and tree edges as taking `min` over every live vertex by
    (score, vertex), so every decomposition, answer and witness is kept."""
    for g in _elimination_corpus():
        assert heuristic_decomposition(g, heuristic) == reference_elimination(g, heuristic)


def test_elimination_on_a_long_path_is_not_quadratic():
    """A scan of every live vertex per step took 1.67 s at 4000 vertices
    and grows fourfold per doubling, about 40 s at 20000."""
    started = time.perf_counter()
    td = heuristic_decomposition(path_graph(20000))
    assert time.perf_counter() - started < 10
    assert td.width() == 1


def test_min_fill_on_a_hub_is_not_cubic():
    """Recounting the hub's fill after each leaf went took 0.12 / 0.96 /
    7.3 s at hub degree 250 / 500 / 1000, eightfold per doubling; kept up
    to date, the counts take 0.02 s at degree 4000."""
    started = time.perf_counter()
    td = heuristic_decomposition(hub_with_a_leaf_cycle(4000))
    assert time.perf_counter() - started < 5
    assert td.width() == 3


def test_min_fill_on_a_dense_graph_does_not_recount():
    """gnp n=150 p=0.5: 1.9 s recounting every touched vertex's fill after
    each step, 0.13 s keeping the counts up to date."""
    graph = gen_random_game(GameSpec("gnp", n=150, p=0.5, seed=1)).graph
    started = time.perf_counter()
    td = heuristic_decomposition(graph)
    assert time.perf_counter() - started < 1
    assert td.width() == 136


def test_empty_graph_gets_a_single_empty_bag():
    td = heuristic_decomposition(Graph.from_edges(0, []))
    assert td.bags == ((),)
    assert td.tree_edges == ()


def test_unknown_heuristic_rejected():
    with pytest.raises(ValueError, match="min_fill"):
        heuristic_decomposition(path_graph(3), "fancy")


# ---------------------------------------------------------------------------
# nice form
# ---------------------------------------------------------------------------


def test_nice_shape_rules_are_enforced():
    # root bag must be empty
    with pytest.raises(ValueError, match="root bag"):
        NiceTreeDecomposition(((0,),), (None,), root=0)
    # a single empty node is fine
    ntd = NiceTreeDecomposition(((),), (None,), root=0)
    assert ntd.kinds == ("leaf",)
    # introduce must add exactly one vertex
    with pytest.raises(ValueError, match="introduce or forget"):
        NiceTreeDecomposition(((), (0, 1), ()), (1, 2, None), root=2)
    # join children must replicate the bag
    with pytest.raises(ValueError, match="join"):
        NiceTreeDecomposition(
            ((), (0,), (), (1,), ()),
            (1, 4, 3, 4, None),
            root=4,
        )


def test_to_nice_preserves_width_and_validates():
    rng = random.Random(33)
    for _ in range(30):
        g = gnp_graph(rng.randrange(1, 11), 0.4, rng)
        td = heuristic_decomposition(g, rng.choice(("min_fill", "min_degree")))
        root = rng.randrange(len(td.bags))
        ntd = to_nice(td, g, root_bag=root)
        assert ntd.width() == td.width()
        assert validate_nice(ntd, g) == []
        # at bag 0, the rooting the decomposition keeps, read and left as it was
        parent, order = root_walk(len(td.bags), td.tree_edges, (0,))
        assert to_nice(td, g) == _nice_from_skeleton(td.bags, parent, reversed(order))
        assert td._rooting == (parent, order)


def test_to_nice_rejects_invalid_input():
    td = TreeDecomposition(((0, 1), (1, 2)), ((0, 1),))  # misses vertex 3
    with pytest.raises(ValueError, match="vertex-cover"):
        to_nice(td, P4)
    with pytest.raises(ValueError, match="root bag"):
        to_nice(P4_TD, P4, root_bag=17)


def test_to_nice_on_single_vertex():
    g = Graph.from_edges(1, [])
    ntd = to_nice(TreeDecomposition(((0,),), ()), g)
    assert validate_nice(ntd, g) == []
    kinds = sorted(ntd.kinds)
    assert kinds == ["forget", "introduce", "leaf"]


def test_validate_nice_counts_forgets():
    g = path_graph(2)
    ntd = to_nice(heuristic_decomposition(g), g)
    assert validate_nice(ntd, g) == []
    # graph with an extra vertex the decomposition never mentions
    g3 = Graph.from_edges(3, [(0, 1)])
    violations = validate_nice(ntd, g3)
    assert any("vertex 2" in v.detail for v in violations)


def test_vertex_forgotten_under_both_join_children_is_disconnected():
    # vertex 0 is introduced and forgotten under each child of the root join
    g = Graph.from_edges(1, [])
    ntd = NiceTreeDecomposition(
        ((), (0,), (), (), (0,), (), ()), (1, 2, 6, 4, 5, 6, None), root=6
    )
    detail = "bags containing vertex 0 split into separate groups (bag 1 cannot reach bag 4)"
    assert validate_nice(ntd, g) == [Violation("connectivity", detail)]
    game = Game(g, [(0, 0)], [1])
    with pytest.raises(ValueError) as excinfo:
        prepare_decomposition(game, ntd)
    assert str(excinfo.value) == f"not a valid nice tree decomposition (connectivity: {detail})"


def test_nice_join_nodes_appear_for_branching_bags():
    g = star_graph = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    td = TreeDecomposition(((0, 1), (0, 2), (0, 3)), ((0, 1), (0, 2)))
    assert validate_decomposition(td, g) == []
    ntd = to_nice(td, g)
    assert "join" in ntd.kinds
    assert validate_nice(ntd, g) == []


def test_both_forms_refuse_a_negative_vertex():
    """The coverage check indexes each vertex's bags in a list, where -1
    would quietly read the last vertex's, so both constructors refuse it."""
    with pytest.raises(ValueError, match=r"^negative vertex -1 in a bag$"):
        TreeDecomposition(((), (-1,), ()), ((0, 1), (1, 2)))
    with pytest.raises(ValueError, match=r"^negative vertex -1 in a bag$"):
        NiceTreeDecomposition(((), (-1,), ()), (1, 2, None), 2)


def _as_plain(ntd):
    """The nice form's bags joined by its parent edges, as a plain decomposition."""
    return TreeDecomposition(ntd.bags, [(i, p) for i, p in enumerate(ntd.parent) if p is not None])


def _nice_corpus():
    """Nice forms of random graphs' decompositions at a random root, valid
    ones and ones with a vertex dropped from one bag, each paired with its
    graph, a larger graph with more vertices and edges, and a smaller one
    that leaves some bag vertices foreign."""
    rng = random.Random(43)
    for _ in range(100):
        n = rng.randrange(1, 12)
        graph = gnp_graph(n, rng.choice((0.2, 0.4, 0.7)), rng)
        td = heuristic_decomposition(graph, rng.choice(HEURISTICS))
        bags = list(td.bags)
        i = rng.choice([i for i, bag in enumerate(bags) if bag])
        dropped = rng.choice(bags[i])
        bags[i] = tuple(v for v in bags[i] if v != dropped)
        parent, order = root_walk(len(bags), td.tree_edges, (rng.randrange(len(bags)),))
        broken = _nice_from_skeleton(bags, parent, reversed(order))
        larger = n + rng.randrange(0, 3)
        more = Graph.from_edges(larger, graph.edges | gnp_graph(larger, 0.15, rng).edges)
        fewer = rng.randrange(0, n)
        less = Graph.from_edges(fewer, [e for e in graph.edges if e[1] < fewer])
        for nice in (to_nice(td, graph, rng.randrange(len(td.bags))), broken):
            for g in (graph, more, less):
                yield nice, g


def test_validate_nice_reads_the_same_violations_from_its_own_rooting():
    """`validate_nice` checks the nice tree as rooted; the plain form of the
    same tree, rooted at node 0, gives the same violations in the same
    order, because which bags group together does not depend on the root."""
    axioms = set()
    for ntd, graph in _nice_corpus():
        violations = validate_nice(ntd, graph)
        assert violations == validate_decomposition(_as_plain(ntd), graph)
        axioms.update(v.axiom for v in violations)
    assert axioms == {"vertex-cover", "edge-cover", "connectivity"}


def _builder_corpus():
    """Seeded games of five families, n = 0, 1 and 2 among them, and
    graphs with isolated vertices or several components."""
    rng = random.Random(37)
    for family in ("bounded_tw", "cycle", "tree", "caterpillar", "gnp"):
        for n in (0, 1, 2):
            yield gen_random_game(GameSpec(family, n=n, width=1, seed=n))
        for seed in range(12):
            n = rng.randrange(3, 16)
            spec = GameSpec(family, n=n, width=rng.randrange(1, 4), p=0.3, seed=seed)
            yield gen_random_game(spec)
    for _ in range(12):
        n = rng.randrange(1, 10)
        core = gnp_graph(n, rng.choice((0.1, 0.3)), rng)
        yield random_game(Graph.from_edges(n + rng.randrange(0, 4), core.edges), rng)


def _answers(game, ntd):
    solvers = [solve_psne_treewidth, solve_usw_treewidth]
    if game.player_count:
        solvers.append(solve_esw_treewidth)
    return [(r.status, r.value, r.profile) for r in (solve(game, ntd) for solve in solvers)]


def test_elimination_builder_agrees_with_the_checked_constructor():
    """The nice forms built from the min-fill order, and by `to_nice` from
    either heuristic's decomposition at bag 0, the last bag and a random
    bag, skip `__init__`'s derivations; they would give the same kinds,
    children (a join's in index order, which the sweep's tie-breaks
    follow), distinguished vertices and postorder.  Each is valid and as
    wide as the decomposition it came from, and the one from the order
    answers as the solvers' own min-fill path does, and the same after a
    pickle round trip, which goes through `__init__`."""
    rng = random.Random(41)
    for game in _builder_corpus():
        graph = game.graph
        ntd = nice_from_elimination(*elimination_order(graph))
        built = [(ntd, heuristic_decomposition(graph))]
        for heuristic in ("min_fill", "min_degree"):
            td = heuristic_decomposition(graph, heuristic)
            for root in (0, len(td.bags) - 1, rng.randrange(len(td.bags))):
                built.append((to_nice(td, graph, root), td))
        for nice, td in built:
            checked = NiceTreeDecomposition(nice.bags, nice.parent, nice.root)
            for field in ("kinds", "children", "distinguished", "postorder"):
                assert getattr(nice, field) == getattr(checked, field), field
            assert validate_nice(nice, graph) == []
            assert nice.width() == td.width()
        assert _answers(game, None) == _answers(game, ntd)
        copy = pickle.loads(pickle.dumps(ntd))
        assert copy == ntd
        assert _answers(game, copy) == _answers(game, ntd)


# ---------------------------------------------------------------------------
# PACE files
# ---------------------------------------------------------------------------


def test_pace_round_trip():
    rng = random.Random(8)
    for _ in range(20):
        g = gnp_graph(rng.randrange(1, 10), 0.5, rng)
        td = heuristic_decomposition(g)
        text = write_pace(td, g.player_count)
        td2, declared = read_pace(text)
        assert td2 == td
        assert declared == g.player_count
        assert write_pace(td2, declared) == text


def test_pace_known_file():
    text = """c一 comment lines are ignored
c this is a decomposition of a path on three vertices
s td 2 2 3
b 1 1 2
b 2 2 3
1 2
"""
    td, declared = read_pace(text)
    assert declared == 3
    assert td.bags == ((0, 1), (1, 2))
    assert td.tree_edges == ((0, 1),)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("b 1 1\n", "header"),
        ("s td 1 1 1\ns td 1 1 1\n", "second"),
        ("s td 1 1 1\nb 4 1\n", "out of range"),
        ("s td 2 1 2\nb 1 1\nb 1 2\n1 2\n", "duplicate"),
        ("s td 1 1 2\nb 1 7\n", "out of range"),
        ("s td 2 1 2\nb 1 1\n1 2\n", "never listed"),
        ("s td 1 1 1\nb 1 one\n", "non-integer"),
        ("s td 1 1 2\nb 1 1 2\n", "at most"),
        ("s td 2 2 2\nb 1 1\nb 2 2\n", "tree edges"),
        ("s td x y z\n", "integers"),
        # int() would read these as 10, 2, 2, 1 and 2: integer fields take
        # ASCII digits only
        ("s td 1 1_0 2\n", "line 1: header counts must be integers"),
        ("s td 1 2 \u0662\n", "line 1: header counts must be integers"),
        ("s td 1 2 2\nb 1 1 \u0662\n", "line 2: bag line contains a non-integer"),
        ("s td 1 2 2\nb 0_1 1 2\n", "line 2: bag line contains a non-integer"),
        ("s td 2 1 2\nb 1 1\nb 2 2\n1 \u0662\n", "line 4: skeleton edge line contains a non-integer"),
    ],
)
def test_pace_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        read_pace(text)
    assert fragment in str(err.value)


def test_a_declared_bag_count_costs_nothing_before_the_missing_bag_is_named():
    # 21 bytes declaring 10^8 bags, none listed: the first missing id is
    # found without walking the declared count
    start = time.perf_counter()
    with address_space_cap(1 << 30), pytest.raises(ParseError) as err:
        read_pace("s td 100000000 1 1\n")
    assert time.perf_counter() - start < 1
    assert err.value.line is None
    assert str(err.value) == "bag 1 was declared but never listed"


@pytest.mark.parametrize(
    "listed, first_missing",
    [((2, 3), 1), ((1, 3), 2), ((1, 2), 3), ((1, 2, 4, 5), 3)],
)
def test_the_smallest_missing_bag_is_named(listed, first_missing):
    text = "s td 6 1 1\n" + "".join(f"b {b} 1\n" for b in listed)
    with pytest.raises(ParseError, match=f"^bag {first_missing} was declared"):
        read_pace(text)


def test_write_pace_rejects_oversized_vertices():
    td = TreeDecomposition(((0, 5),), ())
    with pytest.raises(ValueError):
        write_pace(td, 3)
