"""Critical cliques (closed-twin classes) and their quotient graph."""

import random

import networkx as nx
import pytest

from bnpg.critical_clique import CriticalCliqueGraph, build_cc_graph, is_forest, rooted_forest
from bnpg.game import Graph

from helpers import (
    clique_graph,
    complete_graph,
    cycle_graph,
    gnp_graph,
    nx_graph,
    path_graph,
    random_tree,
    star_graph,
    twin_cluster_graph,
)


def test_complete_graph_collapses_to_one_clique():
    cc = build_cc_graph(complete_graph(5))
    assert cc.cliques == ((0, 1, 2, 3, 4),)
    assert cc.edges == frozenset()
    assert is_forest(cc)


def test_path_has_only_singleton_cliques():
    cc = build_cc_graph(path_graph(3))
    assert cc.cliques == ((0,), (1,), (2,))
    assert cc.edges == frozenset({(0, 1), (1, 2)})
    assert is_forest(cc)


def test_c4_is_not_a_forest():
    # opposite vertices share open neighborhoods but are not adjacent, so
    # they cannot be closed twins; the quotient is C4 itself
    cc = build_cc_graph(cycle_graph(4))
    assert len(cc.cliques) == 4
    assert not is_forest(cc)


def test_star_center_plus_singleton_leaves():
    cc = build_cc_graph(star_graph(4))
    assert cc.cliques == ((0,), (1,), (2,), (3,), (4,))
    rf = rooted_forest(cc)
    assert rf.roots == (0,)
    assert rf.children[0] == (1, 2, 3, 4)
    assert all(rf.parent[k] == 0 for k in range(1, 5))


def test_triangle_with_pendant_merges_the_twin_pair():
    # 0-1-2 triangle, 3 hangs off 2: vertices 0 and 1 are closed twins
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    cc = build_cc_graph(g)
    assert cc.cliques == ((0, 1), (2,), (3,))
    assert cc.clique_of[0] == cc.clique_of[1] == 0
    assert cc.edges == frozenset({(0, 1), (1, 2)})
    assert is_forest(cc)


def test_every_player_in_exactly_one_clique():
    rng = random.Random(7)
    for _ in range(30):
        g = gnp_graph(rng.randrange(1, 9), 0.4, rng)
        cc = build_cc_graph(g)
        seen = sorted(v for clique in cc.cliques for v in clique)
        assert seen == list(range(g.player_count))
        for i, clique in enumerate(cc.cliques):
            for v in clique:
                assert cc.clique_of[v] == i


def test_members_are_closed_twins_and_classes_are_maximal():
    rng = random.Random(8)
    for _ in range(30):
        g = twin_cluster_graph(rng.randrange(2, 10), rng)
        cc = build_cc_graph(g)
        closed = [g.closed_neighbors(v) for v in range(g.player_count)]
        for clique in cc.cliques:
            for u in clique:
                for v in clique:
                    assert closed[u] == closed[v]
        for a in range(len(cc.cliques)):
            for b in range(a + 1, len(cc.cliques)):
                u, v = cc.cliques[a][0], cc.cliques[b][0]
                assert closed[u] != closed[v]


def test_expanding_the_quotient_reconstructs_the_graph():
    rng = random.Random(9)
    for _ in range(30):
        g = twin_cluster_graph(rng.randrange(2, 10), rng)
        cc = build_cc_graph(g)
        rebuilt = set()
        for clique in cc.cliques:
            for i, u in enumerate(clique):
                for v in clique[i + 1 :]:
                    rebuilt.add((u, v))
        for a, b in cc.edges:
            for u in cc.cliques[a]:
                for v in cc.cliques[b]:
                    rebuilt.add((min(u, v), max(u, v)))
        assert rebuilt == set(g.edges)


def test_quotient_adjacency_is_all_or_nothing():
    rng = random.Random(10)
    for _ in range(30):
        g = gnp_graph(rng.randrange(2, 9), 0.5, rng)
        cc = build_cc_graph(g)
        for a in range(len(cc.cliques)):
            for b in range(a + 1, len(cc.cliques)):
                crossing = {
                    g.has_edge(u, v)
                    for u in cc.cliques[a]
                    for v in cc.cliques[b]
                }
                assert len(crossing) == 1
                assert ((a, b) in cc.edges) == crossing.pop()


def test_rooted_forest_rejects_cycles():
    cc = build_cc_graph(cycle_graph(5))
    with pytest.raises(ValueError, match="not a forest"):
        rooted_forest(cc)


def test_rooted_forest_runs_one_tree_per_component():
    # two paths and an isolated vertex; paths are twin-free so every clique
    # is a singleton
    g = Graph.from_edges(7, [(0, 1), (1, 2), (3, 4), (4, 5)])
    cc = build_cc_graph(g)
    assert len(cc.cliques) == 7
    rf = rooted_forest(cc)
    assert rf.roots == (0, 3, 6)
    assert rf.parent[0] is None and rf.parent[1] == 0
    # postorder visits every clique exactly once, children before parents
    assert sorted(rf.postorder) == list(range(7))
    position = {k: i for i, k in enumerate(rf.postorder)}
    for k, parent in enumerate(rf.parent):
        if parent is not None:
            assert position[k] < position[parent]


def forest_check_corpus():
    """Seeded trees, twin trees, cycles and gnp graphs, some of them
    forests with several components and some not forests at all."""
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randrange(1, 12)
        yield random_tree(n, rng)
        yield twin_cluster_graph(n, rng)
        yield gnp_graph(n, rng.choice((0.1, 0.2, 0.4)), rng)
    for n in range(3, 8):
        yield cycle_graph(n)


def test_the_one_forest_check_agrees_with_networkx():
    for g in forest_check_corpus():
        cc = build_cc_graph(g)
        quotient = nx_graph(clique_graph(cc))
        forest = nx.is_forest(quotient)
        assert is_forest(cc) == forest
        if not forest:
            with pytest.raises(ValueError, match="not a forest"):
                rooted_forest(cc)
            continue
        rf = rooted_forest(cc)
        assert len(rf.roots) == nx.number_connected_components(quotient)
        # each tree hangs from its lowest clique, as a search from there finds it
        parent = [None] * len(cc.cliques)
        for component in nx.connected_components(quotient):
            for k, up in nx.bfs_predecessors(quotient, min(component)):
                parent[k] = up
        assert rf.parent == tuple(parent)
        assert all(list(kids) == sorted(kids) for kids in rf.children)
        position = {k: i for i, k in enumerate(rf.postorder)}
        assert sorted(position) == list(range(len(cc.cliques)))
        assert all(up is None or position[k] < position[up] for k, up in enumerate(rf.parent))


def _grouped_by_closed_neighbors(g):
    """The critical clique graph, grouping every player directly on its
    frozen closed neighborhood."""
    classes = {}
    for v in range(g.player_count):
        classes.setdefault(g.closed_neighbors(v), []).append(v)
    cliques = tuple(sorted(tuple(c) for c in classes.values()))
    clique_of = [0] * g.player_count
    for i, clique in enumerate(cliques):
        for v in clique:
            clique_of[v] = i
    edges = {
        (min(clique_of[u], clique_of[v]), max(clique_of[u], clique_of[v]))
        for u, v in g.edges
        if clique_of[u] != clique_of[v]
    }
    return CriticalCliqueGraph(g, cliques, tuple(clique_of), frozenset(edges))


def _relabeled(g, rng):
    label = list(range(g.player_count))
    rng.shuffle(label)
    return Graph.from_edges(g.player_count, [(label[u], label[v]) for u, v in g.edges])


def _k2_components(pairs, rng):
    """`pairs` disjoint edges on shuffled labels, plus an isolated player."""
    return _relabeled(Graph.from_edges(2 * pairs + 1, [(2 * i, 2 * i + 1) for i in range(pairs)]), rng)


def test_cliques_equal_a_direct_grouping_by_closed_neighborhood():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randrange(0, 40)
        graphs = (
            random_tree(n, rng),
            twin_cluster_graph(n, rng),
            _relabeled(twin_cluster_graph(n, rng), rng),
            gnp_graph(n, rng.choice((0.1, 0.3, 0.6, 0.9)), rng),
            _k2_components(n // 2, rng),
        )
        for g in graphs:
            assert build_cc_graph(g) == _grouped_by_closed_neighbors(g)


def test_a_shared_fingerprint_does_not_make_twins():
    # 0 and 1 are adjacent, of degree 3, and their closed neighborhoods
    # {0, 1, 2, 5} and {0, 1, 3, 4} both sum to 8; 6 and 7 are twins
    g = Graph.from_edges(8, [(0, 1), (0, 2), (0, 5), (1, 3), (1, 4), (2, 6), (2, 7), (6, 7)])
    assert g.degree(0) == g.degree(1) and sum(g.closed_neighbors(0)) == sum(g.closed_neighbors(1))
    cc = build_cc_graph(g)
    assert cc.cliques == ((0,), (1,), (2,), (3,), (4,), (5,), (6, 7))
    assert cc == _grouped_by_closed_neighbors(g)


def test_a_complete_graph_and_a_large_star():
    cc = build_cc_graph(complete_graph(60))
    assert cc.cliques == (tuple(range(60)),)
    assert cc.clique_of == (0,) * 60 and cc.edges == frozenset()
    star = star_graph(2000)
    cc = build_cc_graph(star)
    assert cc.cliques == tuple((v,) for v in range(2001))
    assert cc.clique_of == tuple(range(2001))
    assert cc.edges == frozenset((0, leaf) for leaf in range(1, 2001))
    assert rooted_forest(cc).children[0] == tuple(range(1, 2001))
