"""Reductions from clique, 3-regular-subgraph and domination questions."""

import random
from fractions import Fraction

import pytest

from bnpg.game import Graph, Profile, is_psne, usw, esw
from bnpg.oracle import (
    enum_psne,
    find_clique,
    find_rb_dominating,
    find_3regular_induced,
    max_esw,
    max_usw,
)
from bnpg.reductions import reduce_3ris, reduce_clique_to_uswc, reduce_rbds_to_eswc

from helpers import complete_graph, cycle_graph, gnp_graph, petersen


# ---------------------------------------------------------------------------
# 3-regular induced subgraph  <->  nonempty equilibrium
# ---------------------------------------------------------------------------


def test_3ris_game_is_homogeneous():
    out = reduce_3ris(petersen())
    game = out.game
    assert game.graph == petersen()
    assert set(game.cost) == {Fraction(2)}
    for v in range(10):
        assert game.externality[v] == (0, 1, 2, 3, 5)
    assert out.threshold is None
    assert out.witness_map[("vertex", 7)] == 7


def test_3ris_on_petersen():
    game = reduce_3ris(petersen()).game
    # the whole graph is 3-regular, so everyone-invests is an equilibrium
    assert is_psne(game, Profile.of(*range(10)))
    assert find_3regular_induced(petersen()) == frozenset(range(10))


def test_3ris_on_triangle_has_only_the_empty_equilibrium():
    g = complete_graph(3)
    game = reduce_3ris(g).game
    assert enum_psne(game) == [Profile.of()]
    assert find_3regular_induced(g) is None


def test_3ris_equilibria_are_exactly_3regular_sets():
    rng = random.Random(77)
    for _ in range(15):
        g = gnp_graph(rng.randrange(4, 9), 0.6, rng)
        game = reduce_3ris(g).game
        for profile in enum_psne(game):
            investors = sorted(profile)
            for v in investors:
                inside = sum(1 for w in g.neighbors(v) if w in profile)
                assert inside == 3
        # and conversely the search helper's answer is an equilibrium
        found = find_3regular_induced(g)
        if found is not None:
            assert is_psne(game, Profile.of(*found))


# ---------------------------------------------------------------------------
# kappa-clique  ->  utilitarian welfare threshold
# ---------------------------------------------------------------------------


def test_uswc_layout():
    g = complete_graph(3)
    out = reduce_clique_to_uswc(g, 3)
    game, q = out.game, out.threshold
    # 3 vertex-players, 3 edge-players, 1 collector
    assert game.graph.player_count == 7
    assert q == 3
    collector = out.witness_map[("special",)]
    assert collector == 6
    assert game.cost[collector] == 3 * 3 + 1  # 3m + 1
    for e in [(0, 1), (0, 2), (1, 2)]:
        p = out.witness_map[("edge", e)]
        assert set(game.graph.neighbors(p)) == {e[0], e[1], collector}
        assert game.cost[p] == 3
        assert game.externality[p] == (0, 0, 0, 3, 0)
    # a vertex-player is paid 1 only at exactly kappa investors
    for u in range(3):
        assert out.witness_map[("vertex", u)] == u
        assert game.cost[u] == 1
        assert game.externality[u] == (0, 0, 0, 1)
    # the collector is paid 3 only at exactly kappa*(kappa-1)/2 investors
    table = game.externality[collector]
    assert table[3] == 3
    assert all(table[k] == 0 for k in range(len(table)) if k != 3)
    # an end of a path has closed degree 2, so it can sit in no 3-clique
    out = reduce_clique_to_uswc(Graph.from_edges(3, [(0, 1), (1, 2)]), 3)
    assert out.game.externality[0] == (0, 0, 0)
    assert out.game.externality[1] == (0, 0, 0, 1)


def clique_profile(out, members):
    pick = [
        player
        for (kind, *rest), player in out.witness_map.items()
        if (kind == "vertex" and rest[0] in members)
        or (kind == "edge" and set(rest[0]) <= set(members))
    ]
    return Profile.of(*pick)


def test_uswc_clique_profile_meets_the_threshold():
    for g, kappa, members in [
        (complete_graph(3), 3, (0, 1, 2)),
        (complete_graph(4), 3, (0, 1, 2)),
        (complete_graph(4), 4, (0, 1, 2, 3)),
        (cycle_graph(5), 2, (0, 1)),
    ]:
        out = reduce_clique_to_uswc(g, kappa)
        assert usw(out.game, clique_profile(out, members)) == out.threshold


def test_uswc_optimum_reaches_threshold_when_clique_exists():
    rng = random.Random(78)
    for _ in range(10):
        g = gnp_graph(rng.randrange(3, 5), 0.7, rng)
        kappa = rng.choice((2, 3))
        out = reduce_clique_to_uswc(g, kappa)
        _, best = max_usw(out.game)
        if find_clique(g, kappa) is not None:
            assert best >= out.threshold
        else:
            assert best < out.threshold


def test_uswc_threshold_formula():
    g = cycle_graph(5)
    out = reduce_clique_to_uswc(g, 3)
    # q = 3 for every source graph and kappa
    assert out.threshold == 3


def test_uswc_rejects_tiny_kappa():
    with pytest.raises(ValueError, match=">= 2"):
        reduce_clique_to_uswc(complete_graph(3), 1)


# ---------------------------------------------------------------------------
# red-blue domination  ->  egalitarian welfare threshold
# ---------------------------------------------------------------------------


def star_instance():
    # blue center 0 dominating red leaves 1, 2
    return Graph.from_edges(3, [(0, 1), (0, 2)]), [0], [1, 2]


def test_eswc_layout():
    g, blue, red = star_instance()
    out = reduce_rbds_to_eswc(g, blue, red, 1)
    game = out.game
    watchdog = out.witness_map[("special",)]
    assert watchdog == 3
    assert set(game.graph.neighbors(watchdog)) == {0}
    assert game.externality[1][:2] == (0, 1)
    assert game.externality[0][:3] == (1, 2, 0)
    assert game.externality[watchdog] == (1, 1, 0)  # kappa = 1
    assert set(game.cost) == {Fraction(1)}
    assert out.threshold == 1


def test_eswc_yes_instance():
    g, blue, red = star_instance()
    out = reduce_rbds_to_eswc(g, blue, red, 1)
    profile = Profile.of(0)
    assert esw(out.game, profile) == 1
    _, best = max_esw(out.game)
    assert best == 1


def test_eswc_no_instance_is_stuck_at_zero():
    # two disjoint edges need two blues; budget is one
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    out = reduce_rbds_to_eswc(g, [0, 2], [1, 3], 1)
    assert find_rb_dominating(g, [0, 2], [1, 3], 1) is None
    _, best = max_esw(out.game)
    assert best == 0


def test_eswc_matches_domination_search():
    rng = random.Random(79)
    for _ in range(20):
        nb = rng.randrange(1, 4)
        nr = rng.randrange(1, 4)
        blue = list(range(nb))
        red = list(range(nb, nb + nr))
        edges = [
            (b, r) for b in blue for r in red if rng.random() < 0.5
        ]
        g = Graph.from_edges(nb + nr, edges)
        kappa = rng.randrange(1, nb + 1)
        out = reduce_rbds_to_eswc(g, blue, red, kappa)
        _, best = max_esw(out.game)
        dominating = find_rb_dominating(g, blue, red, kappa)
        if dominating is not None:
            assert best >= 1
        else:
            assert best == 0


def test_eswc_input_validation():
    g, blue, red = star_instance()
    with pytest.raises(ValueError, match=">= 1"):
        reduce_rbds_to_eswc(g, blue, red, 0)
    with pytest.raises(ValueError, match="partition"):
        reduce_rbds_to_eswc(g, [0, 1], [1, 2], 1)
    bad = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError, match="cross"):
        reduce_rbds_to_eswc(bad, [0], [1, 2], 1)
