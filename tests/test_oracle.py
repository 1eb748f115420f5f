"""The exhaustive reference solvers and the search helpers built on them."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from bnpg.game import Game, Graph, Profile, esw, is_psne, scale_game, usw
from bnpg.oracle import (
    LimitExceeded,
    OracleLimits,
    enum_psne,
    find_3regular_induced,
    find_clique,
    find_rb_dominating,
    first_psne,
    max_esw,
    max_usw,
)

from helpers import (
    best_shot_game,
    complete_graph,
    coprime_game,
    cycle_graph,
    gnp_graph,
    path_graph,
    petersen,
    random_game,
)


def test_single_player_wants_to_invest():
    game = Game.build(Graph.from_edges(1, []), [(0, 2)], [1])
    assert enum_psne(game) == [Profile.of(0)]
    assert first_psne(game) == Profile.of(0)


def test_single_player_never_invests_when_cost_dominates():
    game = Game.build(Graph.from_edges(1, []), [(0, 2)], [3])
    assert enum_psne(game) == [Profile.of()]


def test_best_shot_on_a_path_has_the_expected_equilibria():
    # a-b-c with threshold externality and cost 1/2: equilibria are exactly
    # the maximal-independent-set-like covers {b} and {a, c}
    game = best_shot_game(path_graph(3))
    found = enum_psne(game)
    assert Profile.of(1) in found
    assert Profile.of(0, 2) in found
    assert Profile.of() not in found
    assert all(is_psne(game, s) for s in found)


def test_enum_results_are_exactly_the_stable_profiles():
    rng = random.Random(42)
    for _ in range(25):
        game = random_game(gnp_graph(5, 0.4, rng), rng)
        expected = []
        for bits in range(32):
            s = Profile(frozenset(v for v in range(5) if bits >> v & 1))
            if is_psne(game, s):
                expected.append(s)
        assert enum_psne(game) == expected


def test_first_psne_is_the_smallest_bitmask_equilibrium():
    rng = random.Random(9)
    for _ in range(40):
        game = random_game(gnp_graph(6, 0.3, rng), rng)
        found = enum_psne(game)
        assert first_psne(game) == (found[0] if found else None)


def test_max_usw_beats_every_profile():
    rng = random.Random(3)
    for _ in range(25):
        game = random_game(gnp_graph(5, 0.5, rng), rng)
        profile, value = max_usw(game)
        assert usw(game, profile) == value
        for bits in range(32):
            s = Profile(frozenset(v for v in range(5) if bits >> v & 1))
            assert usw(game, s) <= value


def test_max_esw_beats_every_profile():
    rng = random.Random(4)
    for _ in range(25):
        game = random_game(gnp_graph(5, 0.5, rng), rng)
        profile, value = max_esw(game)
        assert esw(game, profile) == value
        for bits in range(32):
            s = Profile(frozenset(v for v in range(5) if bits >> v & 1))
            assert esw(game, s) <= value


def test_max_welfare_breaks_ties_toward_smaller_bitmasks():
    # all-zero externalities and zero costs: every profile ties at welfare 0
    g = path_graph(3)
    game = Game.build(g, [(0,) * (g.degree(v) + 2) for v in range(3)], [0, 0, 0])
    assert max_usw(game)[0] == Profile.of()
    assert max_esw(game)[0] == Profile.of()


def test_max_esw_rejects_zero_players():
    game = Game.build(Graph.from_edges(0, []), [], [])
    with pytest.raises(ValueError):
        max_esw(game)


def test_player_cap_is_enforced():
    g = Graph.from_edges(21, [])
    game = Game.build(g, [(0, 0)] * 21, [0] * 21)
    with pytest.raises(LimitExceeded):
        enum_psne(game)
    small = Game.build(Graph.from_edges(3, []), [(0, 0)] * 3, [0] * 3)
    with pytest.raises(LimitExceeded):
        enum_psne(small, OracleLimits(max_players=2))
    # indifferent everywhere: every one of the 8 profiles is an equilibrium
    assert len(enum_psne(small, OracleLimits(max_players=3))) == 8


def test_time_budget_is_enforced():
    g = Graph.from_edges(16, [])
    game = Game.build(g, [(0, 0)] * 16, [0] * 16)
    with pytest.raises(LimitExceeded):
        enum_psne(game, OracleLimits(time_budget=0.0))


def test_coprime_denominators_match_the_fraction_evaluators():
    # Values and costs over {3, 5, 7, 11}: the oracle's integer scale reaches
    # 1155, and every answer is checked against Fraction arithmetic over all
    # profiles, including the smallest-bitmask tie-break.
    rng = random.Random(110)
    scales = set()
    for _ in range(30):
        n = rng.randrange(1, 7)
        game = coprime_game(gnp_graph(n, rng.choice((0.3, 0.6)), rng), rng)
        scales.add(scale_game(game).scale)
        profiles = [
            Profile(frozenset(v for v in range(n) if bits >> v & 1))
            for bits in range(1 << n)
        ]
        assert enum_psne(game) == [s for s in profiles if is_psne(game, s)]
        for solve, welfare in ((max_usw, usw), (max_esw, esw)):
            profile, value = solve(game)
            assert isinstance(value, Fraction)
            best = max(welfare(game, s) for s in profiles)
            assert value == welfare(game, profile) == best
            assert profile == next(s for s in profiles if welfare(game, s) == best)
    assert max(scales) == 1155


# ---------------------------------------------------------------------------
# search helpers
# ---------------------------------------------------------------------------


def test_petersen_graph_is_its_own_3regular_subgraph():
    assert find_3regular_induced(petersen()) == frozenset(range(10))


def test_k4_contains_a_3regular_subgraph_but_k3_does_not():
    assert find_3regular_induced(complete_graph(4)) == frozenset(range(4))
    assert find_3regular_induced(complete_graph(3)) is None


def test_cycles_are_never_3regular():
    assert find_3regular_induced(cycle_graph(6)) is None


def test_3regular_search_agrees_with_definition():
    rng = random.Random(17)
    for _ in range(40):
        g = gnp_graph(7, 0.5, rng)
        found = find_3regular_induced(g)
        if found is None:
            # no vertex subset induces a 3-regular subgraph
            for size in range(4, 8):
                for combo in combinations(range(7), size):
                    inside = set(combo)
                    assert any(
                        len(g.neighbors(v) & inside) != 3 for v in combo
                    )
        else:
            for v in found:
                assert len(g.neighbors(v) & found) == 3


def test_find_clique_smallest_first():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    assert find_clique(g, 3) == frozenset({0, 1, 2})
    assert find_clique(g, 4) is None
    assert find_clique(g, 1) == frozenset({0})
    assert find_clique(g, 0) == frozenset()


def test_find_rb_dominating_minimal_budget():
    # blues 0,1 / reds 2,3; 0 covers both reds, 1 covers only 2
    g = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2)])
    assert find_rb_dominating(g, blue=[0, 1], red=[2, 3], k=1) == frozenset({0})
    assert find_rb_dominating(g, blue=[1], red=[2, 3], k=2) is None
    assert find_rb_dominating(g, blue=[0, 1], red=[], k=0) == frozenset()
