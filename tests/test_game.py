"""Core semantics: graphs, payoffs, stability, welfare, exact coercion."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnpg.game import (
    Game,
    Graph,
    Profile,
    deviation_gain,
    esw,
    is_psne,
    is_stable,
    payoff,
    payoff_levels,
    scale_game,
    stability_rows,
    usw,
)

from helpers import (
    best_shot_game,
    complete_graph,
    coprime_game,
    gnp_graph,
    path_graph,
    random_game,
)


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

RATIONALS = st.fractions(min_value=0, max_value=4, max_denominator=4)


@st.composite
def games(draw, min_n=1, max_n=6):
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    graph = Graph.from_edges(n, sorted(edges))
    ext = []
    for v in range(n):
        width = graph.degree(v) + 2
        ext.append(tuple(draw(st.lists(RATIONALS, min_size=width, max_size=width))))
    cost = [draw(RATIONALS) for _ in range(n)]
    return Game.build(graph, ext, cost)


@st.composite
def games_with_profile(draw, max_n=6):
    game = draw(games(max_n=max_n))
    n = game.graph.player_count
    investing = draw(st.sets(st.integers(0, n - 1)))
    return game, Profile(frozenset(investing))


# ---------------------------------------------------------------------------
# Graph invariants
# ---------------------------------------------------------------------------


def test_graph_rejects_self_loops():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])


def test_graph_rejects_out_of_range_endpoint():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])


def test_graph_rejects_duplicate_edges():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), (1, 0)])


def test_degrees_and_closed_neighborhoods():
    g = path_graph(4)
    assert [g.degree(v) for v in range(4)] == [1, 2, 2, 1]
    assert [g.closed_degree(v) for v in range(4)] == [2, 3, 3, 2]
    assert g.closed_neighbors(1) == frozenset({0, 1, 2})
    assert g.neighbors(1) == frozenset({0, 2})


def test_components_are_sorted_partitions():
    g = Graph.from_edges(6, [(0, 1), (3, 4)])
    assert g.components() == ((0, 1), (2,), (3, 4), (5,))


def test_zero_player_graph_is_fine():
    g = Graph.from_edges(0, [])
    assert g.player_count == 0
    assert g.components() == ()


# ---------------------------------------------------------------------------
# Game construction
# ---------------------------------------------------------------------------


def test_externality_table_must_cover_closed_degree_range():
    g = path_graph(2)
    with pytest.raises(ValueError):
        Game.build(g, [(0, 1), (0, 1, 2)], [0, 0])  # player 0 needs 3 values


def test_negative_values_rejected():
    g = path_graph(2)
    with pytest.raises(ValueError):
        Game.build(g, [(0, 1, -1), (0, 1, 2)], [0, 0])
    with pytest.raises(ValueError):
        Game.build(g, [(0, 1, 2), (0, 1, 2)], [-1, 0])


def test_build_coerces_strings_and_ints():
    g = path_graph(2)
    game = Game.build(g, [("1/2", 1, "1.5"), (0, "2", 3)], ["0.25", 1])
    assert game.externality[0] == (Fraction(1, 2), Fraction(1), Fraction(3, 2))
    assert game.cost[0] == Fraction(1, 4)


@pytest.mark.parametrize(
    "token", ["1e1000000", "2.5E3", ".5", "5.", "1_000", "\u0661", " 3", "1/0"]
)
def test_build_rejects_strings_that_are_not_exact_rationals(token):
    # the instance parser's grammar: [+-]?[0-9]+ then optionally .[0-9]+ or /[0-9]+
    with pytest.raises(ValueError, match="not an exact rational"):
        Game.build(Graph.from_edges(1, []), [(0, 0)], [token])
    with pytest.raises(ValueError, match="not an exact rational"):
        Game.build(Graph.from_edges(1, []), [(token, 0)], [0])


def test_build_accepts_every_form_of_the_number_grammar():
    game = Game.build(Graph.from_edges(1, []), [("3/4", "+2")], ["007.50"])
    assert game.externality[0] == (Fraction(3, 4), Fraction(2))
    assert game.cost[0] == Fraction(15, 2)


# ---------------------------------------------------------------------------
# Payoffs and deviation
# ---------------------------------------------------------------------------


def test_payoff_counts_closed_neighborhood_investors():
    # path a-b-c, only b invests
    game = best_shot_game(path_graph(3))
    s = Profile.of(1)
    assert payoff(game, s, 0) == 1  # a sees b
    assert payoff(game, s, 1) == Fraction(1, 2)  # b pays its cost
    assert payoff(game, s, 2) == 1


def test_investing_player_counts_itself():
    game = best_shot_game(path_graph(2), cost=Fraction(0))
    assert payoff(game, Profile.of(0), 0) == 1


@given(games_with_profile())
@settings(max_examples=200, deadline=None)
def test_stability_matches_deviation_gain(pair):
    game, profile = pair
    for v in range(game.graph.player_count):
        invests = v in profile
        count = profile.closed_count(game.graph, v)
        assert is_stable(game, v, invests, count) == (
            deviation_gain(game, profile, v) <= 0
        )


@given(games_with_profile())
@settings(max_examples=200, deadline=None)
def test_psne_means_no_profitable_deviation(pair):
    game, profile = pair
    expected = all(
        deviation_gain(game, profile, v) <= 0
        for v in range(game.graph.player_count)
    )
    assert is_psne(game, profile) == expected


@given(games_with_profile())
@settings(max_examples=200, deadline=None)
def test_flip_is_an_involution(pair):
    game, profile = pair
    for v in range(game.graph.player_count):
        assert profile.flip(v).flip(v) == profile


@given(games_with_profile())
@settings(max_examples=150, deadline=None)
def test_every_payoff_is_a_known_level(pair):
    game, profile = pair
    levels = set(payoff_levels(game))
    for v in range(game.graph.player_count):
        assert payoff(game, profile, v) in levels


def _fraction_levels(game):
    """payoff_levels as computed in Fractions, for reference."""
    values = set()
    for v in range(game.player_count):
        for value in game.externality[v]:
            values.add(value)
            values.add(value - game.cost[v])
    return sorted(values)


def test_scaling_is_exact_on_coprime_denominators():
    rng = random.Random(112)
    scales = set()
    for _ in range(40):
        game = coprime_game(gnp_graph(rng.randrange(0, 7), 0.5, rng), rng)
        scaled = scale_game(game)
        dens = [x.denominator for t in game.externality for x in t]
        dens += [c.denominator for c in game.cost]
        assert scaled.scale == math.lcm(*dens)
        scales.add(scaled.scale)
        for v in range(game.player_count):
            assert [Fraction(x, scaled.scale) for x in scaled.ext[v]] == list(
                game.externality[v]
            )
            assert Fraction(scaled.cost[v], scaled.scale) == game.cost[v]
        assert payoff_levels(game) == _fraction_levels(game)
    assert max(scales) == 1155


def _check_stability_rows(game):
    rows = stability_rows(scale_game(game))
    assert len(rows) == game.player_count
    for v, (abstain, invest) in enumerate(rows):
        top = game.graph.degree(v) + 1
        assert len(abstain) == len(invest) == top + 1
        assert invest[0] is None  # an investor counts itself
        assert abstain[top] is None  # an abstainer has at most deg investors
        for k in range(top):
            assert abstain[k] == (True if is_stable(game, v, False, k) else None)
        for k in range(1, top + 1):
            assert invest[k] == (True if is_stable(game, v, True, k) else None)


def test_stability_rows_match_is_stable_on_random_games():
    rng = random.Random(120)
    for _ in range(40):
        _check_stability_rows(random_game(gnp_graph(rng.randrange(0, 7), 0.5, rng), rng))


def test_stability_rows_match_is_stable_on_coprime_games():
    rng = random.Random(121)
    for _ in range(40):
        _check_stability_rows(coprime_game(gnp_graph(rng.randrange(0, 7), 0.5, rng), rng))


def test_profile_validation_rejects_out_of_range():
    game = best_shot_game(path_graph(2))
    with pytest.raises(IndexError):
        Profile.of(5).validate_for(game)


# ---------------------------------------------------------------------------
# Welfare
# ---------------------------------------------------------------------------


def test_welfare_on_a_triangle():
    game = best_shot_game(complete_graph(3), cost=Fraction(1, 4))
    s = Profile.of(0)
    assert usw(game, s) == Fraction(11, 4)  # 3/4 + 1 + 1
    assert esw(game, s) == Fraction(3, 4)


def test_usw_of_zero_players_is_zero():
    game = Game.build(Graph.from_edges(0, []), [], [])
    assert usw(game, Profile.of()) == 0


def test_esw_undefined_for_zero_players():
    game = Game.build(Graph.from_edges(0, []), [], [])
    with pytest.raises(ValueError):
        esw(game, Profile.of())


@given(games_with_profile())
@settings(max_examples=150, deadline=None)
def test_usw_is_sum_and_esw_is_min(pair):
    game, profile = pair
    pays = [payoff(game, profile, v) for v in range(game.graph.player_count)]
    assert usw(game, profile) == sum(pays)
    assert esw(game, profile) == min(pays)
