"""Core semantics: graphs, payoffs, stability, welfare, exact coercion."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnpg.game import (
    _RATIONAL_TOKEN,
    Game,
    Graph,
    Profile,
    deviation_gain,
    esw,
    is_psne,
    is_stable,
    payoff,
    payoff_levels,
    read_token,
    stability_rows,
    usw,
)
from bnpg.instance_io import parse_instance, serialize_instance

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

# the 25 values of st.fractions(min_value=0, max_value=4, max_denominator=4),
# which draws them about ten times slower
RATIONALS = st.sampled_from(sorted({Fraction(p, q) for q in range(1, 5) for p in range(4 * q + 1)}))


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
    return Game(graph, ext, cost)


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
    assert [len(g.closed_neighbors(v)) for v in range(4)] == [g.degree(v) + 1 for v in range(4)]
    assert g.closed_neighbors(1) == frozenset({0, 1, 2})
    assert g.neighbors(1) == frozenset({0, 2})


def test_zero_player_graph_is_fine():
    g = Graph.from_edges(0, [])
    assert g.player_count == 0
    assert g.edges == frozenset()


# ---------------------------------------------------------------------------
# Game construction
# ---------------------------------------------------------------------------


def test_externality_table_must_cover_closed_degree_range():
    g = path_graph(2)
    with pytest.raises(ValueError):
        Game(g, [(0, 1), (0, 1, 2)], [0, 0])  # player 0 needs 3 values


def test_negative_values_rejected():
    g = path_graph(2)
    with pytest.raises(ValueError):
        Game(g, [(0, 1, -1), (0, 1, 2)], [0, 0])
    with pytest.raises(ValueError):
        Game(g, [(0, 1, 2), (0, 1, 2)], [-1, 0])


def test_build_coerces_strings_and_ints():
    g = path_graph(2)
    game = Game(g, [("1/2", 1, "1.5"), (0, "2", 3)], ["0.25", 1])
    assert game.externality[0] == (Fraction(1, 2), Fraction(1), Fraction(3, 2))
    assert game.cost[0] == Fraction(1, 4)


@pytest.mark.parametrize(
    "token", ["1e1000000", "2.5E3", ".5", "5.", "1_000", "\u0661", " 3", "1/0"]
)
def test_build_rejects_strings_that_are_not_exact_rationals(token):
    # the instance parser's grammar: [+-]?[0-9]+ then optionally .[0-9]+ or /[0-9]+
    with pytest.raises(ValueError, match="not an exact rational"):
        Game(Graph.from_edges(1, []), [(0, 0)], [token])
    with pytest.raises(ValueError, match="not an exact rational"):
        Game(Graph.from_edges(1, []), [(token, 0)], [0])
    # the message names the player and the field, as the TypeError does
    with pytest.raises(ValueError) as err:
        Game(Graph.from_edges(2, []), [(0, 0), (0, 0)], [0, token])
    assert str(err.value) == f"player 1: cost {token!r} is not an exact rational"


def test_build_accepts_every_form_of_the_number_grammar():
    game = Game(Graph.from_edges(1, []), [("3/4", "+2")], ["007.50"])
    assert game.externality[0] == (Fraction(3, 4), Fraction(2))
    assert game.cost[0] == Fraction(15, 2)


@given(st.from_regex(_RATIONAL_TOKEN, fullmatch=True))
def test_as_fraction_reads_every_token_of_the_grammar_as_fraction_does(token):
    try:
        expected = Fraction(token)
    except ZeroDivisionError:
        with pytest.raises(ValueError, match="not an exact rational"):
            read_token(token)
    else:
        assert Fraction(*read_token(token)) == expected


@pytest.mark.parametrize(
    "token, value",
    [("-0", 0), ("+0.50", Fraction(1, 2)), ("007.50", Fraction(15, 2)), ("-3/6", Fraction(-1, 2))],
)
def test_as_fraction_keeps_signs_and_reduces(token, value):
    assert read_token(token) == (value.numerator, value.denominator)


@pytest.mark.parametrize("token", ["1/0", "3/000", "-0/0"])
def test_as_fraction_rejects_zero_denominators(token):
    with pytest.raises(ValueError, match="not an exact rational"):
        read_token(token)


@pytest.mark.parametrize("bad", [0.5, None])
def test_game_rejects_entries_that_are_not_ints_or_fractions(bad):
    g = path_graph(2)
    with pytest.raises(TypeError, match="player 1: externality value"):
        Game(g, ((0, 1, 2), (0, bad, 2)), (0, 0))
    with pytest.raises(TypeError, match="player 1: cost"):
        Game(g, ((0, 1, 2), (0, 1, 2)), (0, bad))


def test_game_scales_once_and_keeps_the_ints_out_of_eq_hash_and_repr():
    game = Game(path_graph(2), [("1/2", 1, "3/4"), (0, "1/3", 1)], ["1/6", 0])
    assert game.scale == 12
    assert game.scaled_ext == ((6, 12, 9), (0, 4, 12))
    assert game.scaled_cost == (2, 0)
    assert "scale" not in repr(game)
    other = Game(game.graph, game.externality, game.cost)
    object.__setattr__(other, "scale", 24)
    object.__setattr__(other, "scaled_ext", ((12, 24, 18), (0, 8, 24)))
    object.__setattr__(other, "scaled_cost", (4, 0))
    assert other == game and hash(other) == hash(game)
    assert parse_instance(serialize_instance(game)) == game


def test_a_game_from_strings_equals_the_parsed_text():
    graph = Graph.from_edges(3, [(0, 1), (1, 2)])
    ext = [("0", "1/2", "3/4"), ("0.5", "1", "2", "9/6"), ("1/3", "0", "7")]
    cost = ["1/6", "0", "2.25"]
    lines = ["bnpg 1", "n 3", "e 0 1", "e 1 2"]
    lines += [f"c {v} {c}" for v, c in enumerate(cost)]
    lines += [f"g {v} {k} {x}" for v, row in enumerate(ext) for k, x in enumerate(row)]
    game, parsed = Game(graph, ext, cost), parse_instance("\n".join(lines) + "\n")
    assert game == parsed and hash(game) == hash(parsed)
    assert game.scale == parsed.scale == 12
    assert game.scaled_ext == parsed.scaled_ext
    assert game.scaled_cost == parsed.scaled_cost


def test_game_is_immutable():
    game = best_shot_game(path_graph(2))
    with pytest.raises(AttributeError):
        game.scale = 2
    with pytest.raises(AttributeError):
        game.externality = ()
    with pytest.raises(AttributeError):
        del game.graph


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


@pytest.mark.parametrize(
    "invests, count",
    [(True, 0), (True, 3), (False, -1), (False, 2)],
)
def test_is_stable_rejects_counts_no_profile_realizes(invests, count):
    # one edge: player 0 has degree 1, so an investor sees 1..2 investors
    # and an abstainer 0..1
    game = best_shot_game(path_graph(2))
    with pytest.raises(ValueError, match=f"player 0: .* cannot have {count} investors"):
        is_stable(game, 0, invests, count)


@pytest.mark.parametrize("v", [-1, 2])
def test_is_stable_rejects_players_out_of_range(v):
    with pytest.raises(IndexError, match=f"player {v} out of range"):
        is_stable(best_shot_game(path_graph(2)), v, True, 1)


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
        dens = [x.denominator for t in game.externality for x in t]
        dens += [c.denominator for c in game.cost]
        assert game.scale == math.lcm(*dens)
        scales.add(game.scale)
        for v in range(game.player_count):
            assert [Fraction(x, game.scale) for x in game.scaled_ext[v]] == list(
                game.externality[v]
            )
            assert Fraction(game.scaled_cost[v], game.scale) == game.cost[v]
        assert payoff_levels(game) == _fraction_levels(game)
    assert max(scales) == 1155


def _check_stability_rows(game):
    rows = stability_rows(game)
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
    game = Game(Graph.from_edges(0, []), [], [])
    assert usw(game, Profile.of()) == 0


def test_esw_undefined_for_zero_players():
    game = Game(Graph.from_edges(0, []), [], [])
    with pytest.raises(ValueError):
        esw(game, Profile.of())


def test_evaluators_of_a_parsed_game_build_only_their_answers(monkeypatch):
    rng = random.Random(214)
    game = parse_instance(serialize_instance(coprime_game(gnp_graph(6, 0.5, rng), rng)))
    profile = Profile.of(0, 2, 3)
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    answers = [payoff(game, profile, v) for v in range(6)]
    answers += [deviation_gain(game, profile, v) for v in range(6)]
    answers += [usw(game, profile), esw(game, profile)]
    # one Fraction per answer: no Fraction view of the game is built
    assert len(built) == len(answers) == 14
    monkeypatch.undo()
    pays = [
        game.externality[v][profile.closed_count(game.graph, v)] - (game.cost[v] if v in profile else 0)
        for v in range(6)
    ]
    assert answers[:6] == pays
    assert answers[12:] == [sum(pays), min(pays)]


@given(games_with_profile())
@settings(max_examples=150, deadline=None)
def test_usw_is_sum_and_esw_is_min(pair):
    game, profile = pair
    pays = [payoff(game, profile, v) for v in range(game.graph.player_count)]
    assert usw(game, profile) == sum(pays)
    assert esw(game, profile) == min(pays)
