"""Text formats (instances, profiles, graphs) and the seeded generator."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bnpg.critical_clique import build_cc_graph
from bnpg.decomposition import heuristic_decomposition
from bnpg.game import Game, Graph
from bnpg.instance_io import (
    GameSpec,
    ParseError,
    format_rational,
    gen_random_game,
    parse_graph,
    parse_instance,
    serialize_graph,
    serialize_instance,
)

from helpers import gnp_graph, random_game


SAMPLE = """# a 3-path with rational data
bnpg 1
n 3
e 0 1
e 1 2
c 0 1/2
c 1 0
c 2 2
g 0 0 0
g 0 1 1
g 0 2 1
g 1 0 0
g 1 1 3/4
g 1 2 3/4
g 1 3 3/4
g 2 0 0
g 2 1 1
g 2 2 1
"""


def test_parse_sample():
    game = parse_instance(SAMPLE)
    assert game.player_count == 3
    assert game.graph.edges == frozenset({(0, 1), (1, 2)})
    assert game.cost == (Fraction(1, 2), Fraction(0), Fraction(2))
    assert game.externality[1] == (0, Fraction(3, 4), Fraction(3, 4), Fraction(3, 4))


def test_round_trip_is_exact():
    rng = random.Random(202)
    for _ in range(30):
        g = gnp_graph(rng.randrange(0, 8), 0.5, rng)
        game = random_game(g, rng)
        text = serialize_instance(game)
        assert parse_instance(text) == game
        # canonical form is a fixed point
        assert serialize_instance(parse_instance(text)) == text


def test_serialized_form_is_line_oriented():
    game = parse_instance(SAMPLE)
    lines = serialize_instance(game).splitlines()
    assert lines[0] == "bnpg 1"
    assert lines[1] == "n 3"
    assert "c 0 1/2" in lines
    assert "g 1 3 3/4" in lines


@pytest.mark.parametrize(
    "text, line, fragment",
    [
        ("", 1, "empty input"),
        ("bnpg 2\nn 0\n", 1, "unsupported header"),
        ("bnpg 1\ne 0 1\n", 2, "before the player count"),
        ("bnpg 1\nn 2\nn 2\n", 3, "duplicate player-count"),
        ("bnpg 1\nn -1\n", 2, "must be >= 0"),
        ("bnpg 1\nn 2\ne 0 0\n", 3, "self-loop"),
        ("bnpg 1\nn 2\ne 0 1\ne 1 0\n", 4, "duplicate edge"),
        ("bnpg 1\nn 2\ne 0 5\n", 3, "out of range"),
        ("bnpg 1\nn 1\nc 0 1\nc 0 2\n", 4, "duplicate cost"),
        ("bnpg 1\nn 1\nc 0 -3\n", 3, "nonnegative"),
        ("bnpg 1\nn 1\nc 0 1/0\n", 3, "exact rational"),
        ("bnpg 1\nn 1\nc 0 1\ng 0 5 1\n", 4, "out of range for player 0"),
        ("bnpg 1\nn 1\nx 0\n", 3, "unknown directive"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert err.value.line == line
    assert fragment in str(err.value)


def test_first_out_of_range_index_goes_by_player_then_line():
    # player 1's bad index comes first in the file, but players are checked
    # in order, and within player 0 the earlier of its two bad lines wins
    text = (
        "bnpg 1\nn 2\nc 0 1\nc 1 1\n"
        "g 1 0 0\ng 1 9 1\ng 0 0 0\ng 0 4 1\ng 0 3 2\ng 0 1 0\ng 1 1 0\n"
    )
    with pytest.raises(ParseError, match="index 4 out of range for player 0") as err:
        parse_instance(text)
    assert err.value.line == 8


def _cost_line(token: str) -> str:
    return f"bnpg 1\nn 1\nc 0 {token}\ng 0 0 0\ng 0 1 0\n"


@given(st.text(alphabet="0123456789+-./eE_ainf", min_size=1, max_size=12))
def test_short_tokens_parse_as_before_or_are_rejected(token):
    # hypothesis's per-example deadline also fails a slow rejection
    try:
        game = parse_instance(_cost_line(token))
    except ParseError as err:
        assert err.line == 3
    else:
        assert game.cost[0] == Fraction(token)


@given(
    st.integers(0, 10**9),
    st.integers(0, 10**9),
    st.integers(1, 10**9),
    st.sampled_from(("{a}", "+{a}", "{a}.{b}", "{a}/{q}")),
)
def test_documented_number_forms_are_accepted(a, b, q, form):
    token = form.format(a=a, b=b, q=q)
    assert parse_instance(_cost_line(token)).cost[0] == Fraction(token)


@pytest.mark.parametrize("token", ["-0", "-0.00", "-0/7", "+0"])
def test_negative_zero_is_nonnegative(token):
    assert parse_instance(_cost_line(token)).cost[0] == 0


@pytest.mark.parametrize("token", ["1e1000000", "2.5E3", "1e3", ".5", "5.", "1_000"])
def test_undocumented_number_forms_are_rejected(token):
    with pytest.raises(ParseError, match="not an exact rational") as err:
        parse_instance(_cost_line(token))
    assert err.value.line == 3


def test_whole_file_errors_have_no_line():
    with pytest.raises(ParseError, match="missing g\\(0, 1\\)") as err:
        parse_instance("bnpg 1\nn 1\nc 0 1\ng 0 0 0\n")
    assert err.value.line is None
    with pytest.raises(ParseError, match="missing cost for player 0"):
        parse_instance("bnpg 1\nn 1\ng 0 0 0\ng 0 1 0\n")


def test_comments_and_blank_lines_are_ignored():
    noisy = SAMPLE.replace("n 3", "n 3\n\n# interlude\n")
    assert parse_instance(noisy) == parse_instance(SAMPLE)


def test_format_rational():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(7, 2)) == "7/2"
    assert format_rational(Fraction(0)) == "0"


def test_graph_round_trip():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    red = frozenset({1, 3})
    text = serialize_graph(g, red)
    g2, red2 = parse_graph(text)
    assert g2 == g and red2 == red
    g3, red3 = parse_graph("n 2\ne 0 1\n")
    assert red3 == frozenset()


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("e 0 1\n", "before the vertex count"),
        ("n 3\ne 0 3\n", "out of range"),
        ("n 3\nred 9\n", "out of range"),
        ("n 3\nfoo\n", "unknown directive"),
        ("", "missing vertex count"),
    ],
)
def test_graph_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_graph(text)


# ---------------------------------------------------------------------------
# the seeded generator
# ---------------------------------------------------------------------------


def test_generator_is_deterministic():
    spec = GameSpec(family="gnp", n=12, seed=9, p=0.4, g_mode="arbitrary")
    assert gen_random_game(spec) == gen_random_game(spec)
    other = GameSpec(family="gnp", n=12, seed=10, p=0.4, g_mode="arbitrary")
    assert gen_random_game(spec) != gen_random_game(other)


def test_family_shapes():
    assert gen_random_game(GameSpec("path", n=5)).graph.edges == frozenset(
        {(0, 1), (1, 2), (2, 3), (3, 4)}
    )
    cyc = gen_random_game(GameSpec("cycle", n=5)).graph
    assert all(cyc.degree(v) == 2 for v in range(5))
    k4 = gen_random_game(GameSpec("clique", n=4)).graph
    assert len(k4.edges) == 6
    tree = gen_random_game(GameSpec("tree", n=17, seed=3)).graph
    assert len(tree.edges) == 16 and len(tree.components()) == 1


def test_caterpillar_has_a_spine():
    game = gen_random_game(GameSpec("caterpillar", n=11, seed=4))
    spine = 6  # max(1, (n + 1) // 2)
    for i in range(spine - 1):
        assert game.graph.has_edge(i, i + 1)
    for leg in range(spine, 11):
        assert game.graph.degree(leg) == 1


def test_twin_tree_realizes_blocks():
    spec = GameSpec("twin_tree", seed=5, multiplicities=(3, 2, 4, 1))
    game = gen_random_game(spec)
    assert game.player_count == 10
    cc = build_cc_graph(game.graph)
    assert len(cc.cliques) == 4
    sizes = sorted(len(k) for k in cc.cliques)
    assert sizes == [1, 2, 3, 4]


def test_bounded_tw_stays_under_the_target():
    for seed in range(5):
        spec = GameSpec("bounded_tw", n=20, seed=seed, width=3)
        game = gen_random_game(spec)
        assert heuristic_decomposition(game.graph).width() <= 3


def test_homogeneous_mode_shares_tables_and_costs():
    game = gen_random_game(GameSpec("gnp", n=10, seed=6, p=0.5, g_mode="homogeneous"))
    assert len(set(game.cost)) == 1
    widest = max(game.externality, key=len)
    for row in game.externality:
        assert row == widest[: len(row)]


def test_cost_modes():
    zero = gen_random_game(GameSpec("path", n=6, cost_mode="zero"))
    assert set(zero.cost) == {Fraction(0)}
    unit = gen_random_game(GameSpec("path", n=6, cost_mode="unit"))
    assert set(unit.cost) == {Fraction(1)}


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown family"):
        GameSpec("torus", n=3)
    with pytest.raises(ValueError, match="unknown g_mode"):
        GameSpec("path", n=3, g_mode="spiky")
    with pytest.raises(ValueError, match="unknown cost_mode"):
        GameSpec("path", n=3, cost_mode="negative")
    with pytest.raises(ValueError, match="multiplicities"):
        GameSpec("twin_tree", multiplicities=(2, 0))
    with pytest.raises(ValueError, match="n must be >= 0"):
        GameSpec("path", n=-1)


@pytest.mark.parametrize("p", [1.5, -0.5, float("nan"), float("inf")])
def test_spec_rejects_probabilities_outside_the_unit_interval(p):
    with pytest.raises(ValueError, match=r"p must be in \[0, 1\]"):
        GameSpec("gnp", n=5, p=p)


@pytest.mark.parametrize("width", [0, -3])
def test_spec_rejects_widths_below_one(width):
    with pytest.raises(ValueError, match="width must be >= 1"):
        GameSpec("bounded_tw", n=5, width=width)


def test_spec_accepts_the_boundary_values():
    assert gen_random_game(GameSpec("gnp", n=5, p=0)).graph.edges == frozenset()
    assert len(gen_random_game(GameSpec("gnp", n=5, p=1)).graph.edges) == 10
    path = gen_random_game(GameSpec("bounded_tw", n=6, width=1, seed=2)).graph
    assert len(path.edges) == 5  # width 1 grows a tree


def test_generated_games_serialize():
    for family in ("path", "cycle", "clique", "tree", "caterpillar", "gnp"):
        spec = GameSpec(family, n=7, seed=11)
        game = gen_random_game(spec)
        assert parse_instance(serialize_instance(game)) == game
