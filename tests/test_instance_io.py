"""Text formats (instances, profiles, graphs) and the seeded generator."""

import functools
import random
import time
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnpg import instance_io
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
    serialize_instance,
)

from helpers import (
    address_space_cap,
    coprime_game,
    gnp_graph,
    nx_graph,
    random_game,
    serialize_graph,
    star_graph,
)


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
        # int() would read these as 2, 10, 0 and 0: integer fields take
        # ASCII digits only
        ("bnpg 1\nn \u0662\n", 2, "player count is not an integer: '\u0662'"),
        ("bnpg 1\nn 2\ne 0 1_0\n", 3, "endpoint is not an integer: '1_0'"),
        ("bnpg 1\nn 1\nc \u0660 1\n", 3, "player is not an integer: '\u0660'"),
        ("bnpg 1\nn 1\nc 0 1\ng 0 0_0 1\n", 4, "externality index is not an integer: '0_0'"),
        ("bnpg 1\nn 2 7\n", 2, "expected: n <count>"),
        ("bnpg 1\nn 2\ne 0\n", 3, "expected: e <u> <v>"),
        ("bnpg 1\nn 1\nc 1 0\n", 3, "player 1 out of range [0, 1)"),
        ("bnpg 1\nn 1\ng 3 0 0\n", 3, "player 3 out of range [0, 1)"),
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


def test_a_declared_player_count_costs_nothing_before_the_checks():
    # 20 bytes declaring 10^8 players: the first missing entry is found
    # before anything of size n is built
    start = time.perf_counter()
    with address_space_cap(1 << 30), pytest.raises(ParseError) as err:
        parse_instance("bnpg 1\nn 100000000\n")
    assert time.perf_counter() - start < 1
    assert err.value.line is None
    assert str(err.value) == "incomplete externality table for player 0: missing g(0, 0)"


def _assert_same_core(parsed: Game, game: Game) -> None:
    assert parsed == game and hash(parsed) == hash(game)
    assert parsed.scale == game.scale
    assert parsed.scaled_ext == game.scaled_ext
    assert parsed.scaled_cost == game.scaled_cost


@pytest.mark.parametrize("draw", [random_game, coprime_game])
def test_parsed_games_have_the_int_core_of_their_fractions(draw):
    rng = random.Random(214)
    for _ in range(30):
        game = draw(gnp_graph(rng.randrange(0, 8), 0.5, rng), rng)
        parsed = parse_instance(serialize_instance(game))
        _assert_same_core(parsed, game)
        _assert_same_core(parsed, Game(game.graph, game.externality, game.cost))


@pytest.mark.parametrize("token", ["2/4", "0.50", "-0/7", "+3", "10/5"])
def test_tokens_scale_as_their_fractions(token):
    parsed = parse_instance(f"bnpg 1\nn 1\nc 0 {token}\ng 0 0 {token}\ng 0 1 1/3\n")
    value = Fraction(token)
    _assert_same_core(parsed, Game(Graph(1, frozenset()), ((value, Fraction(1, 3)),), (value,)))


@pytest.mark.parametrize("players", [None, 600])
def test_parsing_builds_no_fraction(players, monkeypatch):
    if players is None:
        text = SAMPLE
    else:
        text = serialize_instance(gen_random_game(GameSpec("caterpillar", n=players, seed=3)))
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    game = parse_instance(text)
    assert built == []
    monkeypatch.undo()
    # the Fraction view, built on first read, holds each token's value
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "g":
            value = game.externality[int(parts[1])][int(parts[2])]
        elif parts and parts[0] == "c":
            value = game.cost[int(parts[1])]
        else:
            continue
        assert isinstance(value, Fraction) and value == Fraction(parts[-1])


# ---------------------------------------------------------------------------
# the bulk path and the line loop
# ---------------------------------------------------------------------------


@functools.cache
def _benchmark_style_texts() -> tuple[str, ...]:
    """Canonical texts of games shaped like the benchmark's three workloads
    (large forests, a cycle and bounded_tw games, dense gnp games) for
    seeds 1-3."""
    texts = []
    for seed in (1, 2, 3):
        base = 100 * seed
        rng = random.Random(base)
        specs = [
            GameSpec("caterpillar", n=600, seed=base),
            GameSpec("caterpillar", n=600, seed=base + 1, g_mode="arbitrary", cost_mode="unit"),
            GameSpec("tree", n=600, seed=base + 2, cost_mode="zero"),
            GameSpec("tree", n=600, seed=base + 3, g_mode="arbitrary"),
            GameSpec(
                "twin_tree",
                seed=base + 4,
                multiplicities=tuple(rng.randint(1, 3) for _ in range(120)),
            ),
            GameSpec("cycle", n=300, seed=base + 5),
            GameSpec("bounded_tw", n=40, width=2, seed=base + 6, g_mode="arbitrary"),
            GameSpec("bounded_tw", n=60, width=2, seed=base + 7, cost_mode="unit"),
            GameSpec("gnp", n=12, p=0.8, seed=base + 8, g_mode="arbitrary"),
            GameSpec("gnp", n=13, p=0.8, seed=base + 9, g_mode="arbitrary", cost_mode="zero"),
            GameSpec("gnp", n=12, p=0.8, seed=base + 10, g_mode="homogeneous"),
        ]
        games = [gen_random_game(spec) for spec in specs]
        games.append(random_game(star_graph(200), rng, monotone=True))
        games.append(coprime_game(gnp_graph(12, 0.3, rng), rng))
        texts += [serialize_instance(game) for game in games]
    return tuple(texts)


def _outcome(parse, text):
    """What a parser makes of a text: the game's int core, or its error."""
    try:
        game = parse(text)
    except ParseError as err:
        return type(err), str(err), err.line
    return game.graph, game.scale, game.scaled_ext, game.scaled_cost


def test_both_paths_agree_on_benchmark_style_texts():
    for text in _benchmark_style_texts():
        assert _outcome(parse_instance, text) == _outcome(instance_io._parse_lines, text)


def test_the_bulk_path_carries_canonical_text(monkeypatch):
    expected = [instance_io._parse_lines(text) for text in _benchmark_style_texts()]

    def no_loop(text):
        raise AssertionError("canonical text reached the line loop")

    monkeypatch.setattr(instance_io, "_parse_lines", no_loop)
    for text, game in zip(_benchmark_style_texts(), expected):
        _assert_same_core(parse_instance(text), game)
    # without its trailing newline too
    _assert_same_core(parse_instance(_benchmark_style_texts()[-1][:-1]), expected[-1])


_SEPARATORS = ("\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def _record(lines: list[str], rng: random.Random) -> int:
    """The index of a random record line, of a random kind among e, c and g
    (a random line when there is none)."""
    kinds = {}
    for i, line in enumerate(lines[2:], start=2):
        kinds.setdefault(line[:1], []).append(i)
    groups = [kinds[k] for k in "ecg" if k in kinds]
    if not groups:
        return rng.randrange(len(lines)) if lines else 0
    return rng.choice(rng.choice(groups))


def _edit_token(line: str, rng: random.Random, edit, field: int | None = None) -> str:
    """The line with one of its fields after the directive edited: `field`
    counts from the end (-1 is the value), None picks one at random."""
    parts = line.split(" ")
    if len(parts) < 2:
        return line
    i = len(parts) + field if field is not None else rng.randrange(1, len(parts))
    parts[i] = edit(parts[i])
    return " ".join(parts)


def _perturb(text: str, n: int, rng: random.Random, kind: str) -> str:
    """The text with one edit of the given kind, for a game of n players."""
    lines = text.split("\n")
    if lines[-1] == "":
        del lines[-1]
    i = _record(lines, rng)
    line = lines[i] if lines else ""
    value = -1 if line[:1] in ("c", "g") else None  # a value field, if the line has one
    if kind == "comment":
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(("# note", "#", "  # x 1")))
    elif kind == "blank":
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(("", " ", "\t")))
    elif kind == "junk line":
        junk = ("x 1", "n 3", "bnpg 1", "e 0 1 2", "c 0", "g 0 0", "c 0 1 # x", "e0 1")
        junk += ("g 0 9 1", "g 9 0 1", "e 0 9", "c 9 1")  # well formed, out of range
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(junk))
    elif kind == "tab":
        lines[i] = line.replace(" ", rng.choice(("\t", "  ", " \t")), 1)
    elif kind == "trailing space":
        lines[i] = line + rng.choice((" ", "\t", "\xa0"))
    elif kind == "separator":
        sep = rng.choice(_SEPARATORS)
        if rng.random() < 0.5:
            return sep.join(lines) + sep
        lines[i:i + 1] = [line + sep + line]  # the line twice, split by sep
    elif kind == "separator inside":
        cut = rng.randrange(len(line) + 1)
        lines[i] = line[:cut] + rng.choice(_SEPARATORS) + line[cut:]
    elif kind == "non-ascii digit":
        digits = [j for j, ch in enumerate(line) if ch.isdigit()]
        if digits:
            j = rng.choice(digits)
            lines[i] = line[:j] + chr(0x660 + int(line[j])) + line[j + 1:]
    elif kind == "underscore":
        lines[i] = _edit_token(line, rng, lambda t: t[:1] + "_" + t[1:] if len(t) > 1 else "1_000")
    elif kind == "plus":
        lines[i] = _edit_token(line, rng, lambda t: "+" + t)
    elif kind == "minus zero":
        lines[i] = _edit_token(line, rng, lambda t: rng.choice(("-0", "-0/3", "-0.0")), value)
    elif kind == "leading zero":
        lines[i] = _edit_token(line, rng, lambda t: "0" + t)
    elif kind == "decimal":
        lines[i] = _edit_token(line, rng, lambda t: rng.choice((t + ".0", "2.25", "0.5", "1.")), value)
    elif kind == "ratio":
        ratios = ("{}/1", "6/4", "3/03", "5/0", "0/0", "1/000")
        lines[i] = _edit_token(line, rng, lambda t: rng.choice(ratios).format(t), value)
    elif kind == "reorder":
        body = lines[2:]
        rng.shuffle(body)
        lines[2:] = body
    elif kind == "drop":
        del lines[i:i + 1]
    elif kind == "duplicate":
        lines.insert(i, line)
    elif kind == "swap endpoints":
        parts = line.split(" ")
        if parts[0] == "e" and len(parts) == 3:
            lines.insert(i, f"e {parts[2]} {parts[1]}")
    elif kind == "negate":
        lines[i] = _edit_token(line, rng, lambda t: "-" + t, value if rng.random() < 0.7 else None)
    elif kind in ("out of range", "other player"):
        player = -3 if line[:1] == "g" else -2 if line[:1] in ("c", "e") else None
        low = n if kind == "out of range" else 0
        lines[i] = _edit_token(line, rng, lambda t: str(rng.randrange(low, n + 3)), player)
    elif kind == "index out of range":
        if line[:1] == "g":
            lines[i] = _edit_token(line, rng, lambda t: str(rng.randrange(2, 10)), -2)
    elif kind == "self-loop":
        v = rng.randrange(max(n, 1))
        lines.insert(rng.randrange(len(lines) + 1), f"e {v} {v}")
    elif kind == "replace":
        # a g line becomes a copy of another line of its player's table, a c
        # line a copy of another player's cost line: as many lines as before,
        # one slot written twice and another left empty
        rows = [j for j in range(2, len(lines)) if lines[j][:1] in ("c", "g")]
        if rows:
            i = rng.choice(rows)
            letter, player = lines[i][:1], lines[i].split()[1:2]
            same = [
                j for j in rows
                if j != i and lines[j][:1] == letter and (letter == "c" or lines[j].split()[1:2] == player)
            ]
            if same:
                lines[i] = lines[rng.choice(same)]
    else:
        raise AssertionError(kind)
    return "\n".join(lines) + "\n"


_PERTURBATIONS = (
    "comment", "blank", "junk line", "tab", "trailing space", "separator", "separator inside",
    "non-ascii digit", "underscore", "plus", "minus zero", "leading zero", "decimal", "ratio",
    "reorder", "drop", "duplicate", "swap endpoints", "negate", "out of range",
    "other player", "index out of range", "self-loop", "replace",
)


def _assert_paths_agree(seed: int, kinds) -> None:
    # parse_instance and the line loop give the same game or the same error
    rng = random.Random(seed)
    draw = coprime_game if rng.random() < 0.3 else random_game
    n = rng.randrange(0, 7)
    text = serialize_instance(draw(gnp_graph(n, 0.5, rng), rng))
    for kind in kinds:
        text = _perturb(text, n, rng, kind)
    assert _outcome(parse_instance, text) == _outcome(instance_io._parse_lines, text)


@pytest.mark.parametrize("kind", _PERTURBATIONS)
def test_both_paths_agree_on_each_perturbation(kind):
    for seed in range(100):
        _assert_paths_agree(seed, [kind])


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from(_PERTURBATIONS), min_size=1, max_size=3),
)
def test_both_paths_agree_on_perturbed_text(seed, kinds):
    _assert_paths_agree(seed, kinds)


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
        ("n 3 7\n", "line 1: expected: n <count>"),
        ("n 3\ne 0 1\ne 1 0\n", r"line 3: duplicate edge \(0, 1\)"),
        ("n 3\ne 0 1_0\n", "line 2: endpoint is not an integer: '1_0'"),
        ("n \u0662\n", "line 1: vertex count is not an integer: '\u0662'"),
        ("n 3\nred \u0660\n", "line 2: vertex is not an integer: '\u0660'"),
        ("n 3\nred 0 x\n", "line 2: vertex is not an integer: 'x'"),
        ("n -1\n", "line 1: vertex count must be >= 0"),
        ("n 3\ne 0\n", "line 2: expected: e <u> <v>"),
        ("n 3\ne 1 1\n", "line 2: self-loop at 1"),
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
    assert len(tree.edges) == 16 and nx.is_connected(nx_graph(tree))


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
    with pytest.raises(ValueError, match="sum of the block sizes"):
        GameSpec("twin_tree", n=5, multiplicities=(1, 2))
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
