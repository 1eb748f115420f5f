"""The exhaustive reference solvers and the search helpers built on them."""

import random
from fractions import Fraction
from itertools import combinations, count
from types import SimpleNamespace

import pytest

from bnpg import oracle
from bnpg.game import Game, Graph, Profile, esw, is_psne, usw
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
    reference_enum_psne,
    reference_max_esw,
    reference_max_usw,
)


def test_single_player_wants_to_invest():
    game = Game(Graph.from_edges(1, []), [(0, 2)], [1])
    assert enum_psne(game) == [Profile.of(0)]
    assert first_psne(game) == Profile.of(0)


def test_single_player_never_invests_when_cost_dominates():
    game = Game(Graph.from_edges(1, []), [(0, 2)], [3])
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
    game = Game(g, [(0,) * (g.degree(v) + 2) for v in range(3)], [0, 0, 0])
    assert max_usw(game)[0] == Profile.of()
    assert max_esw(game)[0] == Profile.of()


def test_max_esw_rejects_zero_players():
    game = Game(Graph.from_edges(0, []), [], [])
    with pytest.raises(ValueError):
        max_esw(game)


def test_player_cap_is_enforced():
    g = Graph.from_edges(21, [])
    game = Game(g, [(0, 0)] * 21, [0] * 21)
    with pytest.raises(LimitExceeded):
        enum_psne(game)
    small = Game(Graph.from_edges(3, []), [(0, 0)] * 3, [0] * 3)
    with pytest.raises(LimitExceeded):
        enum_psne(small, OracleLimits(max_players=2))
    # indifferent everywhere: every one of the 8 profiles is an equilibrium
    assert len(enum_psne(small, OracleLimits(max_players=3))) == 8


def test_time_budget_is_enforced():
    g = Graph.from_edges(16, [])
    game = Game(g, [(0, 0)] * 16, [0] * 16)
    with pytest.raises(LimitExceeded):
        enum_psne(game, OracleLimits(time_budget=0.0))


def _eager_investors(n: int) -> Game:
    """n isolated players who each strictly prefer to invest.  The only
    equilibrium is the last mask and the graph has no 3-regular subgraph, so
    every enumeration visits all 2^n masks."""
    return Game(Graph.from_edges(n, []), [(0, 2)] * n, [1] * n)


ENUMERATIONS = {
    "enum_psne": enum_psne,
    "first_psne": first_psne,
    "max_usw": max_usw,
    "max_esw": max_esw,
    "find_3regular_induced": lambda game, limits: find_3regular_induced(game.graph, limits),
}


@pytest.mark.parametrize("name", sorted(ENUMERATIONS))
def test_every_enumeration_honours_a_zero_time_budget(name):
    with pytest.raises(LimitExceeded, match="time budget"):
        ENUMERATIONS[name](_eager_investors(16), OracleLimits(time_budget=0.0))


@pytest.mark.parametrize("name", sorted(ENUMERATIONS))
def test_the_time_budget_is_checked_at_every_stride(name, monkeypatch):
    # A clock that reads 1, 2, 3, ... per call: the deadline is 1 + 2.5.  The
    # checks come at masks 0, 4096, 8192, ..., and the third check reads 4.
    def run(n: int) -> int:
        reads = count(1)
        monkeypatch.setattr(oracle, "time", SimpleNamespace(monotonic=lambda: next(reads)))
        ENUMERATIONS[name](_eager_investors(n), OracleLimits(time_budget=2.5))
        return next(reads) - 1

    assert run(13) == 3  # 8192 masks: no third check
    with pytest.raises(LimitExceeded, match="time budget"):
        run(14)
    assert run(2) == 2  # one stride: one check


def _tie_and_sign_heavy_games():
    rng = random.Random(15)

    def bits(width: int) -> tuple[int, ...]:
        return tuple(int(rng.random() < 0.85) for _ in range(width))

    for _ in range(8):
        n = rng.randrange(8, 13)
        graph = gnp_graph(n, rng.choice((0.2, 0.5, 0.8)), rng)
        widths = [graph.degree(v) + 2 for v in range(n)]
        # payoffs in {0, 1} (free investment) or {-1, 0, 1}: ties everywhere
        yield Game(graph, [bits(w) for w in widths], [0] * n)
        yield Game(graph, [bits(w) for w in widths], [int(rng.random() < 0.3) for _ in range(n)])
        # costs above every g: each investor's payoff is negative, so the
        # all-abstain profile wins
        ext = [tuple(rng.randrange(4) for _ in range(w)) for w in widths]
        yield Game(graph, ext, [rng.randrange(4, 7) for _ in range(n)])
        # g(0) = 0 for everyone: the all-abstain profile scores 0
        ext = [(0,) + tuple(rng.randrange(1, 3) for _ in range(w - 1)) for w in widths]
        yield Game(graph, ext, [rng.randrange(2) for _ in range(n)])
        yield Game(graph, [(0,) * w for w in widths], [0] * n)
    for n in (8, 10, 12):
        yield best_shot_game(path_graph(n))
        yield best_shot_game(cycle_graph(n))


def test_the_esw_cut_keeps_the_full_scans_answer_and_tie_break():
    games = list(_tie_and_sign_heavy_games())
    assert len(games) == 46
    above_abstain = 0
    for game in games:
        profile, value = max_esw(game)
        assert (profile, value) == reference_max_esw(game)
        above_abstain += value > esw(game, Profile.of())
    assert above_abstain >= 20  # most optima need investors


def test_max_usw_equals_the_definitional_scan_on_tie_and_sign_heavy_games():
    for game in _tie_and_sign_heavy_games():
        assert max_usw(game) == reference_max_usw(game)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 9, 15, 16, 17])
def test_max_usw_equals_the_definitional_scan_across_block_edges(n):
    # max_usw scores masks in blocks of 2^min(8, ceil(n/2)) low bits: these
    # counts sit on both sides of every edge of that split, and the last
    # three span several blocks per time-budget stride.  The coprime
    # denominators make the game's integer scale large.
    rng = random.Random(700 + n)
    game = coprime_game(gnp_graph(n, 0.3, rng), rng)
    profile, value = max_usw(game)
    assert isinstance(value, Fraction)
    assert (profile, value) == reference_max_usw(game)


def _game_spanning(n: int, span: int, rng: random.Random) -> tuple[Game, Profile]:
    """A gnp game whose payoff rows, g(k) and g(k) - c at every k, span
    `span` in total (the sum over players of max - min), and a profile
    that pays every player its row's maximum, so that its welfare less
    the sum of the row minima is `span`.  The profile's investors pay no
    cost; the others' costs reach above g and make negative entries.
    Player 0's row is all tied when n > 1, and the last player's top
    entry takes up what the other rows leave of the span."""
    graph = gnp_graph(n, 0.5, rng)
    chosen = Profile(frozenset(v for v in range(n) if rng.random() < 0.5))
    unit = span // (8 * n) + 1
    ext, cost = [], []
    for v in range(n):
        table = [rng.randrange(unit) for _ in range(graph.degree(v) + 2)]
        table[chosen.closed_count(graph, v)] = max(table)
        ext.append(table)
        cost.append(0 if v in chosen else rng.randrange(2 * unit))
    if n > 1:
        ext[0], cost[0] = [unit] * len(ext[0]), 0

    def spread(v: int) -> int:
        row = ext[v] + [x - cost[v] for x in ext[v]]
        return max(row) - min(row)

    last = n - 1
    top = chosen.closed_count(graph, last)
    rest = ext[last][:top] + ext[last][top + 1:]
    ext[last][top] = min(rest + [x - cost[last] for x in rest]) + span - sum(map(spread, range(last)))
    assert sum(map(spread, range(n))) == span
    return Game(graph, ext, cost), chosen


# Spans of 2^bits - 1 (just under) and 2^bits (just over) for 8, 16, 32
# and 64 bits at the small block edges, and a few at the two largest.
FIELD_EDGES = [(n, bits, over) for n in (1, 2, 7, 8, 9) for bits in (8, 16, 32, 64) for over in (0, 1)]
FIELD_EDGES += [(15, 8, 0), (15, 32, 1), (16, 16, 1), (16, 64, 1)]


@pytest.mark.parametrize("n, bits, over", FIELD_EDGES)
def test_max_usw_equals_the_definitional_scan_at_field_edges(n, bits, over):
    # max_usw packs a block's welfares, each less the sum of the row
    # minima, into fields sized to the sum of the row spans: 1, 2, 4 or 8
    # bytes, and past 64 bits as many bytes as it takes, read back with
    # int.from_bytes.  Some profile fills its field to the span.
    span = (1 << bits) - 1 + over
    game, chosen = _game_spanning(n, span, random.Random(1000 * n + 2 * bits + over))
    minima = sum(min(min(g), min(g) - c) for g, c in zip(game.scaled_ext, game.scaled_cost))
    assert game.scale == 1 and usw(game, chosen) - minima == span
    assert max_usw(game) == reference_max_usw(game)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 9, 15, 16])
def test_enum_psne_equals_the_definitional_scan_across_block_edges(n):
    # The PSNE block scan ANDs bitset columns over the same blocks as
    # max_usw; 17 players is left to the ESW test, whose reference is faster.
    rng = random.Random(800 + n)
    game = coprime_game(gnp_graph(n, 0.3, rng), rng)
    assert enum_psne(game) == reference_enum_psne(game)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 9, 15, 16, 17])
def test_max_esw_equals_the_one_mask_scan_across_block_edges(n):
    rng = random.Random(900 + n)
    game = coprime_game(gnp_graph(n, 0.3, rng), rng)
    if n == 0:
        with pytest.raises(ValueError):
            max_esw(game)
        return
    profile, value = max_esw(game)
    assert isinstance(value, Fraction)
    assert (profile, value) == reference_max_esw(game)


def test_max_esw_clears_its_columns_when_the_best_minimum_rises():
    # Investing raises a neighbour's payoff a lot and costs little, so the
    # best minimum rises again and again as the masks grow.  The scan
    # caches each player's column per high key against the best minimum it
    # was built for; a column kept after a rise would pass masks that only
    # beat the old minimum.
    rng = random.Random(4)
    graph = gnp_graph(12, 0.5, rng)
    ext = [tuple(3 * k + rng.randrange(3) for k in range(graph.degree(v) + 2)) for v in range(12)]
    game = Game(graph, ext, [rng.randrange(1, 4) for _ in range(12)])
    rises, best = [], None
    for bits in range(1 << 12):
        value = esw(game, Profile(frozenset(v for v in range(12) if bits >> v & 1)))
        if best is None or value > best:
            rises.append(bits)
            best = value
    assert len(rises) == 14
    assert len({bits >> 6 for bits in rises}) == 9  # of the 64 blocks of 64 masks
    assert max_esw(game) == reference_max_esw(game)


def test_max_esw_breaks_an_all_zero_tie_across_blocks_toward_the_empty_profile():
    graph = cycle_graph(17)
    game = Game(graph, [(0,) * (graph.degree(v) + 2) for v in range(17)], [0] * 17)
    assert max_esw(game) == (Profile.of(), 0)


def test_first_psne_stops_in_the_block_of_the_first_equilibrium(monkeypatch):
    # 14 isolated players; 0..6 strictly prefer to invest and 7..13 to
    # abstain, so the one equilibrium is mask 127, in the first block of
    # the first stride.  The clock is read for the deadline and for the
    # check at mask 0; the checks at 4096, 8192 and 12288 never come.
    game = Game(Graph.from_edges(14, []), [(0, 2)] * 14, [1] * 7 + [3] * 7)

    def reads(solve) -> int:
        clock = count(1)
        monkeypatch.setattr(oracle, "time", SimpleNamespace(monotonic=lambda: next(clock)))
        assert solve(game, OracleLimits(time_budget=100.0)) in (Profile.of(*range(7)), [Profile.of(*range(7))])
        return next(clock) - 1

    assert reads(first_psne) == 2
    assert reads(enum_psne) == 5


def test_max_usw_on_zero_players_is_the_empty_profile():
    assert max_usw(Game(Graph.from_edges(0, []), [], [])) == (Profile.of(), 0)


def test_max_usw_breaks_an_all_zero_tie_across_blocks_toward_the_empty_profile():
    # 17 players: 512 blocks of 256 masks, every one of which scores 0
    graph = cycle_graph(17)
    game = Game(graph, [(0,) * (graph.degree(v) + 2) for v in range(17)], [0] * 17)
    assert max_usw(game) == (Profile.of(), 0)


def test_coprime_denominators_match_the_fraction_evaluators():
    # Values and costs over {3, 5, 7, 11}: the oracle's integer scale reaches
    # 1155, and every answer is checked against Fraction arithmetic over all
    # profiles, including the smallest-bitmask tie-break.
    rng = random.Random(110)
    scales = set()
    for _ in range(30):
        n = rng.randrange(1, 7)
        game = coprime_game(gnp_graph(n, rng.choice((0.3, 0.6)), rng), rng)
        scales.add(game.scale)
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
