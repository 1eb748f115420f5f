"""The critical-clique-forest dynamic programs, checked against brute force."""

import random
from fractions import Fraction

import pytest

from bnpg.ccforest import (
    _psne_rule,
    solve_esw_ccforest,
    solve_psne_ccforest,
    solve_usw_ccforest,
)
from bnpg.critical_clique import CriticalCliqueGraph, build_cc_graph, is_forest
from bnpg.game import Game, Graph, Profile, esw, is_psne, stability_rows, usw
from bnpg.instance_io import GameSpec, gen_random_game
from bnpg.oracle import enum_psne, max_esw, max_usw
from bnpg.report import SolveStatus

from helpers import (
    best_shot_game,
    complete_graph,
    coprime_game,
    cycle_graph,
    path_graph,
    random_game,
    random_tree,
    star_graph,
    twin_cluster_graph,
)


# ---------------------------------------------------------------------------
# the per-clique PSNE rule at each closed-neighborhood total
# ---------------------------------------------------------------------------


def _rule(game, members):
    return _psne_rule(stability_rows(game), members)


def _counts(value, t):
    """The investor counts whose bitset has bit t set."""
    return [x for x, bits in enumerate(value) if bits >> t & 1]


def test_zero_total_forbids_investing():
    # nobody wants in at total 0, and nobody may invest there
    game = Game.build(complete_graph(3), [(0, 0, 0, 0)] * 3, [1] * 3)
    value, order = _rule(game, (0, 1, 2))
    assert _counts(value, 0) == [0]
    assert order[0] == []


def test_full_total_forces_investing():
    game = best_shot_game(complete_graph(3), cost=Fraction(0))
    value, order = _rule(game, (0, 1, 2))
    assert _counts(value, 3) == [3]
    assert order[3] == [0, 1, 2]


def test_free_players_may_do_either():
    # threshold externality, zero cost: once somebody invests, an investor
    # is happy to stay and an abstainer is happy to stay out
    game = best_shot_game(path_graph(2), cost=Fraction(0))
    value, order = _rule(game, (0, 1))
    assert _counts(value, 1) == [0, 1, 2]
    assert order[1] == [0, 1]


def test_contradiction_blocks_every_count():
    # the abstainer wants in (0 >= 2-1 fails) and the investor wants out
    # at the same total, so the total is unrealizable
    g = Graph.from_edges(1, [])
    game = Game.build(g, [(0, 2)], [3])
    value, order = _rule(game, (0,))
    assert _counts(value, 1) == [] and order[1] is None
    assert _counts(value, 0) == [0]  # abstaining alone is stable: 0 >= 2-3


def test_witness_takes_must_invest_then_smallest_free():
    # K4 whose first feasible total is 2: every member wants in at totals 0
    # and 1; at 2, player 2 still must invest and players 0, 1, 3 are free
    want_in = (0, 2, 4, 4, 4)
    game = Game.build(
        complete_graph(4), [want_in, want_in, (0, 1, 3, 5, 5), want_in], [1] * 4
    )
    value, order = _rule(game, (0, 1, 2, 3))
    assert [_counts(value, t) for t in range(3)] == [[], [4], [1, 2, 3, 4]]
    assert order[2] == [2, 0, 1, 3]
    report = solve_psne_ccforest(game)
    assert report.profile == Profile.of(0, 2)
    assert is_psne(game, report.profile)
    # the two other one-free-investor choices are equilibria too
    assert is_psne(game, Profile.of(1, 2)) and is_psne(game, Profile.of(2, 3))


# ---------------------------------------------------------------------------
# known small instances
# ---------------------------------------------------------------------------


def test_best_shot_path_equilibrium():
    game = best_shot_game(path_graph(3))
    report = solve_psne_ccforest(game)
    assert report.status == SolveStatus.SOLVED
    assert report.algorithm == "ccforest"
    assert is_psne(game, report.profile)
    assert report.profile in (Profile.of(1), Profile.of(0, 2))


def test_best_shot_path_welfare_values():
    game = best_shot_game(path_graph(3))
    assert solve_usw_ccforest(game).value == Fraction(5, 2)
    assert solve_esw_ccforest(game).value == Fraction(1, 2)


def test_anti_coordination_edge_has_no_equilibrium():
    # player 0 invests iff alone, player 1 invests iff player 0 does
    g = Graph.from_edges(2, [(0, 1)])
    game = Game.build(g, [(0, 2, 0), (0, 0, 3)], [1, 1])
    assert enum_psne(game) == []
    report = solve_psne_ccforest(game)
    assert report.status == SolveStatus.NO_PSNE
    assert report.profile is None
    assert "component containing player 0" in report.detail


def test_usw_extraction_prefers_cheaper_investors():
    # all-invest... actually one investor suffices; the cheapest is player 2
    game = Game.build(
        complete_graph(3),
        [(0, 6, 6, 6)] * 3,
        [Fraction(3), Fraction(2), Fraction(1)],
    )
    report = solve_usw_ccforest(game)
    assert report.value == Fraction(17)  # 6*3 - 1
    assert report.profile == Profile.of(2)


def test_esw_invests_in_the_member_with_the_largest_net_payoff():
    # one clique, so the closed total is the investor count; the optimum
    # has one investor.  By cost the pick is player 2, by index player 0,
    # but player 1 has the largest g(1) - c and only it keeps everyone at 2.
    game = Game.build(
        complete_graph(3),
        [(0, 3, 0, 0), (0, 5, 0, 0), (0, 2, 0, 0)],
        [2, 2, 1],
    )
    report = solve_esw_ccforest(game)
    assert report.value == 2 == max_esw(game)[1]
    assert report.profile == Profile.of(1)
    assert esw(game, Profile.of(2)) == 1  # the cheapest member
    assert esw(game, Profile.of(0)) == 1  # the smallest index


def test_not_applicable_on_cycles():
    game = best_shot_game(cycle_graph(5))
    for solver in (solve_psne_ccforest, solve_usw_ccforest, solve_esw_ccforest):
        report = solver(game)
        assert report.status == SolveStatus.NOT_APPLICABLE
        assert report.detail == "critical clique graph is not a forest"
        assert report.profile is None


def test_zero_player_game():
    game = Game.build(Graph.from_edges(0, []), [], [])
    assert solve_psne_ccforest(game).profile == Profile.of()
    assert solve_usw_ccforest(game).value == 0
    with pytest.raises(ValueError):
        solve_esw_ccforest(game)


def test_reports_are_deterministic():
    rng = random.Random(77)
    game = random_game(twin_cluster_graph(9, rng), rng)
    first = solve_psne_ccforest(game)
    second = solve_psne_ccforest(game)
    assert first.status == second.status
    assert first.profile == second.profile
    assert solve_usw_ccforest(game).profile == solve_usw_ccforest(game).profile
    assert solve_esw_ccforest(game).profile == solve_esw_ccforest(game).profile


# ---------------------------------------------------------------------------
# randomized agreement with the exhaustive oracle
# ---------------------------------------------------------------------------


def _check_against_oracle(game):
    psne_report = solve_psne_ccforest(game)
    equilibria = enum_psne(game)
    if equilibria:
        assert psne_report.status == SolveStatus.SOLVED
        assert is_psne(game, psne_report.profile)
    else:
        assert psne_report.status == SolveStatus.NO_PSNE

    usw_report = solve_usw_ccforest(game)
    _, best_usw = max_usw(game)
    assert usw_report.value == best_usw
    assert usw(game, usw_report.profile) == best_usw

    esw_report = solve_esw_ccforest(game)
    _, best_esw = max_esw(game)
    assert esw_report.value == best_esw
    assert esw(game, esw_report.profile) == best_esw
    assert esw_report.table_entries == usw_report.table_entries  # one sweep


def test_oracle_agreement_on_random_trees():
    rng = random.Random(100)
    for _ in range(30):
        game = random_game(random_tree(rng.randrange(1, 9), rng), rng)
        _check_against_oracle(game)


def test_oracle_agreement_on_twin_clusters():
    rng = random.Random(101)
    for _ in range(30):
        g = twin_cluster_graph(rng.randrange(1, 10), rng)
        game = random_game(g, rng)
        assert is_forest(build_cc_graph(g))
        _check_against_oracle(game)


def test_oracle_agreement_on_cliques_and_stars():
    rng = random.Random(102)
    for n in range(1, 8):
        _check_against_oracle(random_game(complete_graph(n), rng))
        _check_against_oracle(random_game(star_graph(n), rng))


def test_oracle_agreement_on_disconnected_graphs():
    rng = random.Random(103)
    for _ in range(15):
        # two independent trees in one instance
        a = rng.randrange(1, 5)
        b = rng.randrange(1, 5)
        edges = [(rng.randrange(v), v) for v in range(1, a)]
        edges += [(a + rng.randrange(v), a + v) for v in range(1, b)]
        game = random_game(Graph.from_edges(a + b, edges), rng)
        _check_against_oracle(game)


def _check_coprime_corpus(games):
    """Oracle agreement on games with denominators from {3, 5, 7, 11}, whose
    scale reaches 1155; welfare values must come back as Fractions."""
    scales = set()
    for game in games:
        _check_against_oracle(game)
        for solve in (solve_usw_ccforest, solve_esw_ccforest):
            assert isinstance(solve(game).value, Fraction)
        scales.add(game.scale)
    assert max(scales) == 1155


def test_coprime_denominators_on_random_trees():
    rng = random.Random(110)
    _check_coprime_corpus(
        coprime_game(random_tree(rng.randrange(1, 9), rng), rng) for _ in range(30)
    )


def test_coprime_denominators_on_twin_clusters():
    rng = random.Random(111)
    _check_coprime_corpus(
        coprime_game(twin_cluster_graph(rng.randrange(1, 10), rng), rng)
        for _ in range(30)
    )


def test_coprime_denominators_on_twin_trees():
    """Generator twin trees: critical cliques of up to three members, each
    member paying its own cost."""
    rng = random.Random(113)
    graphs = []
    for seed in range(30):
        blocks = tuple(rng.randint(1, 3) for _ in range(rng.randint(3, 4)))
        spec = GameSpec("twin_tree", seed=seed, multiplicities=blocks)
        graphs.append(gen_random_game(spec).graph)
    assert max(len(m) for g in graphs for m in build_cc_graph(g).cliques) == 3
    _check_coprime_corpus(coprime_game(g, rng) for g in graphs)


@pytest.mark.parametrize(
    "solve",
    [solve_psne_ccforest, solve_usw_ccforest, solve_esw_ccforest],
    ids=["psne", "usw", "esw"],
)
def test_each_solve_makes_one_sweep(solve, monkeypatch):
    import bnpg.ccforest as ccforest

    calls = []
    original = ccforest._solve

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(ccforest, "_solve", counted)
    game = random_game(twin_cluster_graph(9, random.Random(114)), random.Random(115))
    assert solve(game).status is not SolveStatus.NOT_APPLICABLE
    assert calls == [1]


@pytest.mark.parametrize("solve", [solve_psne_ccforest, solve_usw_ccforest, solve_esw_ccforest])
def test_clique_graph_is_built_once_per_solve(solve, monkeypatch):
    calls = []
    original = CriticalCliqueGraph.clique_graph

    def counted(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(CriticalCliqueGraph, "clique_graph", counted)
    rng = random.Random(112)
    forest = random_game(random_tree(9, rng), rng)
    assert solve(forest).status is not SolveStatus.NOT_APPLICABLE
    assert len(calls) == 1
    cyclic = random_game(cycle_graph(5), rng)
    assert solve(cyclic).status is SolveStatus.NOT_APPLICABLE
    assert len(calls) == 2


def test_answers_and_entry_counts_are_pinned():
    """Answers, witnesses and table entries on two generator forests: a
    change to a tie-break or to what a table holds would move them."""
    twins = gen_random_game(GameSpec("twin_tree", seed=3, multiplicities=(2, 1, 3, 1, 2, 1, 1, 2)))
    psne = solve_psne_ccforest(twins)
    assert (psne.profile, psne.table_entries) == (Profile.of(0, 3, 4, 6, 12), 22)
    best_usw = solve_usw_ccforest(twins)
    assert best_usw.value == Fraction(251, 6)
    assert best_usw.profile == Profile.of(0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12)
    assert best_usw.table_entries == 99
    best_esw = solve_esw_ccforest(twins)
    assert best_esw.value == 1
    assert (best_esw.profile, best_esw.table_entries) == (Profile.of(0, 1, 7, 8, 12), 99)

    spec = GameSpec("caterpillar", n=40, seed=5, g_mode="arbitrary", cost_mode="unit")
    caterpillar = gen_random_game(spec)
    psne = solve_psne_ccforest(caterpillar)
    assert psne.status is SolveStatus.NO_PSNE and psne.table_entries == 66
    assert psne.detail == "no equilibrium in the component containing player 0"
    assert solve_usw_ccforest(caterpillar).table_entries == 308
    assert solve_esw_ccforest(caterpillar).table_entries == 308


def test_walk_takes_the_smallest_child_count_first():
    """The walk tries each child's investor counts in ascending order; on
    these games, trying the largest count first picks other witnesses."""
    caterpillar = gen_random_game(GameSpec("caterpillar", n=12, seed=10))
    assert solve_psne_ccforest(caterpillar).profile == Profile.of(4, 6, 7, 9)
    best_esw = solve_esw_ccforest(caterpillar)
    assert (best_esw.value, best_esw.profile) == (Fraction(1, 4), Profile.of(0, 1, 4, 6, 7))
    tree = gen_random_game(GameSpec("tree", n=12, seed=9))
    best_usw = solve_usw_ccforest(tree)
    assert best_usw.value == Fraction(299, 12)
    assert best_usw.profile == Profile.of(0, 1, 3, 4, 6, 7, 9, 11)
