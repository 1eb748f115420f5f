"""Bag-table solvers checked against the enumerator and against each other."""

import math
import random
from fractions import Fraction

import pytest

from bnpg.ccforest import solve_psne_ccforest, solve_usw_ccforest, solve_esw_ccforest
from bnpg.decomposition import heuristic_decomposition, to_nice
from bnpg.elimination import elimination_order, nice_from_elimination
from bnpg.game import Game, Graph, Profile, is_psne, payoff_rows, usw, esw
from bnpg.instance_io import GameSpec, gen_random_game
from bnpg.oracle import enum_psne, first_psne, max_usw, max_esw
from bnpg.report import SolveStatus
from bnpg.solver import solve
from bnpg import treewidth
from bnpg.treewidth import (
    prepare_decomposition,
    solve_psne_treewidth,
    solve_usw_treewidth,
    solve_esw_treewidth,
)

from helpers import (
    coprime_game,
    cycle_graph,
    gnp_graph,
    hub_with_a_leaf_cycle,
    path_graph,
    random_game,
    random_tree,
    relabel_game,
    star_graph,
)


def check_against_oracle(game, decomposition=None):
    psne = solve_psne_treewidth(game, decomposition)
    expected = enum_psne(game)
    if expected:
        assert psne.status is SolveStatus.SOLVED
        assert is_psne(game, psne.profile)
    else:
        assert psne.status is SolveStatus.NO_PSNE
        assert psne.profile is None

    uswr = solve_usw_treewidth(game, decomposition)
    _, best = max_usw(game)
    assert uswr.value == best
    assert usw(game, uswr.profile) == best

    eswr = solve_esw_treewidth(game, decomposition)
    _, best = max_esw(game)
    assert eswr.value == best
    assert esw(game, eswr.profile) == best


def test_agrees_with_oracle_on_random_graphs():
    rng = random.Random(101)
    for _ in range(60):
        n = rng.randrange(1, 9)
        g = gnp_graph(n, rng.choice((0.2, 0.4, 0.7)), rng)
        check_against_oracle(random_game(g, rng))


def test_agrees_with_oracle_on_monotone_games():
    rng = random.Random(102)
    for _ in range(40):
        g = gnp_graph(rng.randrange(2, 9), 0.5, rng)
        check_against_oracle(random_game(g, rng, monotone=True))


def test_result_does_not_depend_on_the_decomposition():
    rng = random.Random(103)
    for _ in range(25):
        g = gnp_graph(rng.randrange(2, 10), 0.4, rng)
        game = random_game(g, rng)
        variants = [
            None,
            prepare_decomposition(game, heuristic_decomposition(g, "min_degree")),
        ]
        td = heuristic_decomposition(g)
        variants.append(to_nice(td, g, root_bag=rng.randrange(len(td.bags))))

        psne_verdicts = {solve_psne_treewidth(game, v).status for v in variants}
        assert len(psne_verdicts) == 1
        assert len({solve_usw_treewidth(game, v).value for v in variants}) == 1
        assert len({solve_esw_treewidth(game, v).value for v in variants}) == 1


def test_invalid_decomposition_is_rejected():
    game = random_game(path_graph(4), random.Random(0))
    # decomposition of the wrong graph: misses the 2-3 edge
    from bnpg.decomposition import TreeDecomposition

    bad = TreeDecomposition(((0, 1), (1, 2), (3,)), ((0, 1), (1, 2)))
    with pytest.raises(ValueError, match="edge-cover"):
        solve_usw_treewidth(game, bad)
    bad_nice = to_nice(heuristic_decomposition(path_graph(3)), path_graph(3))
    with pytest.raises(ValueError, match="vertex-cover"):
        solve_psne_treewidth(game, bad_nice)


def test_no_psne_detected():
    # investing is worth it only when alone; abstaining only when the
    # neighbor invests -- matching-pennies on an edge
    g = Graph.from_edges(2, [(0, 1)])
    game = Game(
        g,
        [(0, 2, 0), (0, 0, 3)],
        [1, 1],
    )
    assert enum_psne(game) == []
    report = solve_psne_treewidth(game)
    assert report.status is SolveStatus.NO_PSNE
    assert "width" in report.detail


def test_zero_players():
    game = Game(Graph.from_edges(0, []), [], [])
    report = solve_psne_treewidth(game)
    assert report.status is SolveStatus.SOLVED
    assert len(report.profile) == 0
    assert solve_usw_treewidth(game).value == 0
    with pytest.raises(ValueError):
        solve_esw_treewidth(game)


def test_report_fields():
    game = random_game(path_graph(5), random.Random(9))
    report = solve_usw_treewidth(game)
    assert report.algorithm == "treewidth"
    assert report.table_entries > 0
    assert report.elapsed >= 0.0


def test_deterministic_output():
    game = random_game(gnp_graph(8, 0.4, random.Random(55)), random.Random(56))
    a = solve_usw_treewidth(game)
    b = solve_usw_treewidth(game)
    assert a.profile == b.profile and a.value == b.value
    assert solve_psne_treewidth(game).profile == solve_psne_treewidth(game).profile


def test_matches_clique_tree_solvers_on_trees():
    rng = random.Random(104)
    for _ in range(20):
        g = random_tree(rng.randrange(2, 14), rng)
        game = random_game(g, rng)
        assert (
            solve_psne_treewidth(game).status
            is solve_psne_ccforest(game).status
        )
        assert solve_usw_treewidth(game).value == solve_usw_ccforest(game).value
        assert solve_esw_treewidth(game).value == solve_esw_ccforest(game).value


def test_long_path_is_fast():
    rng = random.Random(105)
    game = random_game(path_graph(400), rng, monotone=True)
    report = solve_usw_treewidth(game)
    assert report.status is SolveStatus.SOLVED
    assert usw(game, report.profile) == report.value
    # sanity: investing everywhere is never better than the optimum
    from bnpg.game import Profile

    everyone = Profile.of(*range(game.graph.player_count))
    assert report.value >= usw(game, everyone)



def _check_coprime_corpus(games):
    """Oracle agreement on games with denominators from {3, 5, 7, 11}, whose
    scale reaches 1155; welfare values must come back as Fractions."""
    scales = set()
    for game in games:
        check_against_oracle(game)
        for solve in (solve_usw_treewidth, solve_esw_treewidth):
            assert isinstance(solve(game).value, Fraction)
        scales.add(game.scale)
    assert max(scales) == 1155


def test_coprime_denominators_on_random_graphs():
    rng = random.Random(110)
    _check_coprime_corpus(
        coprime_game(gnp_graph(rng.randrange(1, 9), rng.choice((0.2, 0.4, 0.7)), rng), rng)
        for _ in range(30)
    )


def test_coprime_denominators_on_cycles():
    rng = random.Random(111)
    _check_coprime_corpus(
        coprime_game(cycle_graph(n), rng) for n in range(3, 10) for _ in range(3)
    )


@pytest.mark.parametrize(
    "solve",
    [solve_psne_treewidth, solve_usw_treewidth, solve_esw_treewidth],
    ids=["psne", "usw", "esw"],
)
def test_each_solve_makes_one_sweep(solve, monkeypatch):
    calls = []
    original = treewidth._sweep

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(treewidth, "_sweep", counted)
    game = random_game(cycle_graph(7), random.Random(120))
    assert solve(game).algorithm == "treewidth"
    assert calls == [1]


@pytest.mark.parametrize("g_mode", ["monotone", "arbitrary"])
def test_esw_agrees_with_oracle_on_bounded_tw_games(g_mode):
    """Width-2 games built around hubs, with the min-fill decomposition and
    with a given nice one (min-degree, rooted at a random bag)."""
    rng = random.Random(121)
    for seed in range(25):
        game = gen_random_game(GameSpec("bounded_tw", n=9, width=2, seed=seed, g_mode=g_mode))
        g = game.graph
        td = heuristic_decomposition(g, "min_degree")
        given = to_nice(td, g, root_bag=rng.randrange(len(td.bags)))
        _, best = max_esw(game)
        for decomposition in (None, given):
            report = solve_esw_treewidth(game, decomposition)
            assert isinstance(report.value, Fraction)
            assert report.value == best
            assert esw(game, report.profile) == best


def _joins_with_a_side_that_forgets_nothing(ntd):
    forgets: dict[int, bool] = {}
    for i in ntd.postorder:
        below = any(forgets[c] for c in ntd.children[i])
        forgets[i] = ntd.kinds[i] == "forget" or below
    return [
        i
        for i, kind in enumerate(ntd.kinds)
        if kind == "join" and not all(forgets[c] for c in ntd.children[i])
    ]


def test_esw_when_join_subtrees_settle_no_one():
    """One player, and an edgeless 6-player graph under decompositions whose
    joins have subtrees that forget no one (one side, or both): the value is
    a payoff, never the leaves' identity for min."""
    from bnpg.decomposition import TreeDecomposition

    everyone = tuple(range(6))
    cases = [
        (1, None),
        (6, None),
        (6, TreeDecomposition(((0, 1, 2), (0, 1, 2), (3, 4, 5)), ((0, 1), (0, 2)))),
        (6, TreeDecomposition((everyone, everyone, everyone), ((0, 1), (0, 2)))),
    ]
    rng = random.Random(122)
    for n, td in cases:
        if td is not None:
            ntd = to_nice(td, Graph.from_edges(n, []))
            assert _joins_with_a_side_that_forgets_nothing(ntd)
        for _ in range(10):
            game = random_game(Graph.from_edges(n, []), rng)
            report = solve_esw_treewidth(game, td)
            assert isinstance(report.value, Fraction)
            assert report.value == max_esw(game)[1]
            assert esw(game, report.profile) == report.value


def _hub_rooted_star(leaves):
    """A star and a decomposition rooted at the hub's own bag, with one
    (hub, leaf) bag per leaf: every leaf is forgotten below the joins that
    merge those bags, so the hub's forgotten-investor count reaches its
    degree, summed across joins, before the hub itself is forgotten."""
    from bnpg.decomposition import TreeDecomposition

    bags = ((0,),) + tuple((0, leaf) for leaf in range(1, leaves + 1))
    graph = star_graph(leaves)
    td = TreeDecomposition(bags, tuple((0, b) for b in range(1, len(bags))))
    return graph, to_nice(td, graph, root_bag=0)


def _full_count_game(graph):
    """The hub pays off only when every player invests, and each leaf only
    when the hub invests with it, so every optimum uses the hub's full
    count."""
    d = graph.degree(0)
    hub = (Fraction(0),) * (d + 1) + (Fraction(2 * d + 2),)
    leaf = (Fraction(0), Fraction(0), Fraction(2))
    return Game(graph, [hub] + [leaf] * d, [Fraction(1)] * (d + 1))


@pytest.mark.parametrize("hub_degree", [7, 8, 15, 16])
def test_hub_counts_fill_their_field(hub_degree):
    """A field holds an invest bit and max_degree.bit_length() count bits:
    a hub of degree 2^m - 1 fills m count bits, one of degree 2^m needs
    m + 1, and a field one bit short would carry into its neighbor."""
    graph, ntd = _hub_rooted_star(hub_degree)
    rng = random.Random(130 + hub_degree)
    full_count = _full_count_game(graph)
    for game in (full_count, random_game(graph, rng)):
        check_against_oracle(game, ntd)
    everyone = frozenset(range(hub_degree + 1))
    assert solve_usw_treewidth(full_count, ntd).profile.investing == everyone


def test_hub_of_a_40_leaf_star_matches_ccforest():
    graph, ntd = _hub_rooted_star(40)
    rng = random.Random(131)
    for game in (_full_count_game(graph), random_game(graph, rng)):
        for decomposition in (ntd, None):
            assert (
                solve_psne_treewidth(game, decomposition).status
                is solve_psne_ccforest(game).status
            )
            assert solve_usw_treewidth(game, decomposition).value == solve_usw_ccforest(game).value
            assert solve_esw_treewidth(game, decomposition).value == solve_esw_ccforest(game).value


def test_state_counts_are_pinned():
    """Table entries on one width-2 hub game: an encoding of the states
    that merged or split any of them would move these counts, and so would
    another incumbent or floor in the welfare sweeps."""
    game = gen_random_game(GameSpec("bounded_tw", n=40, width=2, seed=7))
    assert solve_psne_treewidth(game).table_entries == 1223
    assert solve_usw_treewidth(game).table_entries == 6838
    assert solve_esw_treewidth(game).table_entries == 5535


def _answers(game, algo):
    psne, best_usw, best_esw = (solve(game, q, algo) for q in ("psne", "usw", "esw"))
    assert usw(game, best_usw.profile) == best_usw.value
    assert esw(game, best_esw.profile) == best_esw.value
    return psne.status, best_usw.value, best_esw.value


def test_answers_do_not_depend_on_player_labels():
    """Renaming players changes min-fill's tie-breaks, hence the
    decomposition and the table sizes, but no answer."""
    rng = random.Random(132)
    games = [
        gen_random_game(GameSpec("bounded_tw", n=9, width=2, seed=seed, g_mode=mode))
        for seed in range(8)
        for mode in ("monotone", "arbitrary")
    ]
    trees = [random_game(random_tree(rng.randrange(2, 12), rng), rng) for _ in range(12)]
    cases = [(game, ("brute", "treewidth")) for game in games]
    cases += [(tree, ("brute", "treewidth", "ccforest")) for tree in trees]
    for game, algos in cases:
        expected = _answers(game, "brute")
        for _ in range(3):
            relabeled = relabel_game(game, rng)
            for algo in algos:
                assert _answers(relabeled, algo) == expected


def _pinned_small_decomposition(game):
    td = heuristic_decomposition(game.graph, "min_degree")
    ntd = to_nice(td, game.graph, root_bag=6)
    assert "join" in ntd.kinds
    return ntd


def test_witnesses_are_pinned():
    """Profiles and values on two inputs with joins: a width-2 hub game on
    min-fill, and a small game on a given nice decomposition rooted at bag
    6.  Another tie-break in the sweep or the replay moves a profile here,
    while every oracle test would still pass."""
    big = gen_random_game(GameSpec("bounded_tw", n=40, width=2, seed=7))
    small = gen_random_game(GameSpec("bounded_tw", n=12, width=2, seed=7, cost_mode="unit"))
    cases = [
        (
            big,
            None,
            (3, 6, 8, 9, 10, 12, 16, 17, 20, 21, 23, 27, 33),
            (Fraction(365, 2), (0, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12, 13, 16, 17, 18,
                                20, 21, 23, 24, 27, 28, 30, 33, 35, 36, 37, 38)),
            (Fraction(3, 4), (0, 3, 12, 19, 20, 24, 37)),
        ),
        (
            small,
            _pinned_small_decomposition(small),
            (1, 3, 6, 9, 11),
            (Fraction(103, 2), tuple(range(12))),
            (Fraction(2), (0, 2, 3, 7)),
        ),
    ]
    for game, decomposition, psne, best_usw, best_esw in cases:
        assert solve_psne_treewidth(game, decomposition).profile.investing == frozenset(psne)
        for solve_welfare, (value, profile) in (
            (solve_usw_treewidth, best_usw),
            (solve_esw_treewidth, best_esw),
        ):
            report = solve_welfare(game, decomposition)
            assert report.value == value
            assert report.profile.investing == frozenset(profile)


def _welfare_scores(game):
    """The scaled USW and ESW of every profile."""
    n = game.player_count
    profiles = [Profile(frozenset(v for v in range(n) if mask >> v & 1)) for mask in range(1 << n)]
    return (
        {usw(game, p) * game.scale for p in profiles},
        {esw(game, p) * game.scale for p in profiles},
    )


def test_incumbent_is_the_welfare_of_a_profile():
    """The incumbent is the USW or ESW of some profile, so it never exceeds
    the optimum: a floor built on it drops no optimal state."""
    rng = random.Random(140)
    games = [random_game(gnp_graph(rng.randrange(1, 10), 0.4, rng), rng) for _ in range(20)]
    games += [random_game(cycle_graph(n), rng, monotone=True) for n in range(3, 10)]
    games += [
        gen_random_game(GameSpec("bounded_tw", n=10, width=2, seed=seed, g_mode=mode))
        for seed in range(6)
        for mode in ("monotone", "arbitrary")
    ]
    for game in games:
        rows = payoff_rows(game)
        usw_scores, esw_scores = _welfare_scores(game)
        for egalitarian, scores, oracle in ((False, usw_scores, max_usw), (True, esw_scores, max_esw)):
            incumbent = treewidth._incumbent(game, rows, egalitarian)
            assert incumbent in scores
            assert incumbent <= oracle(game)[1] * game.scale


def _constant_game(graph, values):
    """Player v's payoff is values[v] whatever anyone does: every profile
    ties, on both welfares."""
    return Game(
        graph,
        [(values[v],) * (graph.degree(v) + 2) for v in range(graph.player_count)],
        [0] * graph.player_count,
    )


def _tie_heavy_games():
    rng = random.Random(141)
    graphs = [cycle_graph(n) for n in (3, 4, 7, 10)]
    graphs += [
        gen_random_game(GameSpec("bounded_tw", n=n, width=2, seed=seed)).graph
        for n, seed in ((8, 1), (10, 2), (12, 3))
    ]
    games = []
    for graph in graphs:
        n = graph.player_count
        games.append(_constant_game(graph, [Fraction(1)] * n))  # all payoffs tied
        games.append(_constant_game(graph, [Fraction(rng.randint(0, 4), 2) for _ in range(n)]))
        games.append(_constant_game(graph, [Fraction(0)] * n))
    for seed in range(4):
        for n in (7, 11):
            # monotone tables at zero cost: investing everywhere is optimal,
            # and the all-invest pass starts there
            spec = GameSpec("bounded_tw", n=n, width=2, seed=seed, cost_mode="zero")
            games.append(gen_random_game(spec))
    return games


def test_tie_heavy_games_where_the_incumbent_is_optimal():
    """On these games the incumbent equals the optimum, so the root's state
    sits exactly on its floor, and on constant tables every state does: a
    floor test that dropped equality would lose the root's state.  PSNE's
    floor is True, which every stable settlement meets.  On constant tables
    every player is indifferent, so no question may drop a state there."""
    for game in _tie_heavy_games():
        psne = solve_psne_treewidth(game)
        expected = first_psne(game)
        assert psne.status is (SolveStatus.NO_PSNE if expected is None else SolveStatus.SOLVED)
        if expected is not None:
            assert is_psne(game, psne.profile)
        entries = {psne.table_entries}
        rows = payoff_rows(game)
        for egalitarian, solve_welfare, oracle, score in (
            (False, solve_usw_treewidth, max_usw, usw),
            (True, solve_esw_treewidth, max_esw, esw),
        ):
            best = oracle(game)[1]
            assert treewidth._incumbent(game, rows, egalitarian) == best * game.scale
            report = solve_welfare(game)
            assert report.status is SolveStatus.SOLVED
            assert report.value == best
            assert score(game, report.profile) == best
            entries.add(report.table_entries)
        if all(len(set(g)) == 1 for g in game.scaled_ext) and not any(game.scaled_cost):
            assert len(entries) == 1


def _games_with_joins():
    """(game, nice decomposition) pairs: seeded bounded_tw games, hubs with a
    4-cycle among their leaves and the tie-heavy games, each on its min-fill
    nice form and on a min-degree one rooted at a random bag."""
    rng = random.Random(150)
    games = [
        gen_random_game(GameSpec("bounded_tw", n=n, width=2, seed=seed, g_mode=mode))
        for n, seed in ((9, 0), (12, 1), (20, 2), (40, 7))
        for mode in ("monotone", "arbitrary")
    ]
    games += [random_game(hub_with_a_leaf_cycle(leaves), rng) for leaves in (6, 8, 12)]
    games += _tie_heavy_games()
    for game in games:
        graph = game.graph
        td = heuristic_decomposition(graph, "min_degree")
        yield game, nice_from_elimination(*elimination_order(graph, "min_fill"))
        yield game, to_nice(td, graph, root_bag=rng.randrange(len(td.bags)))


@pytest.mark.parametrize(
    "solve, floor",
    [
        (solve_psne_treewidth, lambda game: True),
        (solve_esw_treewidth, lambda game: treewidth._incumbent(game, payoff_rows(game), True)),
    ],
    ids=["psne", "esw"],
)
def test_psne_and_esw_joins_drop_no_state(solve, floor, monkeypatch):
    """Every node of a PSNE or ESW sweep has the one floor, True or the
    incumbent, and a join never drops a state under it: the `and` of two
    kept Trues is True, and the min of two values at or above the incumbent
    stays at or above it.  So the tables equal, in keys, values and
    insertion order, those of a sweep with no floor at its joins."""
    original = treewidth._sweep
    sweeps = []

    def recorded(*args):
        tables = original(*args)
        sweeps.append((args, tables))
        return tables

    monkeypatch.setattr(treewidth, "_sweep", recorded)
    joins = 0
    for game, ntd in _games_with_joins():
        sweeps.clear()
        solve(game, ntd)
        [((*head, floors), tables)] = sweeps
        assert floors == [floor(game)] * len(ntd.kinds)
        open_joins = [-math.inf if kind == "join" else f for kind, f in zip(ntd.kinds, floors)]
        unpruned = original(*head, open_joins)
        assert [list(t.items()) for t in tables] == [list(t.items()) for t in unpruned]
        joins += ntd.kinds.count("join")
    assert joins > 100


def test_usw_floors_add_the_best_payoffs_of_the_players_settled_below():
    """At every forget and join, the USW floor is the incumbent less every
    player's best payoff, plus the best payoff of each player forgotten in
    the node's subtree."""
    for game, ntd in _games_with_joins():
        graph, rows = game.graph, payoff_rows(game)
        # abstaining with k <= deg closed investors, or investing with k >= 1
        best = [
            max(max(rows[v][0][: graph.degree(v) + 1]), max(rows[v][1][1:]))
            for v in range(graph.player_count)
        ]
        need = treewidth._incumbent(game, rows, False) - sum(best)
        floors = treewidth._usw_floors(game, ntd, rows)
        assert len(floors) == len(ntd.kinds) and None not in floors
        forgotten: dict[int, set] = {}
        for i in ntd.postorder:
            forgotten[i] = set().union(*(forgotten[c] for c in ntd.children[i]))
            if ntd.kinds[i] == "forget":
                forgotten[i].add(ntd.distinguished[i])
            if ntd.kinds[i] in ("forget", "join"):
                assert floors[i] == need + sum(best[v] for v in forgotten[i])
