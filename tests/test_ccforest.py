"""The critical-clique-forest dynamic programs, checked against brute force."""

import hashlib
import math
import random
from fractions import Fraction

import pytest

import bnpg.ccforest as ccforest
from bnpg.ccforest import (
    _min_pairs,
    _min_split,
    _psne_rule,
    _sum_pairs,
    _sum_split,
    solve_esw_ccforest,
    solve_psne_ccforest,
    solve_usw_ccforest,
)
from bnpg.critical_clique import build_cc_graph, is_forest
from bnpg.game import Game, Graph, Profile, esw, is_psne, lesser, stability_rows, usw
from bnpg.instance_io import GameSpec, gen_random_game
from bnpg.oracle import enum_psne, max_esw, max_usw
from bnpg.report import SolveStatus

from helpers import (
    best_shot_game,
    complete_graph,
    coprime_game,
    cycle_graph,
    drawn_star,
    path_graph,
    random_game,
    random_tree,
    reference_fold,
    reference_split,
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
    game = Game(complete_graph(3), [(0, 0, 0, 0)] * 3, [1] * 3)
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
    game = Game(g, [(0, 2)], [3])
    value, order = _rule(game, (0,))
    assert _counts(value, 1) == [] and order[1] is None
    assert _counts(value, 0) == [0]  # abstaining alone is stable: 0 >= 2-3


def test_witness_takes_must_invest_then_smallest_free():
    # K4 whose first feasible total is 2: every member wants in at totals 0
    # and 1; at 2, player 2 still must invest and players 0, 1, 3 are free
    want_in = (0, 2, 4, 4, 4)
    game = Game(
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
    game = Game(g, [(0, 2, 0), (0, 0, 3)], [1, 1])
    assert enum_psne(game) == []
    report = solve_psne_ccforest(game)
    assert report.status == SolveStatus.NO_PSNE
    assert report.profile is None
    assert "component containing player 0" in report.detail


def test_usw_extraction_prefers_cheaper_investors():
    # all-invest... actually one investor suffices; the cheapest is player 2
    game = Game(
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
    game = Game(
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
    game = Game(Graph.from_edges(0, []), [], [])
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
def test_a_solve_of_a_built_game_makes_no_graph(solve, monkeypatch):
    """The clique forest is rooted from its edge set: no contracted `Graph`
    is built, and validated, per solve, on a forest or on a cycle."""
    rng = random.Random(112)
    forest = random_game(random_tree(9, rng), rng)
    cyclic = random_game(cycle_graph(5), rng)
    built = []
    original = Graph.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counted)
    assert solve(forest).status is not SolveStatus.NOT_APPLICABLE
    assert solve(cyclic).status is SolveStatus.NOT_APPLICABLE
    assert built == []


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


def test_long_handled_broom_answers_and_entry_counts_are_pinned():
    """A 60-player handle of one-child cliques over a hub of 40 leaves, as
    the sweep that stored every (x, y) row and folded every child gave it:
    the leaf and one-child shortcuts must not move an answer or a count."""
    game = random_game(_broom(40, 60), random.Random(140))
    psne = solve_psne_ccforest(game)
    assert (_digest(psne.profile), psne.table_entries) == ((28, "7bf59a75267eb5b6"), 292)
    best_usw = solve_usw_ccforest(game)
    assert (best_usw.value, _digest(best_usw.profile)) == (267, (60, "c34ea4af4b560167"))
    assert best_usw.table_entries == 800
    best_esw = solve_esw_ccforest(_lifted(game))
    assert (best_esw.value, _digest(best_esw.profile)) == (Fraction(3, 2), (30, "877b6f37ad9adbc2"))
    assert best_esw.table_entries == 800


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


# ---------------------------------------------------------------------------
# closed-form merges over one-member children, against the fold they replace
# ---------------------------------------------------------------------------


def _pair_cases(seed: int, draw):
    """3000 lists of d = 1..8 pairs [a, b], each entry from `draw(rng)`,
    after one case where sorting by gain is wrong for (max, min): at z = 1
    the larger gain (10 -> 20) leaves the other child at 0, the smaller
    (0 -> 5) keeps both at 5 or more."""
    yield [[10, 20], [0, 5]]
    rng = random.Random(seed)
    for _ in range(3000):
        yield [[draw(rng), draw(rng)] for _ in range(rng.randint(1, 8))]


@pytest.mark.parametrize(
    "combine, identity, pair_merge, pair_split, draw",
    [
        # small ints, negatives included, so ties and negative sums are common
        (lambda a, b: a + b, 0, _sum_pairs, _sum_split, lambda rng: rng.randint(-3, 3)),
        # infinity, the identity of min, as an entry too
        (lesser, math.inf, _min_pairs, _min_split, lambda rng: rng.choice((-1, 0, 1, 2, 2, 3, math.inf))),
    ],
    ids=["sum", "min"],
)
def test_closed_forms_equal_the_fold_and_its_walk(combine, identity, pair_merge, pair_split, draw):
    for pairs in _pair_cases(120, draw):
        merged = reference_fold(combine, identity, pairs)
        assert pair_merge(pairs) == merged, pairs
        for z in range(len(pairs) + 1):
            assert pair_split(pairs, z) == reference_split(combine, identity, pairs, z), (pairs, z)


def _broom(leaves: int, handle: int) -> Graph:
    """A path of `handle` players ending at hub `handle`, which has `leaves`
    more leaves; handle 0 is a star."""
    hub = handle
    edges = [(i, i + 1) for i in range(handle)]
    edges += [(hub, hub + i) for i in range(1, leaves + 1)]
    return Graph.from_edges(hub + leaves + 1, edges)


def _tie_heavy_game(graph: Graph, rng: random.Random, cost: int) -> Game:
    tables = [
        tuple(rng.randint(0, 1) for _ in range(graph.degree(v) + 2))
        for v in range(graph.player_count)
    ]
    return Game(graph, tables, [cost] * graph.player_count)


@pytest.mark.parametrize(
    "handle, most", [(0, 14), (2, 14), (8, 5)], ids=["star", "broom", "long-broom"]
)
def test_stars_and_brooms_with_tied_payoffs_match_the_oracle(handle, most):
    """Payoffs in {0, 1} with unit or zero costs tie almost everywhere, so
    the hub's children reach the closed forms with many equal gains.  The
    long broom's handle is a chain of one-child cliques."""
    rng = random.Random(130 + handle)
    for leaves in range(1, most + 1):
        for cost in (0, 1):
            _check_against_oracle(_tie_heavy_game(_broom(leaves, handle), rng, cost))


def _digest(profile: Profile) -> tuple[int, str]:
    members = sorted(profile.investing)
    return len(members), hashlib.sha256(",".join(map(str, members)).encode()).hexdigest()[:16]


def _lifted(game: Game) -> Game:
    """The same game with g_v(t) + t, so that no player is stuck at 0 and
    the egalitarian optimum needs investors."""
    tables = [tuple(g + t for t, g in enumerate(row)) for row in game.externality]
    return Game(game.graph, tables, game.cost)


@pytest.mark.parametrize(
    "leaves, seed, pins",
    [
        (
            200,
            105,
            {
                ("drawn", "usw"): (Fraction(7093, 12), (114, "bc7669e71ff2fb6d")),
                ("drawn", "esw"): (0, (0, "e3b0c44298fc1c14")),
                ("lifted", "usw"): (Fraction(3281, 3), (176, "ca3e9c362d56614f")),
                ("lifted", "esw"): (1, (2, "d20465aa92ad20bd")),  # players 0 and 4
            },
        ),
        (
            2000,
            1,
            {
                ("drawn", "usw"): (Fraction(71093, 12), (1234, "2fe789ca4562eb76")),
                ("drawn", "esw"): (0, (0, "e3b0c44298fc1c14")),
                ("lifted", "usw"): (Fraction(132103, 12), (1756, "02c0f1e206945786")),
                ("lifted", "esw"): (1, (1, "5feceb66ffc86f38")),  # player 0
            },
        ),
    ],
    ids=["200", "2000"],
)
def test_star_answers_are_pinned(leaves, seed, pins):
    """Values and sorted witnesses (count, digest) on the benchmark's star
    draw, as the fold over every child gave them."""
    game = drawn_star(leaves, seed)
    games = {"drawn": game, "lifted": _lifted(game)}
    solvers = {"usw": solve_usw_ccforest, "esw": solve_esw_ccforest}
    for (which, question), (value, witness) in pins.items():
        report = solvers[question](games[which])
        assert (report.value, _digest(report.profile)) == (value, witness), (which, question)
        assert report.table_entries == 6 * leaves + 2


def _count_calls(monkeypatch, names: tuple, field: str) -> list:
    """Count every call of one field of the named vector types."""
    calls = []
    for name in names:
        vectors = getattr(ccforest, name)

        def counted(*args, original=getattr(vectors, field)):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(ccforest, name, vectors._replace(**{field: counted}))
    return calls


def _count_folds(monkeypatch) -> list:
    """Count every pairwise fold step of both welfare vector types."""
    return _count_calls(monkeypatch, ("_SUMS", "_MINIMA"), "merge")


@pytest.mark.parametrize("solve", [solve_usw_ccforest, solve_esw_ccforest], ids=["usw", "esw"])
def test_one_member_children_are_never_folded(solve, monkeypatch):
    """A 2000-leaf star neither folds the hub's children nor rebuilds their
    prefixes; a twin tree, whose cliques have several members, still folds."""
    calls = _count_folds(monkeypatch)
    assert solve(drawn_star(2000, 1)).status is SolveStatus.SOLVED
    assert calls == []
    twins = gen_random_game(GameSpec("twin_tree", seed=3, multiplicities=(2, 1, 3, 1, 2, 1, 1, 2)))
    assert solve(twins).status is SolveStatus.SOLVED
    assert calls


@pytest.mark.parametrize(
    "graph, hub_merges",
    [(path_graph(2000), (0, 0)), (_broom(3, 50), (2 * 2, 2 * 3 + 2))],
    ids=["path", "broom"],
)
def test_leaves_and_one_child_cliques_merge_nothing(graph, hub_merges, monkeypatch):
    """Rooted at player 0, every clique of a path, and of a broom's handle,
    has at most one child, so it neither folds, nor merges pairs, nor ORs
    shifted bitsets.  Only a broom's hub merges: pairs once per hub x for
    USW and ESW, and for PSNE its three leaves per x, then the first two
    again in the walk.  A best-shot game has equilibria, so the PSNE walk
    runs the whole path."""
    game = random_game(graph, random.Random(150))
    folds = _count_folds(monkeypatch)
    pairs = _count_calls(monkeypatch, ("_SUMS", "_MINIMA"), "pair_merge")
    shifts = _count_calls(monkeypatch, ("_BITSETS",), "merge")
    assert solve_usw_ccforest(game).status is SolveStatus.SOLVED
    assert solve_esw_ccforest(game).status is SolveStatus.SOLVED
    shot = best_shot_game(graph)
    assert is_psne(shot, solve_psne_ccforest(shot).profile)
    assert folds == []
    assert (len(pairs), len(shifts)) == hub_merges
