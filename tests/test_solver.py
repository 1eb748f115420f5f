"""`bnpg.solve`: the `auto` branches, argument checks, and agreement with
calling each solver directly."""

import random

import pytest

import bnpg
from bnpg import SolveStatus, solve
from bnpg.ccforest import solve_esw_ccforest, solve_psne_ccforest, solve_usw_ccforest
from bnpg.decomposition import TreeDecomposition, heuristic_decomposition
from bnpg.oracle import OracleLimits, first_psne, max_esw, max_usw
from bnpg.treewidth import solve_esw_treewidth, solve_psne_treewidth, solve_usw_treewidth

from helpers import best_shot_game, cycle_graph, random_game, random_tree

QUESTIONS = ("psne", "usw", "esw")
CCFOREST = {"psne": solve_psne_ccforest, "usw": solve_usw_ccforest, "esw": solve_esw_ccforest}
TREEWIDTH = {"psne": solve_psne_treewidth, "usw": solve_usw_treewidth, "esw": solve_esw_treewidth}


def _same(report, direct):
    """Equal in everything but the wall-clock time."""
    return report._replace(elapsed=0.0) == direct._replace(elapsed=0.0)


def _corpus():
    rng = random.Random(5)
    forests = [random_game(random_tree(n, rng), rng) for n in (1, 4, 7, 9)]
    cycles = [random_game(cycle_graph(n), rng) for n in (4, 5, 8)]
    return forests, cycles


def test_every_exported_name_resolves():
    assert "solve" in bnpg.__all__
    for name in bnpg.__all__:
        assert getattr(bnpg, name) is not None, name


@pytest.mark.parametrize("question", QUESTIONS)
def test_auto_picks_ccforest_on_a_forest(question):
    game = best_shot_game(random_tree(8, random.Random(1)))
    assert solve(game, question).algorithm == "ccforest"


@pytest.mark.parametrize("question", QUESTIONS)
def test_auto_falls_through_to_treewidth_on_a_cycle(question):
    game = best_shot_game(cycle_graph(6))
    report = solve(game, question)
    assert report.algorithm == "treewidth"
    assert report.detail == "decomposition width 2"


def test_auto_uses_brute_force_beyond_the_width_cap():
    game = best_shot_game(cycle_graph(6))
    assert solve(game, "usw", width_cap=0).algorithm == "brute"
    for question in QUESTIONS:
        assert _same(solve(game, question, width_cap=0), solve(game, question, algo="brute"))


def test_auto_explains_why_nothing_applies():
    game = best_shot_game(cycle_graph(6))
    report = solve(game, "usw", width_cap=0, limits=OracleLimits(max_players=3))
    assert report.status is SolveStatus.NOT_APPLICABLE
    assert report.algorithm == "auto"
    assert report.detail == (
        "no solver applies: the critical clique graph is not a forest, the "
        "heuristic decomposition width 2 exceeds the cap 0, and 6 players "
        "exceed the brute-force limit 3"
    )


@pytest.mark.parametrize("width_cap", [8, 0])
def test_auto_runs_min_fill_once_and_builds_without_checks(width_cap, monkeypatch):
    """Within the cap or past it, `auto` runs min-fill once per solve, and
    builds the nice form without validating or re-deriving it."""
    import bnpg.decomposition
    import bnpg.elimination
    import bnpg.treewidth

    calls = []
    original = bnpg.elimination.elimination_order

    def counted(*args):
        calls.append(1)
        return original(*args)

    def refused(*args, **kwargs):
        raise AssertionError("a check ran on the min-fill path")

    monkeypatch.setattr(bnpg.elimination, "elimination_order", counted)
    monkeypatch.setattr(bnpg.decomposition.NiceTreeDecomposition, "__init__", refused)
    monkeypatch.setattr(bnpg.decomposition, "validate_decomposition", refused)
    monkeypatch.setattr(bnpg.treewidth, "validate_nice", refused)
    game = best_shot_game(cycle_graph(6))
    for question in QUESTIONS:
        report = solve(game, question, width_cap=width_cap)
        assert report.algorithm == ("treewidth" if width_cap else "brute")
    assert len(calls) == len(QUESTIONS)


def test_auto_with_a_decomposition_runs_treewidth_on_it():
    game = best_shot_game(random_tree(6, random.Random(2)))  # a forest all the same
    one_bag = TreeDecomposition((tuple(range(6)),), ())  # wider than min-fill's
    report = solve(game, "usw", td=one_bag)
    assert report.algorithm == "treewidth"
    assert report.detail == "decomposition width 5"
    assert _same(report, solve_usw_treewidth(game, one_bag))


@pytest.mark.parametrize("algo", ["ccforest", "brute"])
def test_decomposition_needs_a_treewidth_capable_algo(algo):
    game = best_shot_game(cycle_graph(4))
    td = heuristic_decomposition(game.graph, "min_fill")
    with pytest.raises(ValueError, match="--td"):
        solve(game, "usw", algo=algo, td=td)


def test_unknown_question_or_algo_is_rejected():
    game = best_shot_game(cycle_graph(4))
    with pytest.raises(ValueError, match="question"):
        solve(game, "nash")
    with pytest.raises(ValueError, match="algorithm"):
        solve(game, "usw", algo="fastest")


def test_explicit_ccforest_reports_not_applicable_on_a_cycle():
    report = solve(best_shot_game(cycle_graph(5)), "psne", algo="ccforest")
    assert report.status is SolveStatus.NOT_APPLICABLE
    assert report.algorithm == "ccforest"


def test_reports_equal_the_direct_solver_calls():
    forests, cycles = _corpus()
    for game in forests + cycles:
        for q in QUESTIONS:
            assert _same(solve(game, q, algo="treewidth"), TREEWIDTH[q](game))
            assert _same(solve(game, q, algo="ccforest"), CCFOREST[q](game))
            direct = CCFOREST[q](game) if game in forests else TREEWIDTH[q](game)
            assert _same(solve(game, q), direct)
        psne = solve(game, "psne", algo="brute")
        assert psne.profile == first_psne(game)
        assert psne.solved == (psne.profile is not None)
        for q, oracle in (("usw", max_usw), ("esw", max_esw)):
            report = solve(game, q, algo="brute")
            assert (report.profile, report.value) == oracle(game)
            assert report.algorithm == "brute" and report.solved
