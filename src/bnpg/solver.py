"""One entry point for the three questions, with `auto` solver selection.

`solve` runs the solver family asked for, or with `auto` the first one that
applies, and returns its SolveReport.  Its arguments mirror the flags of
`bnpg psne|usw|esw`.
"""

from __future__ import annotations

import time

from .ccforest import solve_esw_ccforest, solve_psne_ccforest, solve_usw_ccforest
from .decomposition import (
    NiceTreeDecomposition,
    TreeDecomposition,
    heuristic_decomposition,
)
from .game import Game
from .oracle import OracleLimits, first_psne, max_esw, max_usw
from .report import SolveReport, SolveStatus
from .treewidth import solve_esw_treewidth, solve_psne_treewidth, solve_usw_treewidth

QUESTIONS = ("psne", "usw", "esw")
ALGORITHMS = ("auto", "brute", "ccforest", "treewidth")

# Solvers are referenced only as module globals or as values of these
# module-level dicts: bench/spans.py traces them by swapping those in place.
_CCFOREST = {
    "psne": solve_psne_ccforest,
    "usw": solve_usw_ccforest,
    "esw": solve_esw_ccforest,
}
_TREEWIDTH = {
    "psne": solve_psne_treewidth,
    "usw": solve_usw_treewidth,
    "esw": solve_esw_treewidth,
}
_ORACLE = {"psne": first_psne, "usw": max_usw, "esw": max_esw}


def solve(
    game: Game,
    question: str,
    algo: str = "auto",
    td: "TreeDecomposition | NiceTreeDecomposition | None" = None,
    limits: OracleLimits = OracleLimits(),
    width_cap: int = 8,
) -> SolveReport:
    """Answer `question` ("psne", "usw" or "esw") about `game`.

    `algo`, `td`, `limits.max_players` and `width_cap` are the CLI's
    `--algo`, `--td`, `--oracle-limit` and `--width-cap`.  `auto` uses `td`
    with the treewidth DP when one is given.  Otherwise it tries `ccforest`;
    when the critical clique graph is not a forest it runs the treewidth DP
    on the min-fill decomposition if that is at most `width_cap` wide, then
    brute force if the game has at most `limits.max_players` players, and
    else returns NOT_APPLICABLE saying why.  Brute force raises
    `LimitExceeded` past `limits`.
    """
    if question not in QUESTIONS:
        raise ValueError(f"unknown question {question!r}; expected one of {QUESTIONS}")
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}; expected one of {ALGORITHMS}")
    if td is not None and algo in ("brute", "ccforest"):
        raise ValueError("--td only makes sense with --algo treewidth or auto")
    if algo == "auto":
        if td is not None:
            algo = "treewidth"
        else:
            report = _CCFOREST[question](game)
            if report.status is not SolveStatus.NOT_APPLICABLE:
                return report
            heuristic = heuristic_decomposition(game.graph, "min_fill")
            if heuristic.width() <= width_cap:
                algo, td = "treewidth", heuristic
            elif game.player_count <= limits.max_players:
                algo = "brute"
            else:
                return SolveReport(
                    status=SolveStatus.NOT_APPLICABLE,
                    algorithm="auto",
                    detail=(
                        "no solver applies: the critical clique graph is not "
                        f"a forest, the heuristic decomposition width "
                        f"{heuristic.width()} exceeds the cap {width_cap}, "
                        f"and {game.player_count} players exceed the "
                        f"brute-force limit {limits.max_players}"
                    ),
                )
    if algo == "ccforest":
        return _CCFOREST[question](game)
    if algo == "treewidth":
        return _TREEWIDTH[question](game, td)
    return _brute(question, game, limits)


def _brute(question: str, game: Game, limits: OracleLimits) -> SolveReport:
    started = time.perf_counter()
    found = _ORACLE[question](game, limits)
    profile, value = (found, None) if question == "psne" else found
    status = SolveStatus.NO_PSNE if profile is None else SolveStatus.SOLVED
    return SolveReport(status, "brute", profile, value, time.perf_counter() - started)
