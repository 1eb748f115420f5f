"""Dynamic programming over nice tree decompositions.

A DP state at a decomposition node is (U, f): U is the set of bag vertices
currently investing, and f counts, for each bag vertex, its already-forgotten
investing neighbors.  A vertex is *settled* when it is forgotten — at that
moment every neighbor is either still in the bag or already forgotten, so its
final closed-neighborhood investor count is known and the objective can act
on it (equilibrium stability check, payoff sum, or payoff threshold).

Joins combine same-U states by adding their forgotten-neighbor counts; the
two subtrees settle disjoint vertex sets, so sums and counts never double.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Callable

from .decomposition import (
    NiceTreeDecomposition,
    TreeDecomposition,
    heuristic_decomposition,
    to_nice,
    validate_nice,
)
from .game import Game, Profile, ScaledGame, max_feasible_threshold, scale_game
from .report import SolveReport, SolveStatus

# A state key: (sorted tuple of investing bag vertices,
#               sorted (vertex, count) pairs with count > 0)
StateKey = tuple[tuple[int, ...], tuple[tuple[int, int], ...]]

EMPTY_STATE: StateKey = ((), ())


def prepare_decomposition(
    game: Game,
    decomposition: "TreeDecomposition | NiceTreeDecomposition | None" = None,
) -> NiceTreeDecomposition:
    """Produce a validated nice decomposition for this game's graph.

    None runs the min-fill heuristic; a plain decomposition is converted
    (which validates it); a nice one is validated as-is.  Invalid input
    raises ValueError naming the first broken property.
    """
    if decomposition is None:
        decomposition = heuristic_decomposition(game.graph, "min_fill")
    if isinstance(decomposition, NiceTreeDecomposition):
        problems = validate_nice(decomposition, game.graph)
        if problems:
            first = problems[0]
            raise ValueError(
                f"not a valid nice tree decomposition ({first.axiom}: {first.detail})"
            )
        return decomposition
    return to_nice(decomposition, game.graph)


def _sweep(
    game: Game,
    ntd: NiceTreeDecomposition,
    score: ScaledGame | None,
    settle_filter: "Callable[[int, bool, int], bool] | None",
):
    """One bottom-up pass; returns (tables, witnesses).

    With `score` None, tables[i] maps StateKey -> True (feasibility);
    otherwise it maps StateKey -> the best welfare in `score`'s scaled ints.
    witnesses[i] maps StateKey -> the child key(s) it came from, so a chosen
    root state can be replayed downward into a full profile.
    """
    nbr = [game.graph.neighbors(v) for v in range(game.graph.player_count)]
    scoring = score is not None
    if scoring:
        ext, cost = score.ext, score.cost
    tables: list[dict] = [None] * len(ntd.bags)
    witnesses: list[dict] = [None] * len(ntd.bags)
    for i in ntd.postorder:
        kind = ntd.kinds[i]
        table: dict = {}
        witness: dict = {}
        if kind == "leaf":
            table[EMPTY_STATE] = 0 if scoring else True
            witness[EMPTY_STATE] = ()
        elif kind == "introduce":
            child = ntd.children[i][0]
            u = ntd.distinguished[i]
            for key, val in sorted(tables[child].items()):
                investors, counts = key
                # the newcomer has no forgotten neighbors (its edges are
                # covered by bags at or above this node), so counts carry over
                abstain_key = (investors, counts)
                invest_key = (tuple(sorted(investors + (u,))), counts)
                table[abstain_key] = val
                witness[abstain_key] = (key,)
                table[invest_key] = val
                witness[invest_key] = (key,)
        elif kind == "forget":
            child = ntd.children[i][0]
            v = ntd.distinguished[i]
            v_nbrs = nbr[v]
            bag = ntd.bags[i]
            for key, val in sorted(tables[child].items()):
                investors, counts = key
                invests = v in investors
                fmap = dict(counts)
                k = (
                    fmap.pop(v, 0)
                    + sum(1 for x in investors if x in v_nbrs)
                    + (1 if invests else 0)
                )
                if settle_filter is not None and not settle_filter(v, invests, k):
                    continue
                if scoring:
                    new_val = val + ext[v][k]
                    if invests:
                        new_val -= cost[v]
                else:
                    new_val = True
                new_investors = tuple(x for x in investors if x != v)
                if invests:
                    for x in bag:
                        if x in v_nbrs:
                            fmap[x] = fmap.get(x, 0) + 1
                new_key = (new_investors, tuple(sorted(fmap.items())))
                if new_key not in table or (scoring and new_val > table[new_key]):
                    table[new_key] = new_val
                    witness[new_key] = (key,)
        else:  # join
            left, right = ntd.children[i]
            grouped: dict[tuple[int, ...], list] = {}
            for key, val in sorted(tables[right].items()):
                grouped.setdefault(key[0], []).append((key, val))
            for key_l, val_l in sorted(tables[left].items()):
                investors = key_l[0]
                for key_r, val_r in grouped.get(investors, ()):
                    fmap = dict(key_l[1])
                    for x, c in key_r[1]:
                        fmap[x] = fmap.get(x, 0) + c
                    new_key = (investors, tuple(sorted(fmap.items())))
                    new_val = (val_l + val_r) if scoring else True
                    if new_key not in table or (scoring and new_val > table[new_key]):
                        table[new_key] = new_val
                        witness[new_key] = (key_l, key_r)
        tables[i] = table
        witnesses[i] = witness
    return tables, witnesses


def _replay(ntd: NiceTreeDecomposition, witnesses: list[dict]) -> Profile:
    """Walk the chosen root state back down, reading actions at forgets."""
    invest: set[int] = set()
    stack: list[tuple[int, StateKey]] = [(ntd.root, EMPTY_STATE)]
    while stack:
        i, key = stack.pop()
        kind = ntd.kinds[i]
        wit = witnesses[i][key]
        if kind == "leaf":
            continue
        if kind == "forget":
            child_key = wit[0]
            if ntd.distinguished[i] in child_key[0]:
                invest.add(ntd.distinguished[i])
            stack.append((ntd.children[i][0], child_key))
        elif kind == "introduce":
            stack.append((ntd.children[i][0], wit[0]))
        else:
            left, right = ntd.children[i]
            stack.append((left, wit[0]))
            stack.append((right, wit[1]))
    return Profile(frozenset(invest))


def _report(
    started: float,
    ntd: NiceTreeDecomposition,
    tables: list[dict],
    witnesses: "list[dict] | None",
    value: Fraction | None = None,
) -> SolveReport:
    """SOLVED with the profile replayed from `witnesses`, or NO_PSNE
    without them; timed from `started`."""
    return SolveReport(
        status=SolveStatus.NO_PSNE if witnesses is None else SolveStatus.SOLVED,
        algorithm="treewidth",
        profile=None if witnesses is None else _replay(ntd, witnesses),
        value=value,
        elapsed=time.perf_counter() - started,
        table_entries=sum(len(t) for t in tables),
        detail=f"decomposition width {ntd.width()}",
    )


def solve_psne_treewidth(
    game: Game,
    decomposition: "TreeDecomposition | NiceTreeDecomposition | None" = None,
) -> SolveReport:
    """Find a pure Nash equilibrium, or prove none exists."""
    started = time.perf_counter()
    ntd = prepare_decomposition(game, decomposition)
    scaled = scale_game(game)
    tables, witnesses = _sweep(game, ntd, score=None, settle_filter=scaled.stable)
    if EMPTY_STATE not in tables[ntd.root]:
        return _report(started, ntd, tables, None)
    return _report(started, ntd, tables, witnesses)


def solve_usw_treewidth(
    game: Game,
    decomposition: "TreeDecomposition | NiceTreeDecomposition | None" = None,
) -> SolveReport:
    """Maximize the sum of payoffs (the organizer dictates every action)."""
    started = time.perf_counter()
    ntd = prepare_decomposition(game, decomposition)
    scaled = scale_game(game)
    tables, witnesses = _sweep(game, ntd, score=scaled, settle_filter=None)
    value = Fraction(tables[ntd.root][EMPTY_STATE], scaled.scale)
    return _report(started, ntd, tables, witnesses, value)


def solve_esw_treewidth(
    game: Game,
    decomposition: "TreeDecomposition | NiceTreeDecomposition | None" = None,
) -> SolveReport:
    """Maximize the minimum payoff via threshold search over payoff values."""
    started = time.perf_counter()
    if game.player_count == 0:
        raise ValueError("egalitarian welfare is undefined for a zero-player game")
    ntd = prepare_decomposition(game, decomposition)
    scaled = scale_game(game)
    ext, cost = scaled.ext, scaled.cost

    def probe(q: int):
        """(tables, witnesses) when "every payoff >= q" is feasible."""

        def above(v: int, invests: bool, k: int) -> bool:
            value = ext[v][k]
            if invests:
                value -= cost[v]
            return value >= q

        tables, witnesses = _sweep(game, ntd, score=None, settle_filter=above)
        return (tables, witnesses) if EMPTY_STATE in tables[ntd.root] else None

    best_q, found = max_feasible_threshold(scaled.levels, probe)
    assert found is not None, "the smallest payoff level is always feasible"
    tables, witnesses = found
    return _report(started, ntd, tables, witnesses, Fraction(best_q, scaled.scale))
