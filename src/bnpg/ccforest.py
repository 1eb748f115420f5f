"""Dynamic programs over the critical clique forest.

Closed twins share a closed neighborhood, so every member of a critical
clique K sees the same investor total: (investors in K) + (investors in K's
parent clique) + (investors across K's children).  Tables are indexed by that
triple (x, y, z).  Equilibria merge children with reachable-sum bitsets
and read each clique's admissible investor counts and investors off
`game.stability_rows`, as the treewidth PSNE does; utilitarian and
egalitarian welfare share one sweep whose children merge by "max over
splits of combine", with combine the sum (USW) or the minimum (ESW).
Applies only when the critical clique graph is a forest.
"""

from __future__ import annotations

import math
import operator
import time
from fractions import Fraction
from itertools import repeat
from typing import Callable, Sequence

from .critical_clique import (
    CriticalCliqueGraph,
    RootedForest,
    build_cc_graph,
    rooted_forest,
)
from .game import Game, Profile, ScaledGame, lesser, scale_game, stability_rows
from .report import SolveReport, SolveStatus

Bounds = "tuple[int, int] | None"  # admissible investor counts inside the clique


# ---------------------------------------------------------------------------
# Feasibility DP (equilibria)
# ---------------------------------------------------------------------------


def _psne_rule(rows: list, members: Sequence[int]):
    """PSNE per clique, from `stability_rows`: at closed total t, a member
    whose abstain row is None must invest and one whose invest row is None
    must not.  bounds[t] is the (lo, hi) range of investor counts, or None
    when some member can do neither; order[t] lists the members that must
    invest, then the free ones, each by ascending index, so its first x
    members are the investors."""
    bounds: list[Bounds] = []
    order: list = []
    for t in range(len(rows[members[0]][0])):
        must, free = [], []
        for v in members:
            abstain, invest = rows[v]
            if abstain[t] is None:
                if invest[t] is None:
                    bounds.append(None)
                    order.append(None)
                    break
                must.append(v)
            elif invest[t] is not None:
                free.append(v)
        else:
            bounds.append((len(must), len(must) + len(free)))
            order.append(must + free)
    return bounds, order


def _feasible_tables(
    cc: CriticalCliqueGraph, rf: RootedForest, bounds: list[list[Bounds]]
) -> list[dict[tuple[int, int], int]]:
    """Per clique: (x, y) -> bitset of achievable child totals z.

    `bounds[k][total]` is clique k's admissible x-interval at that total.
    Child cliques see y = x, so their feasible contributions are merged into
    a reachable-sum bitset once per x.
    """
    cliques = cc.cliques
    tables: list[dict[tuple[int, int], int]] = [{} for _ in cliques]
    for k in rf.postorder:
        members = cliques[k]
        kids = rf.children[k]
        parent = rf.parent[k]
        ymax = len(cliques[parent]) if parent is not None else 0
        zmax = sum(len(cliques[j]) for j in kids)
        admissible = bounds[k]
        table = tables[k]
        for x in range(len(members) + 1):
            reach = 1
            for j in kids:
                shifted = 0
                for xj in range(len(cliques[j]) + 1):
                    if tables[j].get((xj, x)):
                        shifted |= reach << xj
                reach = shifted
                if not reach:
                    break
            if not reach:
                continue
            for y in range(ymax + 1):
                zbits = 0
                for z in range(zmax + 1):
                    if (reach >> z) & 1:
                        b = admissible[x + y + z]
                        if b is not None and b[0] <= x <= b[1]:
                            zbits |= 1 << z
                if zbits:
                    table[(x, y)] = zbits
    return tables


def _extract_feasible(
    cc: CriticalCliqueGraph,
    rf: RootedForest,
    tables: list[dict[tuple[int, int], int]],
    choices: dict[int, tuple[int, int]],
    orders: list,
) -> Profile:
    """Walk chosen table entries top-down; clique k invests the first x
    members of `orders[k]` at its total."""
    invest: set[int] = set()
    stack = [(root, choices[root][0], 0, choices[root][1]) for root in rf.roots]
    while stack:
        k, x, y, z = stack.pop()
        invest.update(orders[k][x + y + z][:x])
        kids = rf.children[k]
        if not kids:
            continue
        options = [
            [
                xj
                for xj in range(len(cc.cliques[j]) + 1)
                if tables[j].get((xj, x))
            ]
            for j in kids
        ]
        prefix = [1]
        for opts in options:
            shifted = 0
            for xj in opts:
                shifted |= prefix[-1] << xj
            prefix.append(shifted)
        remaining = z
        for idx in range(len(kids) - 1, -1, -1):
            j = kids[idx]
            for xj in options[idx]:  # ascending: smallest contribution first
                if remaining >= xj and (prefix[idx] >> (remaining - xj)) & 1:
                    zbits = tables[j][(xj, x)]
                    stack.append((j, xj, x, (zbits & -zbits).bit_length() - 1))
                    remaining -= xj
                    break
            else:
                raise AssertionError("inconsistent feasibility tables")
    return Profile(frozenset(invest))


def _table_entry_count(tables: list[dict[tuple[int, int], int]]) -> int:
    return sum(bits.bit_count() for t in tables for bits in t.values())


def _report(
    started: float, status: SolveStatus = SolveStatus.SOLVED, **fields
) -> SolveReport:
    """A ccforest report, timed from `started`."""
    elapsed = time.perf_counter() - started
    return SolveReport(status, "ccforest", elapsed=elapsed, **fields)


def _forest_or_report(game: Game, started: float):
    """(cc, rooted forest, None), or (cc, None, a NOT_APPLICABLE report)
    when the critical clique graph is not a forest."""
    cc = build_cc_graph(game.graph)
    try:
        return cc, rooted_forest(cc), None
    except ValueError as exc:
        return cc, None, _report(started, SolveStatus.NOT_APPLICABLE, detail=str(exc))


def solve_psne_ccforest(game: Game) -> SolveReport:
    """Find a pure Nash equilibrium, or prove none exists."""
    started = time.perf_counter()
    cc, rf, bail = _forest_or_report(game, started)
    if bail is not None:
        return bail
    rows = stability_rows(scale_game(game))
    rules = [_psne_rule(rows, members) for members in cc.cliques]
    tables = _feasible_tables(cc, rf, [bounds for bounds, _ in rules])
    choices: dict[int, tuple[int, int]] = {}
    for root in rf.roots:
        # smallest feasible (x, z) with y = 0
        for x in range(len(cc.cliques[root]) + 1):
            zbits = tables[root].get((x, 0), 0)
            if zbits:
                choices[root] = (x, (zbits & -zbits).bit_length() - 1)
                break
        else:
            return _report(
                started,
                SolveStatus.NO_PSNE,
                table_entries=_table_entry_count(tables),
                detail=(
                    "no equilibrium in the component containing player "
                    f"{cc.cliques[root][0]}"
                ),
            )
    invest = _extract_feasible(cc, rf, tables, choices, [order for _, order in rules])
    return _report(started, profile=invest, table_entries=_table_entry_count(tables))


# ---------------------------------------------------------------------------
# Welfare DP: (max, +) for USW, (max, min) for ESW
# ---------------------------------------------------------------------------


def _usw_rule(scaled: ScaledGame, members: Sequence[int]):
    """USW per clique: the x cheapest members by (cost, index) invest, and
    value[x][t] is the clique's payoff sum at closed total t."""
    ext, cost = scaled.ext, scaled.cost
    cheap = sorted(members, key=lambda v: (cost[v], v))
    gsum = [sum(col) for col in zip(*(ext[v] for v in members))]
    value = [gsum]
    paid = 0
    for v in cheap:
        paid += cost[v]
        value.append([g - paid for g in gsum])
    return value, [cheap] * len(gsum)


def _esw_rule(scaled: ScaledGame, members: Sequence[int]):
    """ESW per clique: at total t, the x members with the largest
    g_v(t) - c(v) invest (smaller index first on ties), and value[x][t] is
    the clique's minimum payoff.  Trading an investor for an abstainer with
    a larger g - c never lowers that minimum, so no other choice of x
    investors does better."""
    ext, cost = scaled.ext, scaled.cost
    size = len(members)
    top = len(ext[members[0]]) - 1
    value = [[0] * (top + 1) for _ in range(size + 1)]
    orders = []
    for t in range(top + 1):
        ranked = sorted(members, key=lambda v: (cost[v] - ext[v][t], v))
        orders.append(ranked)
        # invested[x]: min over ranked[:x] of g - c; abstained[x]: min over
        # ranked[x:] of g
        invested = [math.inf]
        for v in ranked:
            invested.append(min(invested[-1], ext[v][t] - cost[v]))
        abstained = math.inf
        for x in range(size, -1, -1):
            value[x][t] = min(invested[x], abstained)
            if x:
                abstained = min(abstained, ext[ranked[x - 1]][t])
    return value, orders


def _merge(acc: list, best: list, combine: Callable) -> list:
    """out[s] = max over a + b = s of combine(acc[a], best[b])."""
    out = list(map(combine, acc, repeat(best[0])))
    last = acc[-1]
    for b in range(1, len(best)):
        right = best[b]
        out.append(combine(last, right))
        for s, left in enumerate(acc[:-1], b):
            candidate = combine(left, right)
            if candidate > out[s]:
                out[s] = candidate
    return out


def _best_welfare(game: Game, clique_rule: Callable, combine: Callable, identity):
    """One bottom-up sweep; each root's table holds its component's optimum.

    `clique_rule(scaled, members)` gives `value[x][t]`, what clique K adds
    when x members invest at closed total t, and `order[t]`, whose first x
    members are the investors that get it.  `tables[k][x][y][z]` folds
    `combine` over K's subtree, and `bests[k][y][x]` is the max over z.
    Every (x, y, z) is realized by some profile, so every entry is a value.
    """
    started = time.perf_counter()
    cc, rf, bail = _forest_or_report(game, started)
    if bail is not None:
        return bail
    cliques = cc.cliques
    scaled = scale_game(game)
    orders: list = [None] * len(cliques)
    tables: list = [None] * len(cliques)
    bests: list = [None] * len(cliques)
    for k in rf.postorder:
        kids = rf.children[k]
        parent = rf.parent[k]
        ymax = len(cliques[parent]) if parent is not None else 0
        value, orders[k] = clique_rule(scaled, cliques[k])
        table = []
        for x, vx in enumerate(value):
            merged = [identity]
            for j in kids:
                merged = _merge(merged, bests[j][x], combine)
            width = len(merged)
            rows = [
                list(map(combine, vx[x + y : x + y + width], merged))
                for y in range(ymax + 1)
            ]
            table.append(rows)
        tables[k] = table
        bests[k] = [[max(rows[y]) for rows in table] for y in range(ymax + 1)]

    total = identity
    stack = []
    for root in rf.roots:
        best = bests[root][0]
        val = max(best)
        x = best.index(val)  # the smallest x, then the smallest z
        stack.append((root, x, 0, tables[root][x][0].index(val)))
        total = combine(total, val)

    invest: set[int] = set()
    while stack:
        k, x, y, z = stack.pop()
        invest.update(orders[k][x + y + z][:x])
        kids = rf.children[k]
        prefix = [[identity]]
        for j in kids:
            prefix.append(_merge(prefix[-1], bests[j][x], combine))
        remaining, target = z, prefix[-1][z]
        for idx in range(len(kids) - 1, -1, -1):
            j = kids[idx]
            lefts = prefix[idx]
            for xj, right in enumerate(bests[j][x]):
                s = remaining - xj
                if 0 <= s < len(lefts) and combine(lefts[s], right) == target:
                    stack.append((j, xj, x, tables[j][xj][x].index(right)))
                    remaining, target = s, lefts[s]
                    break
            else:
                raise AssertionError("inconsistent welfare tables")

    return _report(
        started,
        profile=Profile(frozenset(invest)),
        value=Fraction(total, scaled.scale),
        table_entries=sum(len(row) for t in tables for rows in t for row in rows),
    )


def solve_usw_ccforest(game: Game) -> SolveReport:
    """Maximize the sum of payoffs (the organizer dictates every action)."""
    return _best_welfare(game, _usw_rule, operator.add, 0)


def solve_esw_ccforest(game: Game) -> SolveReport:
    """Maximize the minimum payoff, in one (max, min) sweep.

    A childless clique merges from infinity, the identity for min; every
    player belongs to some clique, so each root's value is a payoff, never
    infinity.
    """
    if game.player_count == 0:
        raise ValueError("egalitarian welfare is undefined for a zero-player game")
    return _best_welfare(game, _esw_rule, lesser, math.inf)
