"""Dynamic programs over the critical clique forest.

Closed twins share a closed neighborhood, so every member of a critical
clique K sees the same investor total: (investors in K) + (investors in K's
parent clique) + (investors across K's children).  Tables are indexed by that
triple (x, y, z).  One bottom-up sweep and one top-down extraction walk
answer all three questions, written once over a vector type in z whose
children merge by "max over splits of combine".  Welfare vectors are lists,
with combine the sum (USW) or the minimum (ESW).  Equilibrium vectors are
int bitsets of 0/1 entries, so the merge is an OR over shifts and combine
an AND; each clique's admissible investor counts and investors come from
`game.stability_rows`, as in the treewidth PSNE.
Applies only when the critical clique graph is a forest.
"""

from __future__ import annotations

import math
import operator
import time
from fractions import Fraction
from itertools import chain, repeat
from typing import Callable, NamedTuple, Sequence

from .critical_clique import build_cc_graph, rooted_forest
from .game import Game, Profile, lesser, stability_rows
from .report import SolveReport, SolveStatus


# ---------------------------------------------------------------------------
# Per-clique rules: value[x][t] is what clique K adds when x members invest
# at closed total t, and the first x members of order[t] invest
# ---------------------------------------------------------------------------


def _psne_rule(rows: list, members: Sequence[int]):
    """PSNE per clique, from `stability_rows`: at closed total t, a member
    whose abstain row is None must invest and one whose invest row is None
    must not.  Bit t of value[x] is set when x investors leave every member
    stable at t: no member can do neither, and x lies between the number
    that must invest and that plus the free ones.  order[t] lists the
    members that must invest, then the free ones, each by ascending index,
    or is None when some member can do neither."""
    value = [0] * (len(members) + 1)
    order: list = []
    bit = 1
    for t in range(len(rows[members[0]][0])):
        must, free = [], []
        for v in members:
            abstain, invest = rows[v]
            if abstain[t] is None:
                if invest[t] is None:
                    order.append(None)
                    break
                must.append(v)
            elif invest[t] is not None:
                free.append(v)
        else:
            for x in range(len(must), len(must) + len(free) + 1):
                value[x] |= bit
            order.append(must + free)
        bit <<= 1
    return value, order


def _usw_rule(game: Game, members: Sequence[int]):
    """USW per clique: the x cheapest members by (cost, index) invest, and
    value[x][t] is the clique's payoff sum at closed total t."""
    ext, cost = game.scaled_ext, game.scaled_cost
    cheap = sorted(members, key=lambda v: (cost[v], v))
    gsum = [sum(col) for col in zip(*(ext[v] for v in members))]
    value = [gsum]
    paid = 0
    for v in cheap:
        paid += cost[v]
        value.append([g - paid for g in gsum])
    return value, [cheap] * len(gsum)


def _esw_rule(game: Game, members: Sequence[int]):
    """ESW per clique: at total t, the x members with the largest
    g_v(t) - c(v) invest (smaller index first on ties), and value[x][t] is
    the clique's minimum payoff.  Trading an investor for an abstainer with
    a larger g - c never lowers that minimum, so no other choice of x
    investors does better."""
    ext, cost = game.scaled_ext, game.scaled_cost
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


# ---------------------------------------------------------------------------
# Vector types: one entry per z in a table row, per x in a best vector
# ---------------------------------------------------------------------------


class _Vectors(NamedTuple):
    combine: Callable  # two entries -> one
    identity: object  # of combine
    start: object  # the vector [identity]
    merge: Callable  # (acc, best) -> out[s] = max over a + b = s of combine(acc[a], best[b])
    rows: Callable  # (vx, x, merged, ys) -> per y, combine(vx[x + y + z], merged[z]) over z
    bests: Callable  # (table, ys) -> per y, over x, the max over z of table[x][y]
    top: Callable  # vector -> its max
    find: Callable  # (vector, entry) -> the first index holding that entry
    items: Callable  # vector -> (index, entry) for the entries a split may use, ascending
    at: Callable  # (vector, index) -> entry, None at a negative index or past the end
    count: Callable  # table row -> its number of entries


def _lists(combine: Callable, identity) -> _Vectors:
    """Welfare vectors: a list holds every entry, each one realized."""

    def merge(acc: list, best: list) -> list:
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

    def rows(vx: list, x: int, merged: list, ys: range) -> list:
        width = len(merged)
        return [list(map(combine, vx[x + y : x + y + width], merged)) for y in ys]

    return _Vectors(
        combine=combine, identity=identity, start=[identity], merge=merge, rows=rows,
        bests=lambda table, ys: [[max(by_y[y]) for by_y in table] for y in ys],
        top=max, find=list.index, items=enumerate,
        at=lambda vector, i: vector[i] if 0 <= i < len(vector) else None,
        count=len,
    )


def _or_shifts(acc: int, best: int) -> int:
    out = 0
    while best:
        if best & 1:
            out |= acc
        acc <<= 1
        best >>= 1
    return out


def _bit_rows(vx: int, x: int, merged: int, ys: range) -> list:
    vx >>= x
    return [merged & vx >> y for y in ys]


def _bit_bests(table: list, ys: range) -> list:
    bests = [0] * len(ys)
    bit = 1  # 1 << x
    for by_y in table:
        for y in ys:
            if by_y[y]:
                bests[y] |= bit
        bit <<= 1
    return bests


# Feasibility vectors: bit i is entry i, 0 or 1, so a vector's max is whether
# any bit is set, "max over splits" is an OR over shifts, and combine is AND.
# An empty bitset is a vector no stable profile realizes; `find` is only
# asked for entry 1.
_BITSETS = _Vectors(
    combine=operator.and_, identity=1, start=1,
    merge=_or_shifts, rows=_bit_rows, bests=_bit_bests,
    top=bool,
    find=lambda bits, _: (bits & -bits).bit_length() - 1,
    items=lambda bits: [(i, 1) for i in range(bits.bit_length()) if bits >> i & 1],
    at=lambda bits, i: bits >> i & 1 if i >= 0 else None,
    count=int.bit_count,
)
_SUMS = _lists(operator.add, 0)
_MINIMA = _lists(lesser, math.inf)


def _report(
    started: float, status: SolveStatus = SolveStatus.SOLVED, **fields
) -> SolveReport:
    """A ccforest report, timed from `started`."""
    elapsed = time.perf_counter() - started
    return SolveReport(status, "ccforest", elapsed=elapsed, **fields)


def _solve(
    game: Game,
    vectors: _Vectors,
    clique_rule: Callable,
    tabulate: Callable = lambda game: game,
) -> SolveReport:
    """One bottom-up sweep, then one walk down from each root's best entry.

    `clique_rule(tabulate(game), members)` gives a clique's `value` and
    `order` (see the rules above).  `tables[k][x][y]` is the vector over z
    that folds `combine` over K's subtree, and `bests[k][y]` the vector over
    x of its maxima.  A root whose best vector is an empty bitset has no
    equilibrium; a welfare vector is never empty.
    """
    started = time.perf_counter()
    cc = build_cc_graph(game.graph)
    try:
        rf = rooted_forest(cc)
    except ValueError as exc:
        return _report(started, SolveStatus.NOT_APPLICABLE, detail=str(exc))
    cliques = cc.cliques
    per_player = tabulate(game)
    combine, identity, start, merge, rows, bests_of, top, find, items, at, count = vectors
    orders: list = [None] * len(cliques)
    tables: list = [None] * len(cliques)
    bests: list = [None] * len(cliques)
    for k in rf.postorder:
        kids = rf.children[k]
        parent = rf.parent[k]
        ys = range(len(cliques[parent]) + 1 if parent is not None else 1)
        value, orders[k] = clique_rule(per_player, cliques[k])
        table = []
        for x, vx in enumerate(value):
            merged = start
            for j in kids:
                merged = merge(merged, bests[j][x])
                if not merged:  # an empty bitset stays empty
                    break
            table.append(rows(vx, x, merged, ys))
        tables[k] = table
        bests[k] = bests_of(table, ys)
    entries = sum(map(count, chain.from_iterable(chain.from_iterable(tables))))

    total = identity
    stack = []
    for root in rf.roots:
        if not bests[root][0]:
            detail = f"no equilibrium in the component containing player {cliques[root][0]}"
            return _report(started, SolveStatus.NO_PSNE, table_entries=entries, detail=detail)
        val = top(bests[root][0])
        x = find(bests[root][0], val)  # the smallest x, then the smallest z
        stack.append((root, x, 0, find(tables[root][x][0], val)))
        total = combine(total, val)

    invest: set[int] = set()
    while stack:
        k, x, y, z = stack.pop()
        invest.update(orders[k][x + y + z][:x])
        kids = rf.children[k]
        prefix = [start]
        for j in kids:
            prefix.append(merge(prefix[-1], bests[j][x]))
        remaining, target = z, at(prefix[-1], z)
        for idx in range(len(kids) - 1, -1, -1):  # last child first
            j = kids[idx]
            lefts = prefix[idx]
            for xj, right in items(bests[j][x]):  # smallest xj first
                left = at(lefts, remaining - xj)
                if left is not None and combine(left, right) == target:
                    stack.append((j, xj, x, find(tables[j][xj][x], right)))
                    remaining, target = remaining - xj, left
                    break
            else:
                raise AssertionError("inconsistent ccforest tables")

    return _report(
        started,
        profile=Profile(frozenset(invest)),
        value=None if vectors is _BITSETS else Fraction(total, game.scale),
        table_entries=entries,
    )


def solve_psne_ccforest(game: Game) -> SolveReport:
    """Find a pure Nash equilibrium, or prove none exists."""
    return _solve(game, _BITSETS, _psne_rule, stability_rows)


def solve_usw_ccforest(game: Game) -> SolveReport:
    """Maximize the sum of payoffs (the organizer dictates every action)."""
    return _solve(game, _SUMS, _usw_rule)


def solve_esw_ccforest(game: Game) -> SolveReport:
    """Maximize the minimum payoff, in one (max, min) sweep.

    A childless clique merges from infinity, the identity for min; every
    player belongs to some clique, so each root's value is a payoff, never
    infinity.
    """
    if game.player_count == 0:
        raise ValueError("egalitarian welfare is undefined for a zero-player game")
    return _solve(game, _MINIMA, _esw_rule)
