"""Dynamic programs over the critical clique forest.

Closed twins share a closed neighborhood, so every member of a critical
clique K sees the same investor total x + y + z: its investors in K, in K's
parent clique and across K's children.  One bottom-up sweep and one
top-down walk answer all three questions, written once over a vector type
in z whose children merge by "max over splits of combine": lists with
combine the sum (USW) or the minimum (ESW), and int bitsets of 0/1 entries
(PSNE), whose merge is an OR over shifts and combine an AND.  Each clique's
value comes from one shared per-player table: `game.stability_rows` for
PSNE, `game.payoff_rows` for USW and ESW.  Applies only when the critical
clique graph is a forest.

The sweep keeps each clique's `value`, its children's merged vector per x,
and best[y][x], the max over z of combine(value[x][x + y + z], merged[z]).
The (x, y) rows over z are not stored; `table_entries` counts what they
would hold, and the walk rebuilds the one row it follows at each clique,
taking its first z that reaches the target.  A leaf's best is
value[x][x + y]; a clique with one child takes that child's best vector as
merged, and the walk gives the child z investors.

Folding d children one at a time costs O(d^2) entry pairs, and the walk's
prefix folds cost it again.  When every child of a welfare clique has one
member, each child's best vector is a pair (a_j, b_j) (abstain, invest),
and both take a closed form in O(d log d):

- (max, +): out[z] is the sum of every a_j plus the z largest gains
  b_j - a_j.  The walk gives entry 1 to the first z children in the order
  (gain descending, index ascending).  That is the fold walk's choice: it
  takes the last child's entry 0 whenever the others' z largest gains
  already reach the target, so a tie goes to the smaller index.
- (max, min): out[z] = min(M, A_(z+1), B^(z)), where M is the least
  max(a_j, b_j), A_(z+1) the (z+1)-th smallest a (infinity at z = d) and
  B^(z) the z-th largest b (infinity at z = 0).  Each is an upper bound.
  At their minimum m, a child with a_j < m has b_j >= m, at most z
  children have a_j < m and at least z have b_j >= m, so z investors that
  include every such child reach m.  Sorting by gain is wrong here.  The
  walk keeps the fold walk's test (last child first, entry 0 before 1),
  reading each prefix's entry from the same order statistics.

Both give the fold's values, witnesses and table entries.  PSNE bitsets
and children of two or more members keep the fold and the prefix walk.
"""

from __future__ import annotations

import math
import operator
import time
from bisect import bisect_left
from fractions import Fraction
from functools import reduce
from itertools import accumulate, repeat
from typing import Callable, NamedTuple, Sequence

from .critical_clique import build_cc_graph, rooted_forest
from .game import Game, Profile, lesser, payoff_rows, stability_rows
from .report import SolveReport, SolveStatus


# ---------------------------------------------------------------------------
# Per-clique rules: value[x][t] is what clique K adds when x members invest
# at closed total t, and the first x members of order[t] invest
# ---------------------------------------------------------------------------


def _psne_rule(rows: list, members: Sequence[int]):
    """PSNE per clique, from `stability_rows`: at closed total t, a member
    whose abstain row is False must invest and one whose invest row is
    False must not.  Bit t of value[x] is set when x investors leave every
    member stable at t: no member can do neither, and x lies between the
    number that must invest and that plus the free ones.  order[t] lists
    the members that must invest, then the free ones, each by ascending
    index, or is None when some member can do neither.  One member's
    value is its two rows as bitsets, and its order [v] or None."""
    if len(members) == 1:
        value, order, one = [0, 0], [], list(members)
        for t, (abstain, invest) in enumerate(zip(*rows[members[0]])):
            value[0] |= abstain << t
            value[1] |= invest << t
            order.append(one if abstain or invest else None)
        return value, order
    value = [0] * (len(members) + 1)
    order: list = []
    bit = 1
    for t in range(len(rows[members[0]][0])):
        must, free = [], []
        for v in members:
            abstain, invest = rows[v]
            if not abstain[t]:
                if not invest[t]:
                    order.append(None)
                    break
                must.append(v)
            elif invest[t]:
                free.append(v)
        else:
            for x in range(len(must), len(must) + len(free) + 1):
                value[x] |= bit
            order.append(must + free)
        bit <<= 1
    return value, order


def _usw_rule(rows: list, members: Sequence[int]):
    """USW per clique, from `payoff_rows`: the x cheapest members by
    (cost, index) invest, a member's cost being the gap between its two
    rows, and value[x][t] is the clique's payoff sum at closed total t.  A
    one-member clique's value is its two rows, as for ESW."""
    if len(members) == 1:
        return rows[members[0]], [members] * len(rows[members[0]][0])
    gap = {v: rows[v][0][0] - rows[v][1][0] for v in members}
    cheap = sorted(members, key=lambda v: (gap[v], v))
    gsum = [sum(col) for col in zip(*(rows[v][0] for v in members))]
    value = [gsum]
    paid = 0
    for v in cheap:
        paid += gap[v]
        value.append([g - paid for g in gsum])
    return value, [cheap] * len(gsum)


def _esw_rule(rows: list, members: Sequence[int]):
    """ESW per clique, from `payoff_rows`: at total t, the x members with
    the largest invest entry invest (smaller index first on ties), and
    value[x][t] is the clique's minimum payoff.  Trading an investor for an
    abstainer with a larger invest entry never lowers that minimum, so no
    other choice of x investors does better.  A one-member clique's value
    is its two rows, the value and order the sort gives for one member."""
    if len(members) == 1:
        return rows[members[0]], [members] * len(rows[members[0]][0])
    size = len(members)
    top = len(rows[members[0]][0]) - 1
    value = [[0] * (top + 1) for _ in range(size + 1)]
    orders = []
    for t in range(top + 1):
        ranked = sorted(members, key=lambda v: (-rows[v][1][t], v))
        orders.append(ranked)
        # invested[x]: min over ranked[:x] of the invest entries;
        # abstained[x]: min over ranked[x:] of the abstain entries
        invested = [math.inf]
        for v in ranked:
            invested.append(min(invested[-1], rows[v][1][t]))
        abstained = math.inf
        for x in range(size, -1, -1):
            value[x][t] = min(invested[x], abstained)
            if x:
                abstained = min(abstained, rows[ranked[x - 1]][0][t])
    return value, orders


# ---------------------------------------------------------------------------
# Vector types: one entry per z in a merged vector, per x in a best vector
# ---------------------------------------------------------------------------


class _Vectors(NamedTuple):
    combine: Callable  # two entries -> one
    identity: object  # of combine
    start: object  # the vector [identity]
    merge: Callable  # (acc, best) -> out[s] = max over a + b = s of combine(acc[a], best[b])
    peaks: Callable  # (value, merged per x or None at a leaf, ys) -> (best[y][x], entry count)
    row: Callable  # (vx, s, merged) -> over z, combine(vx[s + z], merged[z])
    top: Callable  # vector -> its max
    find: Callable  # (vector, entry) -> the first index holding that entry
    items: Callable  # vector -> (index, entry) for the entries a split may use, ascending
    at: Callable  # (vector, index) -> entry, None at a negative index or past the end
    pair_merge: Callable | None  # two-entry bests -> their merge, in closed form
    pair_split: Callable | None  # (two-entry bests, z) -> the entry the walk takes from each


def _sum_pairs(pairs: list) -> list:
    """The (max, +) merge of the pairs [a_j, b_j]: all a, plus the z largest gains."""
    out = [sum(a for a, _ in pairs)]
    for gain in sorted((b - a for a, b in pairs), reverse=True):
        out.append(out[-1] + gain)
    return out


def _sum_split(pairs: list, z: int) -> list:
    """Entry 1 for the first z pairs by (gain descending, index ascending)."""
    ranked = sorted(range(len(pairs)), key=lambda j: (pairs[j][0] - pairs[j][1], j))
    taken = [0] * len(pairs)
    for j in ranked[:z]:
        taken[j] = 1
    return taken


def _min_pairs(pairs: list) -> list:
    """The (max, min) merge of the pairs [a_j, b_j]: out[z] is the least of
    min_j max(a_j, b_j), the (z+1)-th smallest a and the z-th largest b."""
    cap = min(map(max, pairs), default=math.inf)
    low = sorted(a for a, _ in pairs)
    low.append(math.inf)
    high = sorted((b for _, b in pairs), reverse=True)
    high.insert(0, math.inf)
    return [lesser(lesser(cap, a), b) for a, b in zip(low, high)]


def _min_split(pairs: list, z: int) -> list:
    """The fold walk's entries for (max, min) pairs: last pair first, entry 0
    before 1, each checked against the best of the pairs before it, read
    from order statistics that lose one pair per step."""
    low = sorted(a for a, _ in pairs)
    high = sorted(b for _, b in pairs)
    caps = [math.inf]  # caps[i]: min over the first i pairs of max(a, b)
    for pair in pairs:
        caps.append(lesser(caps[-1], max(pair)))

    def best(i: int, r: int):
        """Entry r of the merge of the first i pairs (`low`, `high` hold them)."""
        if not 0 <= r <= i:
            return None
        out = caps[i]
        if r < i:
            out = lesser(out, low[r])
        if r:
            out = lesser(out, high[i - r])
        return out

    taken = [0] * len(pairs)
    remaining, target = z, best(len(pairs), z)
    for i in range(len(pairs) - 1, -1, -1):
        pair = pairs[i]
        del low[bisect_left(low, pair[0])]
        del high[bisect_left(high, pair[1])]
        for xj, right in enumerate(pair):
            left = best(i, remaining - xj)
            if left is not None and lesser(left, right) == target:
                taken[i] = xj
                remaining, target = remaining - xj, left
                break
        else:
            raise AssertionError("inconsistent ccforest tables")
    return taken


def _lists(combine: Callable, identity, pair_merge: Callable, pair_split: Callable) -> _Vectors:
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

    def peaks(value: list, merged: list | None, ys: range) -> tuple:
        if merged is None:  # a leaf's row (x, y) is [vx[x + y]]
            return [[vx[x + y] for x, vx in enumerate(value)] for y in ys], len(value) * len(ys)
        pairs = list(enumerate(zip(value, merged)))
        best = [[max(map(combine, vx[x + y :], m)) for x, (vx, m) in pairs] for y in ys]
        return best, len(ys) * sum(map(len, merged))

    return _Vectors(
        combine=combine, identity=identity, start=[identity], merge=merge, peaks=peaks,
        row=lambda vx, s, merged: list(map(combine, vx[s:], merged)),
        top=max, find=list.index, items=enumerate,
        at=lambda vector, i: vector[i] if 0 <= i < len(vector) else None,
        pair_merge=pair_merge, pair_split=pair_split,
    )


def _or_shifts(acc: int, best: int) -> int:
    out = 0
    while best:
        if best & 1:
            out |= acc
        acc <<= 1
        best >>= 1
    return out


def _bit_peaks(value: list, merged: list | None, ys: range) -> tuple:
    bests, entries = [0] * len(ys), 0
    for x, vx in enumerate(value):
        m = merged[x] if merged else 1
        vx >>= x
        for y in ys:
            if row := m & vx >> y:
                bests[y] |= 1 << x
                entries += row.bit_count()
    return bests, entries


# Feasibility vectors: bit i is entry i, 0 or 1, so a vector's max is whether
# any bit is set, "max over splits" is an OR over shifts, and combine is AND.
# An empty bitset is a vector no stable profile realizes; `find` is only
# asked for entry 1.
_BITSETS = _Vectors(
    combine=operator.and_, identity=1, start=1,
    merge=_or_shifts, peaks=_bit_peaks,
    row=lambda vx, s, merged: merged & vx >> s, top=bool,
    find=lambda bits, _: (bits & -bits).bit_length() - 1,
    items=lambda bits: [(i, 1) for i in range(bits.bit_length()) if bits >> i & 1],
    at=lambda bits, i: bits >> i & 1 if i >= 0 else None,
    pair_merge=None, pair_split=None,
)
_SUMS = _lists(operator.add, 0, _sum_pairs, _sum_split)
_MINIMA = _lists(lesser, math.inf, _min_pairs, _min_split)


def _report(
    started: float, status: SolveStatus = SolveStatus.SOLVED, **fields
) -> SolveReport:
    """A ccforest report, timed from `started`."""
    elapsed = time.perf_counter() - started
    return SolveReport(status, "ccforest", elapsed=elapsed, **fields)


def _solve(game: Game, vectors: _Vectors, clique_rule: Callable, tabulate: Callable) -> SolveReport:
    """One bottom-up sweep, then one walk down from each root's best entry.

    `clique_rule(tabulate(game), members)` gives a clique's `value` and
    `order` (see the rules above), and `bests[k][y]` is K's best vector over
    x.  A root whose best vector is an empty bitset has no equilibrium; a
    welfare vector is never empty.
    """
    started = time.perf_counter()
    cc = build_cc_graph(game.graph)
    try:
        rf = rooted_forest(cc)
    except ValueError as exc:
        return _report(started, SolveStatus.NOT_APPLICABLE, detail=str(exc))
    cliques = cc.cliques
    per_player = tabulate(game)
    (combine, identity, start, merge, peaks, row, top, find, items, at,
     pair_merge, pair_split) = vectors

    kept: list = [None] * len(cliques)  # (value, order, merged per x, closed form?)
    bests: list = [None] * len(cliques)
    entries = 0
    for k in rf.postorder:
        kids = rf.children[k]
        parent = rf.parent[k]
        ys = range(len(cliques[parent]) + 1 if parent is not None else 1)
        value, order = clique_rule(per_player, cliques[k])
        paired = pair_merge is not None and len(kids) > 1 and all(len(cliques[j]) == 1 for j in kids)
        if len(kids) < 2:  # see the module docstring
            merged = bests[kids[0]] if kids else None
        else:
            fold = pair_merge if paired else lambda bs: reduce(merge, bs, start)
            merged = [fold([bests[j][x] for j in kids]) for x in range(len(value))]
        kept[k] = value, order, merged, paired
        bests[k], count = peaks(value, merged, ys)
        entries += count

    total = identity
    stack = []
    for root in rf.roots:
        if not bests[root][0]:
            detail = f"no equilibrium in the component containing player {cliques[root][0]}"
            return _report(started, SolveStatus.NO_PSNE, table_entries=entries, detail=detail)
        val = top(bests[root][0])
        stack.append((root, find(bests[root][0], val), 0))  # the smallest x
        total = combine(total, val)

    # (k, x, y) reaches bests[k][y][x] at the smallest z it can (0 at a leaf)
    invest: set[int] = set()
    while stack:
        k, x, y = stack.pop()
        kids = rf.children[k]
        value, order, merged, paired = kept[k]
        z = find(row(value[x], x + y, merged[x]), at(bests[k][y], x)) if kids else 0
        invest.update(order[x + y + z][:x])
        if len(kids) == 1:
            stack.append((kids[0], z, x))
        elif paired:
            stack += zip(kids, pair_split([bests[j][x] for j in kids], z), repeat(x))
        elif kids:
            prefix = list(accumulate([bests[j][x] for j in kids[:-1]], merge, initial=start))
            target = at(merged[x], z)
            for j in reversed(kids):  # last child first
                lefts = prefix.pop()
                for xj, right in items(bests[j][x]):  # smallest xj first
                    left = at(lefts, z - xj)
                    if left is not None and combine(left, right) == target:
                        stack.append((j, xj, x))
                        z, target = z - xj, left
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
    return _solve(game, _SUMS, _usw_rule, payoff_rows)


def solve_esw_ccforest(game: Game) -> SolveReport:
    """Maximize the minimum payoff, in one (max, min) sweep.

    A childless clique merges from infinity, the identity for min; every
    player belongs to some clique, so each root's value is a payoff, never
    infinity.
    """
    if game.player_count == 0:
        raise ValueError("egalitarian welfare is undefined for a zero-player game")
    return _solve(game, _MINIMA, _esw_rule, payoff_rows)
