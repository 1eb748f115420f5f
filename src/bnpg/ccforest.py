"""Dynamic programs over the critical clique forest.

Closed twins share a closed neighborhood, so every member of a critical
clique K sees the same investor total: (investors in K) + (investors in K's
parent clique) + (investors across K's children).  Tables are indexed by that
triple (x, y, z); children are merged with reachable-sum bitsets (feasibility)
or max-plus arrays (utilitarian welfare).  Applies only when the critical
clique graph is a forest.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .critical_clique import (
    CriticalCliqueGraph,
    RootedForest,
    build_cc_graph,
    rooted_forest,
)
from .game import Game, Profile, ScaledGame, max_feasible_threshold, scale_game
from .report import SolveReport, SolveStatus

Bounds = "tuple[int, int] | None"  # admissible investor counts inside the clique


class MemberClassification(NamedTuple):
    """Split of a clique's members at a fixed closed-neighborhood total.

    `must_not_invest`: investing would be unstable at this total;
    `must_invest`: abstaining would be unstable; `free`: either action is
    stable.  `out_of_range` marks totals no profile can realize.  A member in
    both forced sets is a contradiction: no equilibrium realizes this total.
    """

    must_not_invest: frozenset[int]
    must_invest: frozenset[int]
    free: frozenset[int]
    out_of_range: bool = False

    @property
    def contradiction(self) -> bool:
        return bool(self.must_not_invest & self.must_invest)


def classify_clique_members(
    scaled: ScaledGame, members: Sequence[int], total: int
) -> MemberClassification:
    """Classify clique members by deviation stability at a given total.

    `scaled` is `scale_game` of the game.  `total` counts investors in the
    shared closed neighborhood.  total = 0 leaves no room for an investing
    member and total = closed degree forces every member to invest, so those
    boundaries pin the respective side instead of indexing outside the
    externality table.
    """
    ms = tuple(sorted(members))
    if not ms:
        raise ValueError("empty clique")
    top = len(scaled.ext[ms[0]]) - 1
    if total < 0 or total > top:
        all_ms = frozenset(ms)
        return MemberClassification(all_ms, all_ms, frozenset(), out_of_range=True)
    must_not: set[int] = set()
    must: set[int] = set()
    for v in ms:
        if total == 0 or not scaled.stable(v, True, total):
            must_not.add(v)
        if total == top or not scaled.stable(v, False, total):
            must.add(v)
    free = frozenset(ms) - must_not - must
    return MemberClassification(frozenset(must_not), frozenset(must), free)


# ---------------------------------------------------------------------------
# Feasibility DP (equilibria, and egalitarian threshold checks)
# ---------------------------------------------------------------------------


def _psne_bounds(scaled: ScaledGame, members: tuple[int, ...]) -> list[Bounds]:
    """Admissible x-interval per total, or None when no selection works."""
    top = len(scaled.ext[members[0]]) - 1
    out: list[Bounds] = []
    for total in range(top + 1):
        cls = classify_clique_members(scaled, members, total)
        if cls.contradiction:
            out.append(None)
        else:
            lo = len(cls.must_invest)
            out.append((lo, lo + len(cls.free)))
    return out


def _esw_bounds(scaled: ScaledGame, members: tuple[int, ...], q: int) -> list[Bounds]:
    """Admissible x-interval per total for "every member's utility >= q"
    (q and utilities scaled)."""
    ext, cost = scaled.ext, scaled.cost
    top = len(ext[members[0]]) - 1
    out: list[Bounds] = []
    for total in range(top + 1):
        if any(ext[v][total] < q for v in members):
            out.append(None)  # someone is below q whatever it does
            continue
        barred = sum(1 for v in members if ext[v][total] - cost[v] < q)
        out.append((0, len(members) - barred))
    return out


def _feasible_tables(
    game: Game,
    cc: CriticalCliqueGraph,
    rf: RootedForest,
    bounds_of: Callable[[int], list[Bounds]],
) -> list[dict[tuple[int, int], int]]:
    """Per clique: (x, y) -> bitset of achievable child totals z.

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
        bounds = bounds_of(k)
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
                        b = bounds[x + y + z]
                        if b is not None and b[0] <= x <= b[1]:
                            zbits |= 1 << z
                if zbits:
                    table[(x, y)] = zbits
    return tables


def _root_choice(
    tables: list[dict[tuple[int, int], int]], cliques, root: int
) -> tuple[int, int] | None:
    """Smallest feasible (x, z) with y = 0 at a root clique, or None."""
    for x in range(len(cliques[root]) + 1):
        zbits = tables[root].get((x, 0), 0)
        if zbits:
            return x, (zbits & -zbits).bit_length() - 1
    return None


def _extract_feasible(
    cc: CriticalCliqueGraph,
    rf: RootedForest,
    tables: list[dict[tuple[int, int], int]],
    choices: dict[int, tuple[int, int]],
    investors_for: Callable[[int, int, int], list[int]],
) -> Profile:
    """Walk chosen table entries top-down, assigning investors per clique."""
    invest: set[int] = set()
    stack = [(root, choices[root][0], 0, choices[root][1]) for root in rf.roots]
    while stack:
        k, x, y, z = stack.pop()
        invest.update(investors_for(k, x, x + y + z))
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
    scaled = scale_game(game)
    bound_cache: dict[int, list[Bounds]] = {}

    def bounds_of(k: int) -> list[Bounds]:
        if k not in bound_cache:
            bound_cache[k] = _psne_bounds(scaled, cc.cliques[k])
        return bound_cache[k]

    tables = _feasible_tables(game, cc, rf, bounds_of)
    choices: dict[int, tuple[int, int]] = {}
    for root in rf.roots:
        choice = _root_choice(tables, cc.cliques, root)
        if choice is None:
            return _report(
                started,
                SolveStatus.NO_PSNE,
                table_entries=_table_entry_count(tables),
                detail=(
                    "no equilibrium in the component containing player "
                    f"{cc.cliques[root][0]}"
                ),
            )
        choices[root] = choice

    def investors_for(k: int, x: int, total: int) -> list[int]:
        cls = classify_clique_members(scaled, cc.cliques[k], total)
        chosen = sorted(cls.must_invest)
        chosen += sorted(cls.free)[: x - len(chosen)]
        return chosen

    invest = _extract_feasible(cc, rf, tables, choices, investors_for)
    return _report(started, profile=invest, table_entries=_table_entry_count(tables))


# ---------------------------------------------------------------------------
# Utilitarian welfare DP
# ---------------------------------------------------------------------------


def _usw_child_bests(
    tables, cliques, kids: tuple[int, ...], x: int
) -> list[list[int | None]]:
    """best[j][xj] = best welfare of child j's subtree contributing xj."""
    bests = []
    for j in kids:
        best: list[int | None] = []
        for xj in range(len(cliques[j]) + 1):
            row = tables[j].get((xj, x))
            best.append(
                None if row is None else max(v for v in row if v is not None)
            )
        bests.append(best)
    return bests


def _maxplus(acc: list[int | None], best: list[int | None]):
    out: list[int | None] = [None] * (len(acc) + len(best) - 1)
    for s, left in enumerate(acc):
        if left is None:
            continue
        for xj, right in enumerate(best):
            if right is None:
                continue
            candidate = left + right
            if out[s + xj] is None or candidate > out[s + xj]:
                out[s + xj] = candidate
    return out


def solve_usw_ccforest(game: Game) -> SolveReport:
    """Maximize the sum of payoffs (the organizer dictates every action)."""
    started = time.perf_counter()
    cc, rf, bail = _forest_or_report(game, started)
    if bail is not None:
        return bail
    cliques = cc.cliques
    scaled = scale_game(game)
    ext, cost = scaled.ext, scaled.cost
    # (x, y) -> list over z of scaled subtree welfare (None = not reachable)
    tables: list[dict[tuple[int, int], list[int | None]]] = [{} for _ in cliques]
    cheap: list[list[int]] = []  # members sorted by (cost, index), per clique
    for k, members in enumerate(cliques):
        cheap.append([v for _, v in sorted((cost[v], v) for v in members)])

    for k in rf.postorder:
        members = cliques[k]
        kids = rf.children[k]
        parent = rf.parent[k]
        ymax = len(cliques[parent]) if parent is not None else 0
        zmax = sum(len(cliques[j]) for j in kids)
        top = len(ext[members[0]]) - 1
        gsum = [sum(ext[v][t] for v in members) for t in range(top + 1)]
        cost_prefix = [0]
        for v in cheap[k]:
            cost_prefix.append(cost_prefix[-1] + cost[v])
        for x in range(len(members) + 1):
            merged: list[int | None] = [0]
            for best in _usw_child_bests(tables, cliques, kids, x):
                merged = _maxplus(merged, best)
            for y in range(ymax + 1):
                row: list[int | None] = [None] * (zmax + 1)
                for z in range(zmax + 1):
                    if merged[z] is not None:
                        row[z] = gsum[x + y + z] - cost_prefix[x] + merged[z]
                tables[k][(x, y)] = row

    total_value = 0
    choices: dict[int, tuple[int, int]] = {}
    for root in rf.roots:
        best_val: int | None = None
        best_key = (0, 0)
        for x in range(len(cliques[root]) + 1):
            row = tables[root].get((x, 0))
            if row is None:
                continue
            for z, val in enumerate(row):
                if val is not None and (best_val is None or val > best_val):
                    best_val, best_key = val, (x, z)
        assert best_val is not None
        total_value += best_val
        choices[root] = best_key

    invest: set[int] = set()
    stack = [(root, choices[root][0], 0, choices[root][1]) for root in rf.roots]
    while stack:
        k, x, y, z = stack.pop()
        invest.update(cheap[k][:x])
        kids = rf.children[k]
        if not kids:
            continue
        bests = _usw_child_bests(tables, cliques, kids, x)
        prefix: list[list[int | None]] = [[0]]
        for best in bests:
            prefix.append(_maxplus(prefix[-1], best))
        remaining = z
        target = prefix[-1][z]
        for idx in range(len(kids) - 1, -1, -1):
            j = kids[idx]
            found = False
            for xj, right in enumerate(bests[idx]):
                if right is None or xj > remaining:
                    continue
                if remaining - xj >= len(prefix[idx]):
                    continue
                left = prefix[idx][remaining - xj]
                if left is not None and left + right == target:
                    row = tables[j][(xj, x)]
                    best_z = min(
                        zz for zz, vv in enumerate(row) if vv == right
                    )
                    stack.append((j, xj, x, best_z))
                    remaining -= xj
                    target = left
                    found = True
                    break
            if not found:
                raise AssertionError("inconsistent welfare tables")

    entries = sum(
        sum(1 for v in row if v is not None)
        for t in tables
        for row in t.values()
    )
    return _report(
        started,
        profile=Profile(frozenset(invest)),
        value=Fraction(total_value, scaled.scale),
        table_entries=entries,
    )


# ---------------------------------------------------------------------------
# Egalitarian welfare (threshold scan over the candidate payoff values)
# ---------------------------------------------------------------------------


def solve_esw_ccforest(game: Game) -> SolveReport:
    """Maximize the minimum payoff.

    Feasibility of "every payoff >= q" is monotone in q and the optimum is
    always one of the finitely many payoff values g_v(k) or g_v(k) - c(v),
    so a binary search over that candidate list with one feasibility DP per
    probe is exact.
    """
    started = time.perf_counter()
    if game.player_count == 0:
        raise ValueError("egalitarian welfare is undefined for a zero-player game")
    cc, rf, bail = _forest_or_report(game, started)
    if bail is not None:
        return bail
    scaled = scale_game(game)

    def probe(q: int):
        """(tables, root choices) when "every payoff >= q" is feasible."""
        tables = _feasible_tables(
            game, cc, rf, lambda k: _esw_bounds(scaled, cc.cliques[k], q)
        )
        choices = {}
        for root in rf.roots:
            choice = _root_choice(tables, cc.cliques, root)
            if choice is None:
                return None
            choices[root] = choice
        return tables, choices

    best_q, found = max_feasible_threshold(scaled.levels, probe)
    assert found is not None, "the smallest candidate is always feasible"
    tables, choices = found

    def investors_for(k: int, x: int, total: int) -> list[int]:
        members = cc.cliques[k]
        eligible = [
            v
            for v in members
            if scaled.ext[v][total] - scaled.cost[v] >= best_q
        ]
        return eligible[:x]

    invest = _extract_feasible(cc, rf, tables, choices, investors_for)
    return _report(
        started,
        profile=invest,
        value=Fraction(best_q, scaled.scale),
        table_entries=_table_entry_count(tables),
    )
