"""Dynamic programming over nice tree decompositions.

A DP state at a decomposition node is (U, f): U is the set of bag vertices
currently investing, and f counts, for each bag vertex, its already-forgotten
investing neighbors.  A vertex is *settled* when it is forgotten — at that
moment every neighbor is either still in the bag or already forgotten, so its
final closed-neighborhood investor count is known and the objective can act
on it: USW adds payoffs (max, +), ESW takes their minimum (max, min), and
PSNE is the 0/1 case of ESW, the `and` of the settled players' stability.
What a player adds when it settles is read from one shared table,
`game.payoff_rows` for welfare and `game.stability_rows` for PSNE, the
tables ccforest and the oracle read too.  One `_solve` answers all three
questions: one sweep that keeps only the tables, a root check, and one
replay that recomputes the witness from the tables on the way down.

A state is packed into one int.  The vertex at bag position p owns the
W-bit field starting at bit p*W, where W = max_degree.bit_length() + 1:
the field's low bit says whether the vertex invests, and the bits above it
hold its forgotten-investor count.  The state with an empty bag is 0.
Introduce opens a zero field with a shift, forget reads and closes one, and
a join adds the right key's count bits to the left key with one integer
add.  The two subtrees of a join settle disjoint vertex sets, so counts and
objectives never double, and a summed count stays at most the vertex's
degree: it fits in its W - 1 count bits and never carries into the next
field.

Every sweep is pruned against a floor, branch-and-bound inside the DP
(Morin & Marsten, Oper. Res. 24(4), 1976).  For welfare, `_incumbent` is
the welfare of a real profile, the better of two one-flip passes in
O(n + m), so the optimum is at least it.  Every node has a floor, and
every forget and every join drops a state whose value is strictly below
it, since no completion of that state reaches the floor's target:
- PSNE: the floor is True.  A state whose forgotten player settles
  unstable reads False and is dropped, so every kept state reads True, and
  a join's `and` of two of them is True: no join drops.
- ESW: the floor is the incumbent.  A running minimum only falls, and a
  join's min of two states that passed passes: no join drops.
- USW: the floor is the incumbent less the best payoff of every player not
  settled in the node's subtree, and forgets and joins both drop.
On an equilibrium, every state reads True; on an optimal profile, a state's
running minimum (ESW), or its value plus the best of the rest (USW), is at
least the optimum, which is at least the incumbent.  So that state
survives, the root holds the same answer, and `_replay` finds a witness in
the kept tables.
"""

from __future__ import annotations

import math
import operator
import time
from fractions import Fraction
from typing import Callable

from .decomposition import (
    NiceTreeDecomposition,
    TreeDecomposition,
    to_nice,
    validate_nice,
)
from .game import Game, Graph, Profile, lesser, payoff_rows, stability_rows
from .report import SolveReport, SolveStatus


def prepare_decomposition(
    game: Game, decomposition: "TreeDecomposition | NiceTreeDecomposition"
) -> NiceTreeDecomposition:
    """A validated nice decomposition from a given one, for this game's graph.

    A plain decomposition is converted by `to_nice`, which validates it; a
    nice one is validated as-is.  Invalid input raises ValueError naming
    the first broken property.  With none given, `_solve` builds the nice
    form from the min-fill order itself.
    """
    if isinstance(decomposition, NiceTreeDecomposition):
        problems = validate_nice(decomposition, game.graph)
        if problems:
            raise ValueError(f"not a valid nice tree decomposition ({': '.join(problems[0])})")
        return decomposition
    return to_nice(decomposition, game.graph)


def _field_width(graph: Graph) -> int:
    """Bits per bag position: an invest bit, then a count up to the
    largest degree."""
    degree = max((graph.degree(v) for v in range(graph.player_count)), default=0)
    return degree.bit_length() + 1


def _forget_layout(graph: Graph, ntd: NiceTreeDecomposition, i: int, width: int):
    """For forget node i: the forgotten vertex's field shift in the child's
    layout, the invest bits of its bag neighbors there, and one count for
    each of them in node i's layout."""
    v = ntd.distinguished[i]
    child_bag = ntd.bags[ntd.children[i][0]]
    v_nbrs = graph.neighbors(v)
    shift = child_bag.index(v) * width
    nbr_invest = sum(1 << (p * width) for p, x in enumerate(child_bag) if x in v_nbrs)
    bump = sum(2 << (p * width) for p, x in enumerate(ntd.bags[i]) if x in v_nbrs)
    return shift, nbr_invest, bump


def _sweep(
    game: Game,
    ntd: NiceTreeDecomposition,
    contribution: list,
    combine: Callable,
    identity,
    floors: list,
) -> list[dict]:
    """One bottom-up pass; returns the tables and nothing else.

    A state's objective folds `combine` over its settled players, from
    `identity` at the leaves: `contribution[v][invests][k]` is what v adds
    when it settles with k closed-neighborhood investors.  tables[i] keeps
    the best objective per packed state key.  Child tables are read in
    insertion order, which the decomposition fixes, and a key keeps the
    first child state (forget) or pair (join, left then right) that reaches
    its best, so `_replay` can find that same witness again and ties break
    the same way on every run.

    Every forget and every join drops a new value strictly below
    `floors[i]`: one rule for all three questions.  A PSNE or ESW join
    never drops, since the `and` of two kept Trues is True and the min of
    two values at or above the incumbent stays at or above it, so there the
    test costs one compare per pair and changes nothing.
    """
    graph = game.graph
    width = _field_width(graph)
    field = (1 << width) - 1
    bags = ntd.bags
    tables: list[dict] = [None] * len(bags)
    for i in ntd.postorder:
        kind = ntd.kinds[i]
        table: dict = {}
        if kind == "leaf":
            table[0] = identity
        elif kind == "introduce":
            shift = bags[i].index(ntd.distinguished[i]) * width
            below = (1 << shift) - 1
            invest = 1 << shift
            for key, val in tables[ntd.children[i][0]].items():
                # the newcomer has no forgotten neighbors yet: its edges are
                # covered by bags at or above this node
                abstain_key = (key & below) | ((key >> shift) << (shift + width))
                table[abstain_key] = val
                table[abstain_key | invest] = val
        elif kind == "forget":
            shift, nbr_invest, bump = _forget_layout(graph, ntd, i, width)
            below = (1 << shift) - 1
            above = shift + width
            rows = contribution[ntd.distinguished[i]]
            floor = floors[i]
            for key, val in tables[ntd.children[i][0]].items():
                own = (key >> shift) & field
                invests = own & 1
                k = (own >> 1) + (key & nbr_invest).bit_count() + invests
                new_val = combine(val, rows[invests][k])
                if new_val < floor:
                    continue
                new_key = (key & below) | ((key >> above) << shift)
                if invests:
                    new_key += bump
                old = table.get(new_key)
                if old is None or new_val > old:
                    table[new_key] = new_val
        else:  # join
            left, right = ntd.children[i]
            investing = sum(1 << (p * width) for p in range(len(bags[i])))
            grouped: dict[int, list] = {}
            for key, val in tables[right].items():
                grouped.setdefault(key & investing, []).append((key & ~investing, val))
            floor = floors[i]
            for key_l, val_l in tables[left].items():
                for counts_r, val_r in grouped.get(key_l & investing, ()):
                    new_val = combine(val_l, val_r)
                    if new_val < floor:
                        continue
                    # both sides carry the same invest bits; the counts add
                    # field by field without carries
                    new_key = key_l + counts_r
                    old = table.get(new_key)
                    if old is None or new_val > old:
                        table[new_key] = new_val
        tables[i] = table
    return tables


def _replay(
    game: Game,
    ntd: NiceTreeDecomposition,
    tables: list[dict],
    contribution: list,
    combine: Callable,
) -> Profile:
    """Walk the root's empty-bag state back down, recomputing at each node
    the child keys `_sweep` kept, and read at each forget the invest bit of
    the forgotten vertex in the child's key.

    - Introduce: the child key is the key without the newcomer's field.
    - Forget: every child key that can map to the key is built, not
      searched for: the key less the bump of an investing v, with v's field
      put back at its position for each invest bit and each count up to v's
      degree.  Of those in the child table whose `combine` with their
      contribution equals the key's value, the first in insertion order; a
      scan of the table orders them only when there are several.
    - Join: the first left key, in insertion order, whose one possible
      right partner (the key minus the left counts, with the key's invest
      bits) is in the right table and combines to the key's value.

    The sweep keeps the first child key or pair that reaches a key's best
    value, and a left key fixes its partner, so these find the same witness
    it kept.  A forget costs 2(deg + 1) lookups unless its child keys tie,
    and each node's table is scanned at most once.
    """
    graph = game.graph
    width = _field_width(graph)
    bags = ntd.bags
    invest: set[int] = set()
    stack: list[tuple[int, int]] = [(ntd.root, 0)]
    while stack:
        i, key = stack.pop()
        target = tables[i][key]
        kind = ntd.kinds[i]
        if kind == "introduce":
            shift = bags[i].index(ntd.distinguished[i]) * width
            below = (1 << shift) - 1
            stack.append((ntd.children[i][0], (key & below) | ((key >> (shift + width)) << shift)))
        elif kind == "forget":
            child = ntd.children[i][0]
            shift, nbr_invest, bump = _forget_layout(graph, ntd, i, width)
            below = (1 << shift) - 1
            above = shift + width
            v = ntd.distinguished[i]
            rows = contribution[v]
            child_table = tables[child]
            matches = []
            for invests in (0, 1):
                rest = key - invests * bump
                if rest < 0:
                    continue
                # v's field goes back in at its position, with every count
                # it can hold
                outer = (rest & below) | ((rest >> shift) << above)
                for count in range(graph.degree(v) + 1):
                    child_key = outer | (((count << 1) | invests) << shift)
                    val = child_table.get(child_key)
                    if val is None:
                        continue
                    adds = rows[invests][count + (child_key & nbr_invest).bit_count() + invests]
                    if combine(val, adds) == target:
                        matches.append(child_key)
            child_key = matches[0] if len(matches) == 1 else next(k for k in child_table if k in matches)
            if child_key & (1 << shift):
                invest.add(v)
            stack.append((child, child_key))
        elif kind == "join":
            left, right = ntd.children[i]
            investing = sum(1 << (p * width) for p in range(len(bags[i])))
            bits = key & investing
            right_table = tables[right]
            for key_l, val_l in tables[left].items():
                counts_r = key - key_l
                # a count of key_l above key's borrows from the next field
                # up, setting its invest bit, or makes the difference negative
                if key_l & investing != bits or counts_r < 0 or counts_r & investing:
                    continue
                val_r = right_table.get(counts_r | bits)
                if val_r is not None and combine(val_l, val_r) == target:
                    break
            stack.append((left, key_l))
            stack.append((right, counts_r | bits))
    return Profile(frozenset(invest))


def _incumbent(game: Game, rows: list, egalitarian: bool) -> int:
    """A welfare that one profile reaches: the better of two one-flip
    passes, from all-abstain and from all-invest.

    A pass visits the players once, in order, and flips v when that helps:
    USW when the payoffs of N[v] gain in sum, ESW when their minimum rises.
    A flip changes no payoff outside N[v], so the welfare never falls, and
    an ESW pass ends at or above its starting minimum.  Closed-neighbour
    counts and payoffs are kept up to date, so a pass costs O(n + m).
    """
    graph = game.graph
    n = graph.player_count
    nbrs = [graph.neighbors(v) for v in range(n)]
    best = None
    for start in (0, 1):
        flip = 1 - start
        step = flip - start  # the count change a flip makes in N[v]
        invests = [start] * n
        counts = [start * (len(a) + 1) for a in nbrs]
        pay = [r[start][k] for r, k in zip(rows, counts)]
        for v in range(n):
            new_own = rows[v][flip][counts[v] + step]
            if egalitarian:
                old = pay[v]
                new = new_own
                for u in nbrs[v]:
                    p = pay[u]
                    if p < old:
                        old = p
                    p = rows[u][invests[u]][counts[u] + step]
                    if p < new:
                        new = p
                better = new > old
            else:
                gain = new_own - pay[v]
                for u in nbrs[v]:
                    gain += rows[u][invests[u]][counts[u] + step] - pay[u]
                better = gain > 0
            if better:
                invests[v] = flip
                counts[v] += step
                pay[v] = new_own
                for u in nbrs[v]:
                    counts[u] += step
                    pay[u] = rows[u][invests[u]][counts[u]]
        value = min(pay) if egalitarian else sum(pay)
        if best is None or value > best:
            best = value
    return best


def _usw_floors(game: Game, ntd: NiceTreeDecomposition, rows: list) -> list:
    """Per node, the value below which a USW state cannot reach the
    incumbent: even if every player not yet settled in its subtree got its
    best payoff, the sum would fall short.  A node's subtree settles its
    children's players, and a forget's vertex too."""
    # the largest payoff v can realize: abstaining with k <= deg investors,
    # or investing with k >= 1
    best = [max(max(a[:-1]), max(b[1:])) for a, b in rows]
    need = _incumbent(game, rows, False) - sum(best)
    kinds, children, distinguished = ntd.kinds, ntd.children, ntd.distinguished
    settled = [0] * len(kinds)
    for i in ntd.postorder:
        kind = kinds[i]
        if kind == "forget":
            settled[i] = settled[children[i][0]] + best[distinguished[i]]
        elif kind == "join":
            left, right = children[i]
            settled[i] = settled[left] + settled[right]
        elif kind == "introduce":
            settled[i] = settled[children[i][0]]
    return [need + total for total in settled]


def _solve(
    game: Game,
    decomposition: "TreeDecomposition | NiceTreeDecomposition | None",
    width_cap: int | None,
    tabulate: Callable,
    combine: Callable,
    identity,
    bound: Callable,
) -> SolveReport:
    """One sweep over `tabulate(game)`, pruned below the floors that
    `bound` builds, then one replay from the root's empty-bag state.  A
    root without that state has no equilibrium; a welfare root always has
    it, and holds the optimum there.  With no decomposition given, this is
    the one place that builds the nice form from the min-fill order: a
    width past `width_cap` answers NOT_APPLICABLE before any nice node is
    built."""
    started = time.perf_counter()
    if decomposition is None:
        from .elimination import elimination_order, nice_from_elimination

        order, bags = elimination_order(game.graph, "min_fill")
        width = max(map(len, bags), default=0) - 1
        if width_cap is not None and width > width_cap:
            return SolveReport(
                status=SolveStatus.NOT_APPLICABLE,
                algorithm="treewidth",
                elapsed=time.perf_counter() - started,
                detail=f"decomposition width {width} exceeds the cap {width_cap}",
            )
        ntd = nice_from_elimination(order, bags)
    else:
        ntd = prepare_decomposition(game, decomposition)
    contribution = tabulate(game)
    tables = _sweep(game, ntd, contribution, combine, identity, bound(game, ntd, contribution))
    root = tables[ntd.root]
    found = 0 in root
    return SolveReport(
        status=SolveStatus.SOLVED if found else SolveStatus.NO_PSNE,
        algorithm="treewidth",
        profile=_replay(game, ntd, tables, contribution, combine) if found else None,
        value=None if tabulate is stability_rows else Fraction(root[0], game.scale),
        elapsed=time.perf_counter() - started,
        table_entries=sum(map(len, tables)),
        detail=f"decomposition width {ntd.width()}",
    )


def solve_psne_treewidth(
    game: Game,
    decomposition: "TreeDecomposition | NiceTreeDecomposition | None" = None,
    width_cap: int | None = None,
) -> SolveReport:
    """Find a pure Nash equilibrium, or prove none exists."""
    return _solve(
        game, decomposition, width_cap, stability_rows, operator.and_, True,
        lambda game, ntd, rows: [True] * len(ntd.kinds),
    )


def solve_usw_treewidth(
    game: Game,
    decomposition: "TreeDecomposition | NiceTreeDecomposition | None" = None,
    width_cap: int | None = None,
) -> SolveReport:
    """Maximize the sum of payoffs (the organizer dictates every action)."""
    return _solve(game, decomposition, width_cap, payoff_rows, operator.add, 0, _usw_floors)


def solve_esw_treewidth(
    game: Game,
    decomposition: "TreeDecomposition | NiceTreeDecomposition | None" = None,
    width_cap: int | None = None,
) -> SolveReport:
    """Maximize the minimum payoff, in one (max, min) sweep.

    A leaf holds infinity, the identity for min; forgets and joins take the
    min, each key keeps the max, and both are monotone, so the root holds
    the exact max-min.  Every player settles below the root, so the value
    is a payoff, never infinity.  Every node's floor is the incumbent, the
    max-min of a one-flip pass: a state whose min is strictly below it is
    dropped, since the min only falls and the optimum is at least the
    incumbent.  Only forgets drop one.
    """
    if game.player_count == 0:
        raise ValueError("egalitarian welfare is undefined for a zero-player game")
    return _solve(
        game, decomposition, width_cap, payoff_rows, lesser, math.inf,
        lambda game, ntd, rows: [_incumbent(game, rows, True)] * len(ntd.kinds),
    )
