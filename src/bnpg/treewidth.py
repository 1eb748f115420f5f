"""Dynamic programming over nice tree decompositions.

A DP state at a decomposition node is (U, f): U is the set of bag vertices
currently investing, and f counts, for each bag vertex, its already-forgotten
investing neighbors.  A vertex is *settled* when it is forgotten — at that
moment every neighbor is either still in the bag or already forgotten, so its
final closed-neighborhood investor count is known and the objective can act
on it: PSNE keeps only stable settlements (`game.stability_rows`, the table
ccforest's PSNE reads too), USW adds payoffs (max, +), and ESW takes their
minimum (max, min).  One `_solve` answers all three questions: one sweep
that keeps only the tables, a root check, and one replay that recomputes
the witness from the tables on the way down.

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
from .game import Game, Graph, Profile, lesser, stability_rows
from .report import SolveReport, SolveStatus


def prepare_decomposition(
    game: Game,
    decomposition: "TreeDecomposition | NiceTreeDecomposition | None" = None,
) -> NiceTreeDecomposition:
    """Produce a validated nice decomposition for this game's graph.

    None builds the nice form straight from the min-fill elimination order,
    rooted at the last eliminated vertex (`elimination.nice_from_elimination`),
    with no validation or re-derivation.  On the benchmark's five sparse-tw
    `bounded_tw` games, USW then takes 57,562 table entries, against 86,994
    rooted at the first eliminated vertex, where `to_nice` roots min-fill's
    decomposition by default: see `to_nice` for why.  A plain decomposition
    is converted by `to_nice`, which validates it; a nice one is validated
    as-is.  Invalid input raises ValueError naming the first broken
    property.
    """
    if decomposition is None:
        # imported here, not at the top, so that `import bnpg.cli` does not load it
        from .elimination import elimination_order, nice_from_elimination

        return nice_from_elimination(*elimination_order(game.graph, "min_fill"))
    if isinstance(decomposition, NiceTreeDecomposition):
        problems = validate_nice(decomposition, game.graph)
        if problems:
            first = problems[0]
            raise ValueError(
                f"not a valid nice tree decomposition ({first.axiom}: {first.detail})"
            )
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
) -> list[dict]:
    """One bottom-up pass; returns the tables and nothing else.

    A state's objective folds `combine` over its settled players, from
    `identity` at the leaves: `contribution[v][invests][k]` is what v adds
    when it settles with k closed-neighborhood investors, or None to drop
    the state.  tables[i] keeps the best objective per packed state key.
    Child tables are read in insertion order, which the decomposition
    fixes, and a key keeps the first child state (forget) or pair (join,
    left then right) that reaches its best, so `_replay` can find that same
    witness again and ties break the same way on every run.
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
            for key, val in tables[ntd.children[i][0]].items():
                own = (key >> shift) & field
                invests = own & 1
                k = (own >> 1) + (key & nbr_invest).bit_count() + invests
                adds = rows[invests][k]
                if adds is None:
                    continue
                new_val = combine(val, adds)
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
            for key_l, val_l in tables[left].items():
                for counts_r, val_r in grouped.get(key_l & investing, ()):
                    # both sides carry the same invest bits; the counts add
                    # field by field without carries
                    new_key = key_l + counts_r
                    new_val = combine(val_l, val_r)
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
    - Forget: the first child key, in insertion order, that maps to the key
      and whose `combine` with its contribution equals the key's value.
    - Join: the first left key, in insertion order, whose one possible
      right partner (the key minus the left counts, with the key's invest
      bits) is in the right table and combines to the key's value.

    The sweep keeps the first child key or pair that reaches a key's best
    value, and a left key fixes its partner, so these scans find the same
    witness it kept.  Each node's table is scanned at most once.
    """
    graph = game.graph
    width = _field_width(graph)
    field = (1 << width) - 1
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
            rows = contribution[ntd.distinguished[i]]
            for child_key, val in tables[child].items():
                own = (child_key >> shift) & field
                invests = own & 1
                if (child_key & below) | ((child_key >> above) << shift) != key - invests * bump:
                    continue
                adds = rows[invests][(own >> 1) + (child_key & nbr_invest).bit_count() + invests]
                if adds is not None and combine(val, adds) == target:
                    break
            if invests:
                invest.add(ntd.distinguished[i])
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


def _payoff_rows(game: Game) -> list:
    """Per player, what it adds when it settles: g_v(k) abstaining, and
    g_v(k) - c_v investing, both scaled."""
    return [(g, tuple(x - c for x in g)) for g, c in zip(game.scaled_ext, game.scaled_cost)]


def _solve(
    game: Game,
    decomposition: "TreeDecomposition | NiceTreeDecomposition | None",
    width_cap: int | None,
    tabulate: Callable,
    combine: Callable,
    identity,
) -> SolveReport:
    """One sweep over `tabulate(game)`, then one replay from the root's
    empty-bag state.  A root without that state has no equilibrium; a
    welfare root always has it, and holds the optimum there.  With no
    decomposition given, a min-fill width past `width_cap` answers
    NOT_APPLICABLE before any nice node is built."""
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
    tables = _sweep(game, ntd, contribution, combine, identity)
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
    return _solve(game, decomposition, width_cap, stability_rows, operator.and_, True)


def solve_usw_treewidth(
    game: Game,
    decomposition: "TreeDecomposition | NiceTreeDecomposition | None" = None,
    width_cap: int | None = None,
) -> SolveReport:
    """Maximize the sum of payoffs (the organizer dictates every action)."""
    return _solve(game, decomposition, width_cap, _payoff_rows, operator.add, 0)


def solve_esw_treewidth(
    game: Game,
    decomposition: "TreeDecomposition | NiceTreeDecomposition | None" = None,
    width_cap: int | None = None,
) -> SolveReport:
    """Maximize the minimum payoff, in one (max, min) sweep.

    A leaf holds infinity, the identity for min; forgets and joins take the
    min, each key keeps the max, and both are monotone, so the root holds
    the exact max-min.  Every player settles below the root, so the value
    is a payoff, never infinity.
    """
    if game.player_count == 0:
        raise ValueError("egalitarian welfare is undefined for a zero-player game")
    return _solve(game, decomposition, width_cap, _payoff_rows, lesser, math.inf)
