"""Dynamic programming over nice tree decompositions.

A DP state at a decomposition node is (U, f): U is the set of bag vertices
currently investing, and f counts, for each bag vertex, its already-forgotten
investing neighbors.  A vertex is *settled* when it is forgotten — at that
moment every neighbor is either still in the bag or already forgotten, so its
final closed-neighborhood investor count is known and the objective can act
on it: PSNE keeps only stable settlements (`game.stability_rows`, the table
ccforest's PSNE reads too), USW adds payoffs (max, +), and ESW takes their
minimum (max, min), all in one sweep.

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
    heuristic_decomposition,
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


def _field_width(graph: Graph) -> int:
    """Bits per bag position: an invest bit, then a count up to the
    largest degree."""
    degree = max((graph.degree(v) for v in range(graph.player_count)), default=0)
    return degree.bit_length() + 1


def _sweep(
    game: Game,
    ntd: NiceTreeDecomposition,
    contribution: list,
    combine: Callable,
    identity,
):
    """One bottom-up pass; returns (tables, witnesses).

    A state's objective folds `combine` over its settled players, from
    `identity` at the leaves: `contribution[v][invests][k]` is what v adds
    when it settles with k closed-neighborhood investors, or None to drop
    the state.  tables[i] keeps the best objective per packed state key,
    and witnesses[i] the child keys it came from, one per child.  Child
    tables are read in insertion order, which the decomposition fixes, so
    ties break the same way on every run.
    """
    graph = game.graph
    width = _field_width(graph)
    field = (1 << width) - 1
    bags = ntd.bags
    tables: list[dict] = [None] * len(bags)
    witnesses: list[dict] = [None] * len(bags)
    for i in ntd.postorder:
        kind = ntd.kinds[i]
        table: dict = {}
        witness: dict = {}
        if kind == "leaf":
            table[0] = identity
            witness[0] = ()
        elif kind == "introduce":
            shift = bags[i].index(ntd.distinguished[i]) * width
            below = (1 << shift) - 1
            invest = 1 << shift
            for key, val in tables[ntd.children[i][0]].items():
                # the newcomer has no forgotten neighbors yet: its edges are
                # covered by bags at or above this node
                abstain_key = (key & below) | ((key >> shift) << (shift + width))
                invest_key = abstain_key | invest
                table[abstain_key] = val
                witness[abstain_key] = (key,)
                table[invest_key] = val
                witness[invest_key] = (key,)
        elif kind == "forget":
            child = ntd.children[i][0]
            v = ntd.distinguished[i]
            v_nbrs = graph.neighbors(v)
            shift = bags[child].index(v) * width
            below = (1 << shift) - 1
            above = shift + width
            # invest bits of v's bag neighbors in the child's layout, and one
            # count for each of them in this node's layout
            nbr_invest = sum(1 << (p * width) for p, x in enumerate(bags[child]) if x in v_nbrs)
            bump = sum(2 << (p * width) for p, x in enumerate(bags[i]) if x in v_nbrs)
            rows = contribution[v]
            for key, val in tables[child].items():
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
                    witness[new_key] = (key,)
        else:  # join
            left, right = ntd.children[i]
            investing = sum(1 << (p * width) for p in range(len(bags[i])))
            grouped: dict[int, list] = {}
            for key, val in tables[right].items():
                grouped.setdefault(key & investing, []).append((key, key & ~investing, val))
            for key_l, val_l in tables[left].items():
                for key_r, counts_r, val_r in grouped.get(key_l & investing, ()):
                    # both sides carry the same invest bits; the counts add
                    # field by field without carries
                    new_key = key_l + counts_r
                    new_val = combine(val_l, val_r)
                    old = table.get(new_key)
                    if old is None or new_val > old:
                        table[new_key] = new_val
                        witness[new_key] = (key_l, key_r)
        tables[i] = table
        witnesses[i] = witness
    return tables, witnesses


def _replay(game: Game, ntd: NiceTreeDecomposition, witnesses: list[dict]) -> Profile:
    """Walk the chosen root state back down, reading at each forget the
    invest bit of the forgotten vertex in the child's key."""
    width = _field_width(game.graph)
    invest: set[int] = set()
    stack: list[tuple[int, int]] = [(ntd.root, 0)]
    while stack:
        i, key = stack.pop()
        child_keys = witnesses[i][key]
        if ntd.kinds[i] == "forget":
            v = ntd.distinguished[i]
            child = ntd.children[i][0]
            if child_keys[0] >> (ntd.bags[child].index(v) * width) & 1:
                invest.add(v)
        stack.extend(zip(ntd.children[i], child_keys))
    return Profile(frozenset(invest))


def _report(
    started: float,
    game: Game,
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
        profile=None if witnesses is None else _replay(game, ntd, witnesses),
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
    rows = stability_rows(game)
    tables, witnesses = _sweep(game, ntd, rows, operator.and_, True)
    found = 0 in tables[ntd.root]
    return _report(started, game, ntd, tables, witnesses if found else None)


def _best_welfare(game: Game, decomposition, combine: Callable, identity) -> SolveReport:
    """One sweep over the scaled payoffs; the root holds the optimum."""
    started = time.perf_counter()
    ntd = prepare_decomposition(game, decomposition)
    payoffs = [(g, tuple(x - c for x in g)) for g, c in zip(game.scaled_ext, game.scaled_cost)]
    tables, witnesses = _sweep(game, ntd, payoffs, combine, identity)
    value = Fraction(tables[ntd.root][0], game.scale)
    return _report(started, game, ntd, tables, witnesses, value)


def solve_usw_treewidth(
    game: Game,
    decomposition: "TreeDecomposition | NiceTreeDecomposition | None" = None,
) -> SolveReport:
    """Maximize the sum of payoffs (the organizer dictates every action)."""
    return _best_welfare(game, decomposition, operator.add, 0)


def solve_esw_treewidth(
    game: Game,
    decomposition: "TreeDecomposition | NiceTreeDecomposition | None" = None,
) -> SolveReport:
    """Maximize the minimum payoff, in one (max, min) sweep.

    A leaf holds infinity, the identity for min; forgets and joins take the
    min, each key keeps the max, and both are monotone, so the root holds
    the exact max-min.  Every player settles below the root, so the value
    is a payoff, never infinity.
    """
    if game.player_count == 0:
        raise ValueError("egalitarian welfare is undefined for a zero-player game")
    return _best_welfare(game, decomposition, lesser, math.inf)
