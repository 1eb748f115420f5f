"""Reference brute-force solvers.

Deliberately obvious exhaustive enumeration over all 2^n profiles (bitmask
order, bit i = player i), used as the ground truth the polynomial solvers are
validated against.  No pruning.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator

from .game import Game, Graph, Profile, is_stable

_TIME_CHECK_STRIDE = 4096


class LimitExceeded(RuntimeError):
    """Raised when an instance is too large (or too slow) for enumeration."""


@dataclass(frozen=True)
class OracleLimits:
    max_players: int = 20
    time_budget: float | None = None  # seconds, checked coarsely


def _guard(n: int, limits: OracleLimits) -> int:
    """`n`, the player count, once it is within `limits.max_players`."""
    if n > limits.max_players:
        raise LimitExceeded(
            f"{n} players exceeds the enumeration limit of {limits.max_players}"
        )
    return n


def _closed_masks(graph: Graph) -> list[int]:
    masks = []
    for v in range(graph.player_count):
        m = 1 << v
        for w in graph.neighbors(v):
            m |= 1 << w
        masks.append(m)
    return masks


def _deadline(limits: OracleLimits) -> float | None:
    return None if limits.time_budget is None else time.monotonic() + limits.time_budget


def _check_deadline(mask: int, deadline: float | None) -> None:
    if deadline is not None and mask % _TIME_CHECK_STRIDE == 0:
        if time.monotonic() > deadline:
            raise LimitExceeded("oracle time budget exhausted")


def _to_profile(mask: int, n: int) -> Profile:
    return Profile(frozenset(v for v in range(n) if (mask >> v) & 1))


def _psne_profiles(game: Game, limits: OracleLimits) -> Iterator[Profile]:
    """Every pure Nash equilibrium, lazily, in ascending bitmask order."""
    n = _guard(game.player_count, limits)
    closed = _closed_masks(game.graph)
    # Stability depends only on (invests, closed investor count): tabulate it.
    ok_invest: list[list[bool]] = []
    ok_abstain: list[list[bool]] = []
    for v in range(n):
        top = game.graph.degree(v) + 1
        ok_invest.append([False] + [is_stable(game, v, True, k) for k in range(1, top + 1)])
        ok_abstain.append([is_stable(game, v, False, k) for k in range(top)] + [True])
    deadline = _deadline(limits)
    for mask in range(1 << n):
        _check_deadline(mask, deadline)
        for v in range(n):
            count = (mask & closed[v]).bit_count()
            if (mask >> v) & 1:
                if not ok_invest[v][count]:
                    break
            elif not ok_abstain[v][count]:
                break
        else:
            yield _to_profile(mask, n)


def enum_psne(game: Game, limits: OracleLimits = OracleLimits()) -> list[Profile]:
    """All pure Nash equilibria, in ascending bitmask order."""
    return list(_psne_profiles(game, limits))


def first_psne(
    game: Game, limits: OracleLimits = OracleLimits()
) -> Profile | None:
    """The smallest-bitmask pure Nash equilibrium, or None if there is none."""
    return next(_psne_profiles(game, limits), None)


def max_usw(
    game: Game, limits: OracleLimits = OracleLimits()
) -> tuple[Profile, Fraction]:
    """A profile maximizing utilitarian welfare (smallest bitmask on ties)."""
    n = _guard(game.player_count, limits)
    closed = _closed_masks(game.graph)
    players = list(zip(range(n), closed, game.scaled_ext, game.scaled_cost))
    deadline = _deadline(limits)
    best_mask, best = 0, None
    for mask in range(1 << n):
        _check_deadline(mask, deadline)
        total = 0
        for v, near, g, c in players:
            total += g[(mask & near).bit_count()]
            if (mask >> v) & 1:
                total -= c
        if best is None or total > best:
            best_mask, best = mask, total
    assert best is not None
    return _to_profile(best_mask, n), Fraction(best, game.scale)


def max_esw(
    game: Game, limits: OracleLimits = OracleLimits()
) -> tuple[Profile, Fraction]:
    """A profile maximizing the minimum payoff (smallest bitmask on ties)."""
    n = _guard(game.player_count, limits)
    if n == 0:
        raise ValueError("egalitarian welfare is undefined for a zero-player game")
    closed = _closed_masks(game.graph)
    players = list(zip(range(n), closed, game.scaled_ext, game.scaled_cost))
    deadline = _deadline(limits)
    best_mask, best = 0, None
    for mask in range(1 << n):
        _check_deadline(mask, deadline)
        low = None
        for v, near, g, c in players:
            p = g[(mask & near).bit_count()]
            if (mask >> v) & 1:
                p -= c
            if low is None or p < low:
                low = p
        if best is None or low > best:
            best_mask, best = mask, low
    assert best is not None
    return _to_profile(best_mask, n), Fraction(best, game.scale)


def find_3regular_induced(
    graph: Graph, limits: OracleLimits = OracleLimits()
) -> frozenset[int] | None:
    """Smallest-bitmask nonempty vertex set inducing a 3-regular subgraph."""
    n = _guard(graph.player_count, limits)
    masks = _closed_masks(graph)
    deadline = _deadline(limits)
    for mask in range(1, 1 << n):
        _check_deadline(mask, deadline)
        for v in range(n):
            if (mask >> v) & 1 and (mask & masks[v]).bit_count() != 4:
                break  # v itself is in the intersection, so 3 neighbors = 4
        else:
            return frozenset(v for v in range(n) if (mask >> v) & 1)
    return None


def find_clique(graph: Graph, k: int) -> frozenset[int] | None:
    """First k-clique in lexicographic vertex order, or None."""
    if k < 0:
        raise ValueError("clique size must be >= 0")
    if k == 0:
        return frozenset()
    for combo in combinations(range(graph.player_count), k):
        if all(graph.has_edge(u, v) for u, v in combinations(combo, 2)):
            return frozenset(combo)
    return None


def find_rb_dominating(
    graph: Graph,
    blue: Iterable[int],
    red: Iterable[int],
    k: int,
) -> frozenset[int] | None:
    """Smallest set of <= k blue vertices dominating every red vertex."""
    if k < 0:
        raise ValueError("budget must be >= 0")
    blues = sorted(set(blue))
    reds = sorted(set(red))
    for size in range(min(k, len(blues)) + 1):
        for combo in combinations(blues, size):
            chosen = set(combo)
            if all(graph.neighbors(r) & chosen for r in reds):
                return frozenset(combo)
    return None
