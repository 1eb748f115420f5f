"""Reference brute-force solvers.

Deliberately obvious exhaustive enumeration over all 2^n profiles (bitmask
order, bit i = player i), used as the ground truth the polynomial solvers are
validated against.  Every profile is visited, and two enumerations do it
faster than one payoff at a time:

- `max_esw` stops scoring a profile once some payoff is at or below the best
  minimum found so far.  Such a profile's minimum cannot strictly beat the
  incumbent, and only a strict improvement replaces it, so the value, the
  witness and the smallest-bitmask tie-break are those of the full scan.
- `max_usw` scores the masks in blocks: a block holds the 2^L masks that
  share their high bits, L = min(8, ceil(n/2)).  With the high bits fixed, a
  player's payoff over the block depends only on the low bits, through its
  closed investor count among them and its own bit if that is low.  So each
  player's column of payoffs is built once per (high count, own high bit)
  and cached, and a block's welfares are the column sums: the same integer
  sums the full scan makes, per mask.  Blocks run in ascending order, the
  first maximum inside a block is taken, and it replaces the incumbent only
  when strictly greater, so the value, the witness and the smallest-bitmask
  tie-break are those of the full scan.  Tabulating each half of a mask
  apart is the meet-in-the-middle idea of Horowitz and Sahni (JACM 1974).
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple

from .game import Game, Graph, Profile, is_stable

_TIME_CHECK_STRIDE = 4096


class LimitExceeded(RuntimeError):
    """Raised when an instance is too large (or too slow) for enumeration."""


class OracleLimits(NamedTuple):
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


def _strides(n: int, limits: OracleLimits, start: int = 0) -> Iterator[range]:
    """The masks `start` .. 2^n - 1 in ascending order, as ranges cut at the
    multiples of `_TIME_CHECK_STRIDE`.  The time budget is checked before
    each range that begins at such a multiple: at masks 0, 4096, ..."""
    deadline = None if limits.time_budget is None else time.monotonic() + limits.time_budget
    for low in range(0, 1 << n, _TIME_CHECK_STRIDE):
        if deadline is not None and low >= start and time.monotonic() > deadline:
            raise LimitExceeded("oracle time budget exhausted")
        yield range(max(low, start), min(low + _TIME_CHECK_STRIDE, 1 << n))


def _to_profile(mask: int, n: int) -> Profile:
    return Profile(frozenset(v for v in range(n) if (mask >> v) & 1))


def _psne_profiles(game: Game, limits: OracleLimits) -> Iterator[Profile]:
    """Every pure Nash equilibrium, lazily, in ascending bitmask order."""
    n = _guard(game.player_count, limits)
    # Stability depends only on (invests, closed investor count): tabulate it
    # per player as (v, closed mask, invest row, abstain row).
    players = []
    for v, near in enumerate(_closed_masks(game.graph)):
        top = near.bit_count()
        invest = [False] + [is_stable(game, v, True, k) for k in range(1, top + 1)]
        abstain = [is_stable(game, v, False, k) for k in range(top)] + [True]
        players.append((v, near, invest, abstain))
    for stride in _strides(n, limits):
        for mask in stride:
            for v, near, invest, abstain in players:
                count = (mask & near).bit_count()
                if (mask >> v) & 1:
                    if not invest[count]:
                        break
                elif not abstain[count]:
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
    if n == 0:
        return Profile.of(), Fraction(0)
    low_bits = min(8, (n + 1) // 2)
    block = range(1 << low_bits)
    closed = _closed_masks(game.graph)
    players = []
    for v, near, g, c in zip(range(n), closed, game.scaled_ext, game.scaled_cost):
        # row[k] is the payoff at closed count k and row[len(g) + k] that
        # payoff less the cost.  A half's key is its closed count, plus
        # len(g) if v's own bit is in it and set: a payoff is
        # row[high key + low key].
        row = list(g) + [x - c for x in g]
        keys = [(low & near).bit_count() + (len(g) if low >> v & 1 else 0) for low in block]
        players.append((near, 1 << v, len(g), row, keys, {}))
    best_mask, best = 0, None
    for stride in _strides(n, limits):
        for high in range(stride.start, stride.stop, len(block)):
            columns = []
            for near, bit, width, row, keys, cache in players:
                key = (high & near).bit_count() + (width if high & bit else 0)
                column = cache.get(key)
                if column is None:
                    column = cache[key] = list(map(row[key:].__getitem__, keys))
                columns.append(column)
            totals = list(map(sum, zip(*columns)))
            top = max(totals)
            if best is None or top > best:
                best_mask, best = high + totals.index(top), top
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
    # Mask 0 scores g(0) for everyone; it is the first incumbent.
    best_mask, best = 0, min(g[0] for g in game.scaled_ext)
    for stride in _strides(n, limits):
        for mask in stride:
            low = None
            for v, near, g, c in players:
                p = g[(mask & near).bit_count()]
                if (mask >> v) & 1:
                    p -= c
                if p <= best:
                    break  # this profile's minimum cannot beat the incumbent
                if low is None or p < low:
                    low = p
            else:
                best_mask, best = mask, low
    return _to_profile(best_mask, n), Fraction(best, game.scale)


def find_3regular_induced(
    graph: Graph, limits: OracleLimits = OracleLimits()
) -> frozenset[int] | None:
    """Smallest-bitmask nonempty vertex set inducing a 3-regular subgraph."""
    n = _guard(graph.player_count, limits)
    masks = _closed_masks(graph)
    for stride in _strides(n, limits, start=1):
        for mask in stride:
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
