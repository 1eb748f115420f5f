"""Reference brute-force solvers.

Exhaustive enumeration over all 2^n profiles (bitmask order, bit i =
player i), the ground truth the polynomial solvers are validated against.
The masks are taken in blocks of the 2^L that share their high bits,
L = min(8, ceil(n/2)).  A player's payoff and stability depend only on its
key, its closed investor count plus its degree + 2 if it invests, so its
row is its abstain row then its invest row from `game.stability_rows` or
`game.payoff_rows`.  A mask's key is the sum of the keys of its two
halves.  So each player's low halves are tabulated once by key, and a
block is answered from per-player columns cached per high key: the
meet-in-the-middle idea of Horowitz and Sahni (JACM 1974).

Each key's low halves form a group: one int over the block with a field
per low half, 1 in the fields of that key.  `_low_groups` builds them
for any field width.

- PSNE (and the 3-regular search) uses 1-bit fields, so a group is a
  bitset.  A column is the union of the groups at whose key the player is
  stable, and one AND of the n columns gives the block's equilibria,
  yielded lazily in ascending order.
- `max_esw` ANDs the columns of payoffs above the best minimum so far.
  The lowest set bit is the next mask whose minimum strictly beats it:
  that mask becomes the incumbent, the caches are cleared, and the block
  is scanned again.
- `max_usw` packs payoffs: a column is the sum over low keys of the
  group times the player's payoff at the high key plus that low key, so
  one big-int add per player sums the whole block, SIMD within a register
  (Fisher and Dietz, LCPC 1998).  A field holds a mask's welfare less the
  sum of the players' least payoffs, which is at least 0 and at most the
  sum of their payoff spans.  It is 1, 2, 4 or 8 bytes wide, read back by
  a memoryview cast, or wider, read back by `int.from_bytes`, so every
  value stays exact.

Blocks run in ascending order and only a strict improvement replaces the
incumbent, so each value, witness and smallest-bitmask tie-break is that
of the one-mask-at-a-time scan.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple

from .game import Game, Graph, Profile, payoff_rows, stability_rows

_TIME_CHECK_STRIDE = 4096
# The memoryview formats of 1, 2, 4 and 8-byte unsigned fields.  They read
# the little-endian fields of `int.to_bytes` on little-endian machines only.
_CASTS = {1: "B", 2: "H", 4: "I", 8: "Q"}


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


def _strides(n: int, limits: OracleLimits) -> Iterator[range]:
    """The masks 0 .. 2^n - 1 in ascending order, as ranges cut at the
    multiples of `_TIME_CHECK_STRIDE`.  The time budget is checked before
    each range: at masks 0, 4096, ..."""
    deadline = None if limits.time_budget is None else time.monotonic() + limits.time_budget
    for low in range(0, 1 << n, _TIME_CHECK_STRIDE):
        if deadline is not None and time.monotonic() > deadline:
            raise LimitExceeded("oracle time budget exhausted")
        yield range(low, min(low + _TIME_CHECK_STRIDE, 1 << n))


def _ones(bits: int) -> Iterator[int]:
    """The positions of the set bits of `bits`, ascending."""
    while bits:
        yield (bits & -bits).bit_length() - 1
        bits &= bits - 1


def _low_groups(steps: list[int], field: int) -> dict[int, int]:
    """A player's low halves by key, each group an int over the block with
    a `field`-bit field per low half, 1 in the fields of that key: low bit
    j copies every group `field << j` bits up, at a key `steps[j]` higher."""
    groups = {0: 1}
    for j, step in enumerate(steps):
        moved = {key + step: group << (field << j) for key, group in groups.items()}
        for key, group in groups.items():
            moved[key] = moved.get(key, 0) | group
        groups = moved
    return groups


def _blocks(graph: Graph, rows: Iterable[list], field: int = 1) -> tuple[int, list]:
    """The block size 2^L, and per player its closed mask, own bit, width
    (degree + 2), row, `_low_groups` in `field`-bit fields and column
    cache.  `row[key]` is the player's entry at a mask of that key, the
    high key plus the low key; low bit j raises a key by `steps[j]`."""
    low_bits = min(8, (graph.player_count + 1) // 2)
    players = []
    for v, row in enumerate(rows):
        near = 1 << v | sum(1 << w for w in graph.neighbors(v))
        width = near.bit_count() + 1
        steps = [(near >> j & 1) + (width if j == v else 0) for j in range(low_bits)]
        players.append((near, 1 << v, width, row, _low_groups(steps, field), {}))
    return 1 << low_bits, players


def _passing(players: list, high: int, acc: int, floor: int) -> int:
    """`acc` less the lows of the block at `high` where some player's entry
    is at or below `floor`.  A player's column, a sum of disjoint groups, is
    cached per high key until the caller clears the caches."""
    for near, bit, width, row, groups, cache in players:
        key = (high & near).bit_count() + (width if high & bit else 0)
        column = cache.get(key)
        if column is None:
            column = cache[key] = sum(g for low_key, g in groups.items() if row[key + low_key] > floor)
        acc &= column
        if not acc:
            break
    return acc


def _stable_masks(graph: Graph, rows: Iterable[list], limits: OracleLimits) -> Iterator[int]:
    """The masks at which every player's row entry is true, lazily and in
    ascending order: one AND of the columns settles a block."""
    size, players = _blocks(graph, rows)
    full = (1 << size) - 1
    for stride in _strides(graph.player_count, limits):
        for high in range(stride.start, stride.stop, size):
            yield from (high + low for low in _ones(_passing(players, high, full, 0)))


def _psne_profiles(game: Game, limits: OracleLimits) -> Iterator[Profile]:
    """Every pure Nash equilibrium, lazily, in ascending bitmask order."""
    _guard(game.player_count, limits)
    # Stability depends only on (invests, closed count): a bool per key.
    rows = (a + i for a, i in stability_rows(game))
    return (Profile(frozenset(_ones(mask))) for mask in _stable_masks(game.graph, rows, limits))


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
    rows = [a + i for a, i in payoff_rows(game)]
    # A field holds a mask's welfare less the sum of the row minima, from 0
    # up to the sum of the row spans: 1, 2, 4 or 8 bytes, or more if need
    # be.  Each block's total starts from that sum taken off every field.
    offset = sum(map(min, rows))
    nbytes = max(1, ((sum(map(max, rows)) - offset).bit_length() + 7) // 8)
    if nbytes <= 8:
        nbytes = 1 << (nbytes - 1).bit_length()
    size, players = _blocks(game.graph, rows, 8 * nbytes)
    cast = _CASTS.get(nbytes) if sys.byteorder == "little" else None
    base = -offset * int.from_bytes((1).to_bytes(nbytes, "little") * size, "little")
    best_mask, best = 0, -1
    for stride in _strides(n, limits):
        for high in range(stride.start, stride.stop, size):
            total = base
            for near, bit, width, row, groups, cache in players:
                key = (high & near).bit_count() + (width if high & bit else 0)
                column = cache.get(key)
                if column is None:
                    column = cache[key] = sum([row[key + low_key] * g for low_key, g in groups.items()])
                total += column
            data = total.to_bytes(nbytes * size, "little")
            if cast:
                totals = memoryview(data).cast(cast).tolist()
            else:
                totals = [int.from_bytes(data[i:i + nbytes], "little") for i in range(0, len(data), nbytes)]
            top = max(totals)
            if top > best:
                best_mask, best = high + totals.index(top), top
    return Profile(frozenset(_ones(best_mask))), Fraction(best + offset, game.scale)


def max_esw(
    game: Game, limits: OracleLimits = OracleLimits()
) -> tuple[Profile, Fraction]:
    """A profile maximizing the minimum payoff (smallest bitmask on ties)."""
    n = _guard(game.player_count, limits)
    if n == 0:
        raise ValueError("egalitarian welfare is undefined for a zero-player game")
    rows = [a + i for a, i in payoff_rows(game)]
    size, players = _blocks(game.graph, rows)
    full = (1 << size) - 1
    # Mask 0 abstains everywhere at count 0; it is the first incumbent.
    best_mask, best = 0, min(row[0] for row in rows)
    for stride in _strides(n, limits):
        for high in range(stride.start, stride.stop, size):
            # The lowest passing mask is the next strict improvement.
            while acc := _passing(players, high, full, best):
                best_mask = high + (acc & -acc).bit_length() - 1
                best = min(row[(best_mask & near).bit_count() + (width if best_mask & bit else 0)]
                           for near, bit, width, row, _, _ in players)
                for *_, cache in players:
                    cache.clear()
    return Profile(frozenset(_ones(best_mask))), Fraction(best, game.scale)


def find_3regular_induced(
    graph: Graph, limits: OracleLimits = OracleLimits()
) -> frozenset[int] | None:
    """Smallest-bitmask nonempty vertex set inducing a 3-regular subgraph."""
    n = _guard(graph.player_count, limits)
    # A member passes when its closed count, itself included, is 4.  Every
    # abstain entry is 1, so the empty mask 0 always passes and is skipped.
    rows = ([1] * (d + 2) + [int(k == 4) for k in range(d + 2)] for d in map(graph.degree, range(n)))
    mask = next((m for m in _stable_masks(graph, rows, limits) if m), None)
    return None if mask is None else frozenset(_ones(mask))


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
