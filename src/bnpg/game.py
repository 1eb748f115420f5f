"""Core model: binary networked public goods games with exact rational payoffs.

Players sit on an undirected graph and either invest (paying their cost) or
abstain.  A player's payoff is an externality function of the number of
investors in its *closed* neighborhood, minus the cost if it invests itself.

The API is exact rationals: every quantity taken or returned here is a
`fractions.Fraction`, and nothing ever passes through floats.  A `Game`
scales itself once, when it is built: it multiplies every value and cost by
the lcm D of their denominators and keeps those ints next to the Fractions.
The solvers and the oracle run on the ints and divide by D only in the value
they report.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

Rational = Fraction | int | str


# An integer, a decimal a.b or a ratio p/q, in ASCII digits.  `Fraction()`
# alone would also take exponents, so a 9-byte "1e1000000" would become a
# 3.3-million-bit integer.  The groups are the sign, the integer digits, and
# the decimals or the denominator; `as_fraction` builds the value from them.
_RATIONAL_TOKEN = re.compile(r"([+-]?)([0-9]+)(?:\.([0-9]+)|/([0-9]+))?")


def as_fraction(value: Rational) -> Fraction:
    """Coerce ints and exact strings: integers ("3"), decimals ("1.5") or
    ratios ("3/4"), in ASCII digits.  Any other string, or a zero
    denominator, raises ValueError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        match = _RATIONAL_TOKEN.fullmatch(value)
        if match:
            sign, digits, decimals, ratio = match.groups()
            numerator, denominator = int(digits), 1
            if decimals is not None:
                denominator = 10 ** len(decimals)
                numerator = numerator * denominator + int(decimals)
            elif ratio is not None:
                denominator = int(ratio)
            if denominator:
                return Fraction(-numerator if sign == "-" else numerator, denominator)
        raise ValueError(f"not an exact rational: {value!r}")
    raise TypeError(f"not an exact rational: {value!r}")


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph on players 0..player_count-1.

    Edges are canonical (u < v) pairs; self-loops and duplicates are rejected.
    """

    player_count: int
    edges: frozenset[tuple[int, int]]
    _adj: tuple[frozenset[int], ...] = field(repr=False, compare=False, default=())

    def __post_init__(self) -> None:
        if self.player_count < 0:
            raise ValueError("player_count must be >= 0")
        adj: list[set[int]] = [set() for _ in range(self.player_count)]
        for u, v in self.edges:
            if not (0 <= u < self.player_count and 0 <= v < self.player_count):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if u > v:
                raise ValueError(f"edge ({u}, {v}) not in canonical (u < v) order")
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "_adj", tuple(frozenset(a) for a in adj))

    @classmethod
    def from_edges(cls, player_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
        canon = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            edge = (u, v) if u < v else (v, u)
            if edge in canon:
                raise ValueError(f"duplicate edge {edge}")
            canon.add(edge)
        return cls(player_count, frozenset(canon))

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def closed_neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v] | {v}

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def closed_degree(self, v: int) -> int:
        return len(self._adj[v]) + 1

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components as sorted vertex tuples, ordered by minimum."""
        seen = [False] * self.player_count
        out: list[tuple[int, ...]] = []
        for start in range(self.player_count):
            if seen[start]:
                continue
            seen[start] = True
            stack, comp = [start], [start]
            while stack:
                u = stack.pop()
                for w in self._adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        stack.append(w)
            out.append(tuple(sorted(comp)))
        return tuple(out)


@dataclass(frozen=True)
class Game:
    """A BNPG instance: graph + per-player externality table + cost.

    `externality[v]` has exactly degree(v)+2 entries, indexed by the number of
    investors in v's closed neighborhood (0 .. degree+1).  Entries and costs
    are nonnegative ints or Fractions.

    Construction scales the game once: `scale` is D, the lcm of every
    denominator, `scaled_ext[v][k]` is g_v(k)·D and `scaled_cost[v]` is
    c(v)·D.  Multiplying by a positive constant keeps every sum, minimum and
    comparison, so the solvers run on these ints and report
    `Fraction(best, scale)`.  Many coprime denominators make D, and every
    int, that much longer.  `==`, `hash` and `repr` ignore the derived fields.
    """

    graph: Graph
    externality: tuple[tuple[Fraction, ...], ...]
    cost: tuple[Fraction, ...]
    scale: int = field(init=False, repr=False, compare=False)
    scaled_ext: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    scaled_cost: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.graph.player_count
        if len(self.externality) != n or len(self.cost) != n:
            raise ValueError("externality/cost length must equal player count")
        denominators: set[int] = set()
        for v in range(n):
            table = self.externality[v]
            expected = self.graph.degree(v) + 2
            if len(table) != expected:
                raise ValueError(
                    f"player {v}: externality table has {len(table)} entries, "
                    f"needs degree+2 = {expected}"
                )
            for what, values in (("externality value", table), ("cost", (self.cost[v],))):
                for x in values:
                    if not isinstance(x, (int, Fraction)):
                        raise TypeError(f"player {v}: {what} {x!r} is not an int or a Fraction")
                    if x.numerator < 0:
                        raise ValueError(f"player {v}: negative {what}")
                    denominators.add(x.denominator)
        scale = math.lcm(*denominators)
        factor = {d: scale // d for d in denominators}
        ext = tuple(
            tuple(x.numerator * factor[x.denominator] for x in table) for table in self.externality
        )
        cost = tuple(c.numerator * factor[c.denominator] for c in self.cost)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "scaled_ext", ext)
        object.__setattr__(self, "scaled_cost", cost)

    @classmethod
    def build(
        cls,
        graph: Graph,
        externality: Iterable[Iterable[Rational]],
        cost: Iterable[Rational],
    ) -> Game:
        """Construct with coercion of ints / exact strings to Fraction."""
        tables = tuple(tuple(as_fraction(x) for x in t) for t in externality)
        costs = tuple(as_fraction(c) for c in cost)
        return cls(graph, tables, costs)

    @property
    def player_count(self) -> int:
        return self.graph.player_count


@dataclass(frozen=True)
class Profile:
    """A pure strategy profile: the set of investing players."""

    investing: frozenset[int]

    @classmethod
    def of(cls, *players: int) -> Profile:
        return cls(frozenset(players))

    def __contains__(self, v: int) -> bool:
        return v in self.investing

    def __len__(self) -> int:
        return len(self.investing)

    def __iter__(self):
        return iter(sorted(self.investing))

    def flip(self, v: int) -> Profile:
        """The profile with player v's action toggled."""
        if v in self.investing:
            return Profile(self.investing - {v})
        return Profile(self.investing | {v})

    def closed_count(self, graph: Graph, v: int) -> int:
        """Number of investors in v's closed neighborhood."""
        return len(graph.closed_neighbors(v) & self.investing)

    def validate_for(self, game: Game) -> None:
        for v in self.investing:
            if not (0 <= v < game.player_count):
                raise IndexError(f"profile mentions player {v}, out of range")


def payoff(game: Game, profile: Profile, v: int) -> Fraction:
    """Player v's utility: externality of its closed investor count, minus
    its cost when investing."""
    if not (0 <= v < game.player_count):
        raise IndexError(f"player {v} out of range")
    count = profile.closed_count(game.graph, v)
    value = game.externality[v][count]
    if v in profile:
        value -= game.cost[v]
    return value


def deviation_gain(game: Game, profile: Profile, v: int) -> Fraction:
    """Utility change for v if it unilaterally flips its action."""
    return payoff(game, profile.flip(v), v) - payoff(game, profile, v)


def is_stable(game: Game, v: int, invests: bool, count: int) -> bool:
    """Deviation check given v's full closed-neighborhood investor count.

    For an investing v the count includes v itself, so it lies in
    1..degree+1; an abstainer's lies in 0..degree.  A count outside that
    range matches no profile and raises ValueError.  Equivalent to
    deviation_gain(...) <= 0; indifference (gain 0) keeps the player stable.
    """
    if not (0 <= v < game.player_count):
        raise IndexError(f"player {v} out of range")
    g = game.scaled_ext[v]
    low, high = (1, len(g) - 1) if invests else (0, len(g) - 2)
    if not low <= count <= high:
        role = "an investor" if invests else "an abstainer"
        raise ValueError(
            f"player {v}: {role} cannot have {count} investors in its closed "
            f"neighborhood (possible: {low}..{high})"
        )
    return _stable(g, game.scaled_cost[v], invests, count)


def _stable(g, c, invests: bool, count: int) -> bool:
    # The scaled ints of one player: g_v·D and c(v)·D.
    if invests:
        return g[count] - c >= g[count - 1]
    return g[count] >= g[count + 1] - c


def is_psne(game: Game, profile: Profile) -> bool:
    """True iff no player has a strictly profitable unilateral deviation."""
    profile.validate_for(game)
    for v in range(game.player_count):
        count = profile.closed_count(game.graph, v)
        if not is_stable(game, v, v in profile, count):
            return False
    return True


def usw(game: Game, profile: Profile) -> Fraction:
    """Utilitarian social welfare: sum of all payoffs (0 for no players)."""
    profile.validate_for(game)
    return sum((payoff(game, profile, v) for v in range(game.player_count)), Fraction(0))


def esw(game: Game, profile: Profile) -> Fraction:
    """Egalitarian social welfare: minimum payoff.  Undefined for 0 players."""
    if game.player_count == 0:
        raise ValueError("egalitarian welfare is undefined for a zero-player game")
    profile.validate_for(game)
    return min(payoff(game, profile, v) for v in range(game.player_count))


def stability_rows(game: Game) -> list:
    """Per player, (abstain row, invest row) over closed investor counts k:
    True where the player is stable taking that action at k, else None.

    None also marks the counts no profile realizes: an investor counts
    itself (k = 1..deg+1) and an abstainer has at most deg investing
    neighbors (k = 0..deg).  Both PSNE dynamic programs read these rows.
    """
    rows = []
    for g, c in zip(game.scaled_ext, game.scaled_cost):
        top = len(g) - 1
        abstain = [True if _stable(g, c, False, k) else None for k in range(top)]
        invest = [True if _stable(g, c, True, k) else None for k in range(1, top + 1)]
        rows.append((tuple(abstain) + (None,), (None,) + tuple(invest)))
    return rows


def payoff_levels(game: Game) -> list[Fraction]:
    """Every payoff value any player can realize, sorted and deduplicated:
    g_v(k) or g_v(k) - c(v) for some count k.

    No solver uses it.  It stays only for the benchmark's `esw.candidates`
    count, and goes with that count.
    """
    levels: set[int] = set()
    for table, c in zip(game.scaled_ext, game.scaled_cost):
        levels.update(table)
        levels.update(x - c for x in table)
    return [Fraction(level, game.scale) for level in sorted(levels)]


def lesser(a, b):
    """`min(a, b)`, the combine rule of both ESW sweeps.  The builtin takes
    two to three times as long per call on two ints (Python 3.11), and the
    sweeps call it once per merged pair."""
    return b if b < a else a
