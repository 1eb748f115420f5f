"""Core model: binary networked public goods games with exact rational payoffs.

Players sit on an undirected graph and either invest (paying their cost) or
abstain.  A player's payoff is an externality function of the number of
investors in its *closed* neighborhood, minus the cost if it invests itself.

The API is exact rationals: a game takes ints, `fractions.Fraction`s and
exact strings, every quantity returned here is a Fraction, and nothing ever
passes through floats.  Inside, a `Game` is ints: each value and cost
multiplied by the lcm D of their reduced denominators.  The solvers, the
oracle and the payoff and welfare evaluators run on those ints and divide by
D only in the value they return.  The Fractions of every game are a view
derived from the ints, built on first read; the instance parser reads every
number token straight into a (numerator, denominator) int pair and builds
none.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

Rational = Fraction | int | str
Pair = tuple[int, int]


# An integer, a decimal a.b or a ratio p/q, in ASCII digits.  `Fraction()`
# alone would also take exponents, so a 9-byte "1e1000000" would become a
# 3.3-million-bit integer.  The groups are the sign, the integer digits, and
# the decimals or the denominator; `token_pair` builds the value from them,
# for `read_token` and for the instance parser's bulk path.
_RATIONAL_TOKEN = re.compile(r"([+-]?)([0-9]+)(?:\.([0-9]+)|/([0-9]+))?")
# An integer in ASCII digits.  `int()` alone would also take "1_0",
# non-ASCII digits such as the Arabic-Indic ones, and spaces around them.
_INT_TOKEN = re.compile(r"[+-]?[0-9]+")


def read_token(token: str) -> Pair:
    """The reduced, signed (numerator, denominator) pair of an exact string:
    an integer ("3"), a decimal ("1.5") or a ratio ("3/4"), in ASCII digits.
    Any other string, or a zero denominator, raises ValueError."""
    if token.isascii() and token.isdigit():
        return int(token), 1
    match = _RATIONAL_TOKEN.fullmatch(token)
    if match:
        pair = token_pair(*match.groups())
        if pair is not None:
            return pair
    raise ValueError(f"not an exact rational: {token!r}")


def read_int(token: str) -> int:
    """The int of a signed integer in ASCII digits ("7", "-2", "+03").  Any
    other string raises ValueError."""
    if _INT_TOKEN.fullmatch(token):
        return int(token)
    raise ValueError(f"not an integer: {token!r}")


def token_pair(sign: str, digits: str, decimals: str | None, ratio: str | None) -> Pair | None:
    """The reduced pair from the groups of a `_RATIONAL_TOKEN` match, or None
    for a zero denominator.  An absent group may be None or "", as `findall`
    gives it."""
    numerator, denominator = int(digits), 1
    if decimals:
        denominator = 10 ** len(decimals)
        numerator = numerator * denominator + int(decimals)
    elif ratio:
        denominator = int(ratio)
        if not denominator:
            return None
    common = math.gcd(numerator, denominator)
    numerator //= common
    return (-numerator if sign == "-" else numerator), denominator // common


class _Record:
    """Base of the immutable records.  `==`, `hash`, `repr` and `__reduce__`
    (so that a record copies and pickles) all mean the constructor arguments
    that `_fields` names; whatever else a record derives takes no part."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key()))
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return type(self), self._key()

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign to or delete {name!r}: a {type(self).__name__} is immutable")

    __delattr__ = __setattr__


class Graph(_Record):
    """Immutable undirected graph on players 0..player_count-1.

    Edges are canonical (u < v) pairs, kept as a frozenset; self-loops are
    rejected, and `from_edges` also rejects duplicates.
    `==`, `hash` and `repr` mean the player count and the edges; the
    adjacency sets derived from them take no part.
    """

    __slots__ = ("player_count", "edges", "_adj")
    _fields = ("player_count", "edges")

    player_count: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, player_count: int, edges: Iterable[tuple[int, int]]) -> None:
        if player_count < 0:
            raise ValueError("player_count must be >= 0")
        edges = frozenset(edges)
        adj: list[list[int]] = [[] for _ in range(player_count)]
        for u, v in edges:
            if not 0 <= u < v < player_count:  # one test per edge; name the rule it breaks
                if not (0 <= u < player_count and 0 <= v < player_count):
                    raise ValueError(f"edge ({u}, {v}) out of range")
                if u == v:
                    raise ValueError(f"self-loop at {u}")
                raise ValueError(f"edge ({u}, {v}) not in canonical (u < v) order")
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "player_count", player_count)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_adj", tuple(map(frozenset, adj)))

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

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]


def root_walk(
    count: int, edges: Iterable[tuple[int, int]], roots: Iterable[int]
) -> tuple[list[int | None], list[int]]:
    """Root the nodes 0..count-1 of `edges`, one tree from each of `roots`
    that no earlier root reached: each node's parent (None at a root and at
    a node no root reaches), and the reached nodes, each after its parent.
    Sorted `edges`, u < v in each, push a node's neighbors in ascending
    index; reversed, a postorder that finishes a node's children in that
    order."""
    adj: list[list[int]] = [[] for _ in range(count)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent: list[int | None] = [None] * count
    seen = [False] * count
    order: list[int] = []
    for root in roots:
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        while stack:
            node = stack.pop()
            order.append(node)
            for nb in adj[node]:
                if not seen[nb]:
                    seen[nb] = True
                    parent[nb] = node
                    stack.append(nb)
    return parent, order


def _pair(value: Rational, v: int, what: str) -> Pair:
    if isinstance(value, str):
        try:
            return read_token(value)
        except ValueError:
            raise ValueError(f"player {v}: {what} {value!r} is not an exact rational") from None
    if isinstance(value, (int, Fraction)):
        return value.numerator, value.denominator
    raise TypeError(f"player {v}: {what} {value!r} is not an int, a Fraction or a string")


class Game(_Record):
    """A BNPG instance: graph + per-player externality table + cost.

    `externality[v]` has exactly degree(v)+2 entries, indexed by the number of
    investors in v's closed neighborhood (0 .. degree+1).  Entries and costs
    are nonnegative exact rationals.

    The state is ints: `scale` is D, the lcm of every reduced denominator,
    `scaled_ext[v][k]` is g_v(k)·D and `scaled_cost[v]` is c(v)·D.
    Multiplying by a positive constant keeps every sum, minimum and
    comparison, so the solvers run on these ints and report
    `Fraction(best, scale)`.  Many coprime denominators make D, and every
    int, that much longer.

    `externality` and `cost` are a view derived from the ints:
    `Fraction(x, scale)` for each, built on first read, however the game was
    constructed.  `==`, `hash` and `repr` mean the graph and these exact
    values; `scale` and the scaled ints take no part in them.  A game is
    immutable.
    """

    __slots__ = ("graph", "scale", "scaled_ext", "scaled_cost", "_values")
    _fields = ("graph", "externality", "cost")

    graph: Graph
    scale: int
    scaled_ext: tuple[tuple[int, ...], ...]
    scaled_cost: tuple[int, ...]

    def __init__(
        self,
        graph: Graph,
        externality: Iterable[Iterable[Rational]],
        cost: Iterable[Rational],
    ) -> None:
        """From ints, Fractions and exact strings, which `read_token` reads
        with the instance format's grammar; anything else raises TypeError."""
        self._scale(
            graph,
            [[_pair(x, v, "externality value") for x in t] for v, t in enumerate(externality)],
            [_pair(c, v, "cost") for v, c in enumerate(cost)],
        )

    @classmethod
    def from_pairs(
        cls, graph: Graph, externality: Sequence[Sequence[Pair]], cost: Sequence[Pair]
    ) -> Game:
        """From reduced (numerator, denominator) int pairs, as `read_token`
        returns them."""
        game = cls.__new__(cls)
        game._scale(graph, externality, cost)
        return game

    def _scale(
        self, graph: Graph, externality: Sequence[Sequence[Pair]], cost: Sequence[Pair]
    ) -> None:
        # The one place D is built: every constructor ends here.
        n = graph.player_count
        if len(externality) != n or len(cost) != n:
            raise ValueError("externality/cost length must equal player count")
        denominators: set[int] = set()
        for v in range(n):
            table = externality[v]
            expected = graph.degree(v) + 2
            if len(table) != expected:
                raise ValueError(
                    f"player {v}: externality table has {len(table)} entries, "
                    f"needs degree+2 = {expected}"
                )
            for numerator, denominator in table:
                if numerator < 0:
                    raise ValueError(f"player {v}: negative externality value")
                denominators.add(denominator)
            numerator, denominator = cost[v]
            if numerator < 0:
                raise ValueError(f"player {v}: negative cost")
            denominators.add(denominator)
        scale = math.lcm(*denominators)
        factor = {d: scale // d for d in denominators}
        setattr_ = object.__setattr__
        setattr_(self, "graph", graph)
        setattr_(self, "scale", scale)
        setattr_(self, "scaled_ext", tuple(tuple(x * factor[d] for x, d in t) for t in externality))
        setattr_(self, "scaled_cost", tuple(x * factor[d] for x, d in cost))
        setattr_(self, "_values", None)

    def _exact(self) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[Fraction, ...]]:
        if self._values is None:
            scale = self.scale
            values = (
                tuple(tuple(Fraction(x, scale) for x in t) for t in self.scaled_ext),
                tuple(Fraction(c, scale) for c in self.scaled_cost),
            )
            object.__setattr__(self, "_values", values)
        return self._values

    @property
    def externality(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._exact()[0]

    @property
    def cost(self) -> tuple[Fraction, ...]:
        return self._exact()[1]

    @property
    def player_count(self) -> int:
        return self.graph.player_count


class Profile(_Record):
    """A pure strategy profile: the set of investing players."""

    __slots__ = ("investing",)
    _fields = ("investing",)

    investing: frozenset[int]

    def __init__(self, investing: frozenset[int]) -> None:
        object.__setattr__(self, "investing", investing)

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
        return len(graph.neighbors(v) & self.investing) + (v in self.investing)

    def validate_for(self, game: Game) -> None:
        for v in self.investing:
            if not (0 <= v < game.player_count):
                raise IndexError(f"profile mentions player {v}, out of range")


def _scaled_payoff(game: Game, profile: Profile, v: int) -> int:
    # Player v's payoff times D.
    if not (0 <= v < game.player_count):
        raise IndexError(f"player {v} out of range")
    value = game.scaled_ext[v][profile.closed_count(game.graph, v)]
    if v in profile.investing:
        value -= game.scaled_cost[v]
    return value


def payoff(game: Game, profile: Profile, v: int) -> Fraction:
    """Player v's utility: externality of its closed investor count, minus
    its cost when investing."""
    return Fraction(_scaled_payoff(game, profile, v), game.scale)


def deviation_gain(game: Game, profile: Profile, v: int) -> Fraction:
    """Utility change for v if it unilaterally flips its action."""
    flipped = _scaled_payoff(game, profile.flip(v), v)
    return Fraction(flipped - _scaled_payoff(game, profile, v), game.scale)


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


def _scaled_payoffs(game: Game, investing: frozenset[int]) -> Iterator[int]:
    # `_scaled_payoff` of each player in turn, for a profile already checked,
    # with the tables and the adjacency read through locals.
    for v, (g, c, nbrs) in enumerate(zip(game.scaled_ext, game.scaled_cost, game.graph._adj)):
        if v in investing:
            yield g[len(nbrs & investing) + 1] - c
        else:
            yield g[len(nbrs & investing)]


def usw(game: Game, profile: Profile) -> Fraction:
    """Utilitarian social welfare: sum of all payoffs (0 for no players)."""
    profile.validate_for(game)
    return Fraction(sum(_scaled_payoffs(game, profile.investing)), game.scale)


def esw(game: Game, profile: Profile) -> Fraction:
    """Egalitarian social welfare: minimum payoff.  Undefined for 0 players."""
    if game.player_count == 0:
        raise ValueError("egalitarian welfare is undefined for a zero-player game")
    profile.validate_for(game)
    return Fraction(min(_scaled_payoffs(game, profile.investing)), game.scale)


def stability_rows(game: Game) -> list:
    """Per player, (abstain row, invest row) over closed investor counts k:
    whether the player is stable taking that action at k, as a bool.

    False also marks the counts no profile realizes: an investor counts
    itself (k = 1..deg+1) and an abstainer has at most deg investing
    neighbors (k = 0..deg).  A profile is an equilibrium iff the minimum of
    its players' entries is True: the treewidth sweep folds them with `and`
    as 0/1 payoffs, and ccforest and the oracle read them too.
    """
    rows = []
    for g, c in zip(game.scaled_ext, game.scaled_cost):
        top = len(g) - 1
        abstain = [_stable(g, c, False, k) for k in range(top)]
        invest = [_stable(g, c, True, k) for k in range(1, top + 1)]
        rows.append((tuple(abstain) + (False,), (False,) + tuple(invest)))
    return rows


def payoff_rows(game: Game) -> list:
    """Per player, (abstain row, invest row) over closed investor counts k:
    its payoff taking that action at k, as scaled ints, g_v(k)·D and
    (g_v(k) - c(v))·D.  Both rows are tuples, so the oracle concatenates
    them.

    Every count has an entry, including the ones no profile realizes (an
    investor at k = 0, an abstainer at k = deg + 1).  Every welfare solver
    reads this one table: the treewidth sweep folds it with + or min, and
    ccforest and the oracle read it too.
    """
    return [(g, tuple([x - c for x in g])) for g, c in zip(game.scaled_ext, game.scaled_cost)]


def payoff_levels(game: Game) -> list[Fraction]:
    """Every payoff value any player can realize, sorted and deduplicated:
    g_v(k) or g_v(k) - c(v) for some count k.

    No solver uses it.  It stays only for the benchmark's `esw.candidates`
    count, and goes with that count.
    """
    levels: set[int] = set()
    for abstain, invest in payoff_rows(game):
        levels.update(abstain)
        levels.update(invest)
    return [Fraction(level, game.scale) for level in sorted(levels)]


def lesser(a, b):
    """`min(a, b)`, the combine rule of both ESW sweeps.  The builtin takes
    two to three times as long per call on two ints (Python 3.11), and the
    sweeps call it once per merged pair."""
    return b if b < a else a
