"""Textual instance and graph formats, and seeded instance generators.

Instance format (one directive per line, "#" lines are comments)::

    bnpg 1
    n <player-count>
    e <u> <v>
    c <v> <cost>
    g <v> <k> <value>

Every player needs a cost line and a complete externality table
(k = 0 .. degree+1).  Values are exact rationals: integers, decimal strings
("1.5"), or ratios ("3/4"), and nothing else (no exponents); they never pass
through floats.  Serialization is canonical (sorted directives, integers
printed bare, other rationals as p/q), so parse(serialize(game)) == game
exactly.

`parse_instance` reads canonical text in bulk, one regular-expression pass
per record kind checked by counts.  Any other text, malformed text
included, goes to a line-by-line loop, which raises every ParseError.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from fractions import Fraction
from itertools import chain
from typing import NamedTuple, Sequence

from .game import _RATIONAL_TOKEN, Game, Graph, Pair, read_int, read_token, token_pair


class ParseError(ValueError):
    """Input rejected; the message names the offending 1-based line when the
    problem is tied to one (line=None for whole-file problems)."""

    def __init__(self, line: int | None, message: str):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


def _rational(token: str, line: int, what: str) -> Pair:
    try:
        pair = read_token(token)
    except ValueError:
        raise ParseError(line, f"{what} is not an exact rational: {token!r}") from None
    if pair[0] < 0:
        raise ParseError(line, f"{what} must be nonnegative, got {token}")
    return pair


def _ints(tokens: Sequence[str], line: int | None, message: str) -> list[int]:
    """The ints of `tokens` (`read_int`'s ASCII digits), or one ParseError
    carrying `message` if any token is not one."""
    try:
        return [read_int(t) for t in tokens]
    except ValueError:
        raise ParseError(line, message) from None


def _int(token: str, line: int, what: str) -> int:
    return _ints((token,), line, f"{what} is not an integer: {token!r}")[0]


def _count(parts: list[str], line: int, noun: str) -> int:
    """The count of an `n <count>` line of `noun`s."""
    if len(parts) != 2:
        raise ParseError(line, "expected: n <count>")
    n = _int(parts[1], line, f"{noun} count")
    if n < 0:
        raise ParseError(line, f"{noun} count must be >= 0")
    return n


def _index(token: str, line: int, n: int, what: str, noun: str) -> int:
    """The int of `token`, named `what`, checked to be one of the n `noun`s."""
    v = _int(token, line, what)
    if not 0 <= v < n:
        raise ParseError(line, f"{noun} {v} out of range [0, {n})")
    return v


def _add_edge(parts: list[str], line: int, n: int, edges: set[tuple[int, int]], noun: str) -> None:
    """Add the edge of an `e <u> <v>` line to `edges`, as (min, max)."""
    if len(parts) != 3:
        raise ParseError(line, "expected: e <u> <v>")
    u, v = (_index(a, line, n, "endpoint", noun) for a in parts[1:])
    if u == v:
        raise ParseError(line, f"self-loop at {u}")
    key = (u, v) if u < v else (v, u)
    if key in edges:
        raise ParseError(line, f"duplicate edge ({key[0]}, {key[1]})")
    edges.add(key)


def _significant_lines(text: str):
    for idx, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if parts and parts[0][0] != "#":
            yield idx, parts


# The bulk path's line patterns, compiled on first use through `re`'s own
# cache.  The value field is `read_token`'s grammar, so both paths read one.
_HEADER = r"bnpg 1\nn ([0-9]+)\n"
_EDGE_LINE = r"^e ([0-9]+) ([0-9]+)$"
_COST_LINE = rf"^c ([0-9]+) {_RATIONAL_TOKEN.pattern}$"
_TABLE_LINE = rf"^g ([0-9]+) ([0-9]+) {_RATIONAL_TOKEN.pattern}$"


def parse_instance(text: str) -> Game:
    """Parse the instance format into a Game.

    Every number token goes straight to an int pair (`token_pair`), and
    `Game.from_pairs` scales them; no Fraction is built.  The bulk path
    (`_parse_bulk`) takes the text it can vouch for, and the line loop
    (`_parse_lines`) the rest; every ParseError comes from the loop.  Both
    build the same Game from the same text.  Neither builds anything of the
    declared player count's size before it has read as many cost lines, so
    the work is bounded by the size of the text.
    """
    try:
        game = _parse_bulk(text)
    except ValueError:  # a number too long for int(): the loop names it
        game = None
    return game if game is not None else _parse_lines(text)


def _parse_bulk(text: str) -> Game | None:
    """The game of a well-formed text, read with one `findall` per record
    kind; None when this path cannot vouch for the text.

    It takes only lines of the exact form `e U V`, `c V X` and `g V K X`,
    with single spaces and "\n" line ends, after the two header lines.
    Comments, blank lines, any other whitespace or line separator, and
    non-ASCII digits leave a line unmatched, and an unmatched line sends the
    whole text to the loop.  So does a minus sign or a denominator written
    with a leading 0, which covers every negative value and zero
    denominator ("-0" and "1/05" go to the loop too).  The other checks
    compare sizes: no edge, cost or (v, k) entry twice, a cost for each
    of the n players, and exactly the 2n + 2m table entries that every
    lookup finds.
    """
    head = re.match(_HEADER, text)
    if head is None:
        return None
    body = text[head.end():]
    if body and body[-1] != "\n":
        body += "\n"
    if "-" in body or "/0" in body:
        return None
    edge_rows = re.findall(_EDGE_LINE, body, re.M)
    cost_rows = re.findall(_COST_LINE, body, re.M)
    table_rows = re.findall(_TABLE_LINE, body, re.M)
    if len(edge_rows) + len(cost_rows) + len(table_rows) != body.count("\n"):
        return None
    n = int(head[1])
    if len(cost_rows) != n:
        return None
    ends = [(int(u), int(v)) for u, v in edge_rows]
    edges = {(u, v) if u < v else (v, u) for u, v in ends}
    # canonical u <= v: v < n puts both ends in range
    if len(edges) != len(ends) or any(u == v or v >= n for u, v in edges):
        return None
    costs = {int(v): token_pair(s, d, f, r) for v, s, d, f, r in cost_rows}
    if len(costs) != n or max(costs, default=-1) >= n:
        return None
    entries = {(int(v), int(k)): token_pair(s, d, f, r) for v, k, s, d, f, r in table_rows}
    if len(entries) != len(table_rows) or len(entries) != 2 * (n + len(edges)):
        return None
    degree = Counter(chain.from_iterable(edges))
    try:
        tables = [[entries[v, k] for k in range(degree[v] + 2)] for v in range(n)]
    except KeyError:  # so some entry lies outside the tables
        return None
    graph = Graph(n, frozenset(edges))
    return Game.from_pairs(graph, tables, [costs[v] for v in range(n)])


def _parse_lines(text: str) -> Game:
    """The line loop: `parse_instance` for any text, and the one source of
    its errors.  The checks for whole players run before any per-player
    structure exists."""
    lines = _significant_lines(text)
    try:
        idx, head = next(lines)
    except StopIteration:
        raise ParseError(1, "empty input, expected 'bnpg 1' header") from None
    if head != ["bnpg", "1"]:
        raise ParseError(idx, f"unsupported header {' '.join(head)!r}, expected 'bnpg 1'")

    for idx, parts in lines:
        if parts[0] != "n":
            raise ParseError(idx, f"'{parts[0]}' line before the player count")
        n = _count(parts, idx, "player")
        break
    else:
        raise ParseError(idx, "missing player count line")

    edges: set[tuple[int, int]] = set()
    costs: dict[int, Pair] = {}
    # player -> {k: (value, line)}, each in the order of the input lines
    gtab: dict[int, dict[int, tuple[Pair, int]]] = {}
    for idx, parts in lines:
        kind = parts[0]
        if kind == "g":
            if len(parts) != 4:
                raise ParseError(idx, "expected: g <v> <k> <value>")
            v = _index(parts[1], idx, n, "player", "player")
            k = _int(parts[2], idx, "externality index")
            if k < 0:
                raise ParseError(idx, "externality index must be >= 0")
            row = gtab.setdefault(v, {})
            if k in row:
                raise ParseError(idx, f"duplicate externality entry g({v}, {k})")
            row[k] = (_rational(parts[3], idx, "externality value"), idx)
        elif kind == "c":
            if len(parts) != 3:
                raise ParseError(idx, "expected: c <v> <cost>")
            v = _index(parts[1], idx, n, "player", "player")
            if v in costs:
                raise ParseError(idx, f"duplicate cost for player {v}")
            costs[v] = _rational(parts[2], idx, "cost")
        elif kind == "e":
            _add_edge(parts, idx, n, edges, "player")
        elif kind == "n":
            raise ParseError(idx, "duplicate player-count line")
        else:
            raise ParseError(idx, f"unknown directive {kind!r}")

    # Players in order, before any structure of size n: the loop stops at
    # the first player without a cost, at index len(costs) at the latest.
    degree = Counter(chain.from_iterable(edges))
    tables = []
    for v in range(n):
        width = degree[v] + 2
        entries = gtab.get(v, {})
        if max(entries, default=-1) >= width:
            k, line = next((k, line) for k, (_, line) in entries.items() if k >= width)
            raise ParseError(
                line,
                f"externality index {k} out of range for player {v} "
                f"(degree {width - 2}, max index {width - 1})",
            )
        if len(entries) < width:
            k = next(k for k in range(width) if k not in entries)
            raise ParseError(
                None, f"incomplete externality table for player {v}: missing g({v}, {k})"
            )
        tables.append([entries[k][0] for k in range(width)])
        if v not in costs:
            raise ParseError(None, f"missing cost for player {v}")
    graph = Graph(n, frozenset(edges))
    return Game.from_pairs(graph, tables, [costs[v] for v in range(n)])


def format_rational(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def serialize_instance(game: Game) -> str:
    """Canonical text for a game; exact round-trip through parse_instance."""
    out = ["bnpg 1", f"n {game.player_count}"]
    out += [f"e {u} {v}" for u, v in sorted(game.graph.edges)]
    out += [f"c {v} {format_rational(game.cost[v])}" for v in range(game.player_count)]
    for v in range(game.player_count):
        out += [
            f"g {v} {k} {format_rational(x)}"
            for k, x in enumerate(game.externality[v])
        ]
    return "\n".join(out) + "\n"


def parse_graph(text: str) -> tuple[Graph, frozenset[int]]:
    """Parse a bare graph ("n"/"e" lines, optional "red <v...>" marks).

    Returns (graph, red vertices); the red set is used by CLI reductions that
    need a bipartition and is empty otherwise.
    """
    n: int | None = None
    edges: set[tuple[int, int]] = set()
    red: set[int] = set()
    for idx, parts in _significant_lines(text):
        kind = parts[0]
        if kind == "n":
            if n is not None:
                raise ParseError(idx, "duplicate vertex-count line")
            n = _count(parts, idx, "vertex")
            continue
        if n is None:
            raise ParseError(idx, f"'{kind}' line before the vertex count")
        if kind == "e":
            _add_edge(parts, idx, n, edges, "vertex")
        elif kind == "red":
            red.update(_index(a, idx, n, "vertex", "vertex") for a in parts[1:])
        else:
            raise ParseError(idx, f"unknown directive {kind!r}")
    if n is None:
        raise ParseError(1, "missing vertex count line")
    return Graph(n, frozenset(edges)), frozenset(red)


# ---------------------------------------------------------------------------
# Seeded generators
# ---------------------------------------------------------------------------

FAMILIES = (
    "path",
    "cycle",
    "clique",
    "tree",
    "caterpillar",
    "twin_tree",
    "gnp",
    "bounded_tw",
)
G_MODES = ("monotone", "arbitrary", "homogeneous")
COST_MODES = ("zero", "unit", "random")


# The fields of a GameSpec.  A NamedTuple may not define `__new__`, so the
# checks live in a subclass.
class _SpecFields(NamedTuple):
    family: str
    n: int = 0
    seed: int = 0
    p: float = 0.3  # gnp edge probability
    width: int = 2  # bounded_tw target width
    multiplicities: tuple[int, ...] | None = None  # twin_tree block sizes
    g_mode: str = "monotone"
    cost_mode: str = "random"


class GameSpec(_SpecFields):
    """Deterministic recipe for a random instance (same spec, same game)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> GameSpec:
        self = super().__new__(cls, *args, **kwargs)
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, pick from {FAMILIES}")
        if self.g_mode not in G_MODES:
            raise ValueError(f"unknown g_mode {self.g_mode!r}")
        if self.cost_mode not in COST_MODES:
            raise ValueError(f"unknown cost_mode {self.cost_mode!r}")
        if self.family == "twin_tree":
            if not self.multiplicities or any(m < 1 for m in self.multiplicities):
                raise ValueError("twin_tree needs multiplicities, each >= 1")
            if self.n not in (0, sum(self.multiplicities)):
                raise ValueError(
                    f"twin_tree n must be 0 or the sum of the block sizes "
                    f"({sum(self.multiplicities)}), got {self.n}"
                )
        elif self.n < 0:
            raise ValueError("n must be >= 0")
        if not 0 <= self.p <= 1:  # also rejects NaN
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        return self


def _random_tree_parents(t: int, rng: random.Random) -> list[int]:
    # Random recursive tree: node i >= 1 attaches to a uniform earlier node.
    return [rng.randrange(i) for i in range(1, t)]


def _spec_graph(spec: GameSpec, rng: random.Random) -> Graph:
    n = spec.n
    if spec.family == "path":
        return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    if spec.family == "cycle":
        edges = [(i, i + 1) for i in range(n - 1)]
        if n >= 3:
            edges.append((0, n - 1))
        return Graph.from_edges(n, edges)
    if spec.family == "clique":
        return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if spec.family == "tree":
        parents = _random_tree_parents(n, rng)
        return Graph.from_edges(n, [(p, i + 1) for i, p in enumerate(parents)])
    if spec.family == "caterpillar":
        spine = max(1, (n + 1) // 2)
        edges = [(i, i + 1) for i in range(spine - 1)]
        edges += [(rng.randrange(spine), leg) for leg in range(spine, n)]
        return Graph.from_edges(n, edges)
    if spec.family == "gnp":
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < spec.p
        ]
        return Graph.from_edges(n, edges)
    if spec.family == "bounded_tw":
        w = spec.width
        base = min(n, w + 1)
        edges = [(i, j) for i in range(base) for j in range(i + 1, base)]
        bags = [tuple(range(base))]
        for v in range(base, n):
            bag = list(bags[rng.randrange(len(bags))])
            anchor = rng.sample(bag, min(w, len(bag)))
            edges += [(a, v) for a in anchor]
            bags.append(tuple(sorted(anchor + [v])))
        return Graph.from_edges(n, edges)
    if spec.family == "twin_tree":
        return _twin_tree_graph(spec.multiplicities or (), rng)
    raise AssertionError(spec.family)


def _twin_tree_graph(multiplicities: tuple[int, ...], rng: random.Random) -> Graph:
    t = len(multiplicities)
    starts = [0]
    for m in multiplicities:
        starts.append(starts[-1] + m)
    n = starts[-1]
    blocks = [range(starts[i], starts[i + 1]) for i in range(t)]
    edges: list[tuple[int, int]] = []
    for block in blocks:
        edges += [(u, v) for u in block for v in block if u < v]
    for child, parent in enumerate(_random_tree_parents(t, rng), start=1):
        edges += [(u, v) for u in blocks[parent] for v in blocks[child]]
    graph = Graph.from_edges(n, edges)
    # Adjacent twin blocks collapse (a 2-node tree becomes one clique); the
    # realized critical-clique count is asserted so corpus code can rely on it.
    from .critical_clique import build_cc_graph

    expected = 1 if t <= 2 else t
    realized = len(build_cc_graph(graph).cliques)
    if realized != expected:
        raise AssertionError(
            f"twin-expanded tree realized {realized} critical cliques, expected {expected}"
        )
    return graph


def _monotone_table(width: int, rng: random.Random) -> tuple[Fraction, ...]:
    row, value = [], Fraction(0)
    for _ in range(width):
        value += Fraction(rng.randint(0, 3), rng.choice((1, 1, 2, 4)))
        row.append(value)
    return tuple(row)


def _arbitrary_table(width: int, rng: random.Random) -> tuple[Fraction, ...]:
    return tuple(
        Fraction(rng.randint(0, 8), rng.choice((1, 1, 2, 4))) for _ in range(width)
    )


def _cost(mode: str, rng: random.Random) -> Fraction:
    if mode == "zero":
        return Fraction(0)
    if mode == "unit":
        return Fraction(1)
    return Fraction(rng.randint(0, 6), rng.choice((1, 2, 3)))


def gen_random_game(spec: GameSpec) -> Game:
    """Generate the instance a GameSpec describes (fully seed-deterministic)."""
    rng = random.Random(spec.seed)
    graph = _spec_graph(spec, rng)
    n = graph.player_count
    if spec.g_mode == "homogeneous":
        max_width = max((graph.degree(v) + 2 for v in range(n)), default=2)
        master = (
            _monotone_table(max_width, rng)
            if rng.random() < 0.5
            else _arbitrary_table(max_width, rng)
        )
        shared_cost = _cost(spec.cost_mode, rng)
        tables = tuple(master[: graph.degree(v) + 2] for v in range(n))
        costs = tuple(shared_cost for _ in range(n))
        return Game(graph, tables, costs)
    tables = []
    for v in range(n):
        width = graph.degree(v) + 2
        if spec.g_mode == "monotone":
            tables.append(_monotone_table(width, rng))
        else:
            tables.append(_arbitrary_table(width, rng))
    costs = tuple(_cost(spec.cost_mode, rng) for _ in range(n))
    return Game(graph, tuple(tables), costs)
