"""Shared graph/game builders for the test suite."""

from __future__ import annotations

import contextlib
import random
from fractions import Fraction
from itertools import repeat

from bnpg.decomposition import TreeDecomposition
from bnpg.game import Game, Graph, Profile, usw


@contextlib.contextmanager
def address_space_cap(extra: int):
    """Caps this process's address space at its current size plus `extra`
    bytes, so that a parser which allocates per declared item (player, bag)
    fails with MemoryError instead of taking the host's memory."""
    try:
        import resource

        with open("/proc/self/statm") as statm:
            size = int(statm.read().split()[0]) * resource.getpagesize()
    except (ImportError, OSError):
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + extra if soft == resource.RLIM_INFINITY else min(size + extra, soft)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def serialize_graph(graph: Graph, red: frozenset[int] = frozenset()) -> str:
    """The text `instance_io.parse_graph` reads: `n`, one `e` line per
    edge, and an optional `red` line."""
    out = [f"n {graph.player_count}"]
    out += [f"e {u} {v}" for u, v in sorted(graph.edges)]
    if red:
        out.append("red " + " ".join(str(v) for v in sorted(red)))
    return "\n".join(out) + "\n"


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def random_tree(n: int, rng: random.Random) -> Graph:
    return Graph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])


def gnp_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def twin_cluster_graph(n: int, rng: random.Random) -> Graph:
    """Tree of blocks (1-3 mutually adjacent twins); adjacent blocks fully joined."""
    blocks: list[list[int]] = []
    total = 0
    while total < n:
        size = min(rng.randrange(1, 4), n - total)
        blocks.append(list(range(total, total + size)))
        total += size
    edges = set()
    for block in blocks:
        for i, u in enumerate(block):
            for v in block[i + 1 :]:
                edges.add((u, v))
    for idx in range(1, len(blocks)):
        other = blocks[rng.randrange(idx)]
        for u in other:
            for v in blocks[idx]:
                edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, sorted(edges))


def random_game(graph: Graph, rng: random.Random, monotone: bool = False) -> Game:
    """Small rational tables; roughly 30% of steps are non-monotone unless asked."""
    ext, cost = [], []
    for v in range(graph.player_count):
        table = [Fraction(rng.randrange(0, 5), rng.choice((1, 2)))]
        for _ in range(graph.degree(v) + 1):
            if monotone or rng.random() < 0.7:
                table.append(table[-1] + Fraction(rng.randrange(0, 3)))
            else:
                table.append(Fraction(rng.randrange(0, 6), 2))
        ext.append(tuple(table))
        cost.append(Fraction(rng.randrange(0, 4), rng.choice((1, 2))))
    return Game(graph, ext, cost)


def relabel_game(game: Game, rng: random.Random) -> Game:
    """The same game with its players renamed by a random permutation."""
    n = game.graph.player_count
    new = list(range(n))
    rng.shuffle(new)
    old = [0] * n
    for v, w in enumerate(new):
        old[w] = v
    graph = Graph.from_edges(n, [(new[u], new[v]) for u, v in game.graph.edges])
    return Game(
        graph,
        tuple(game.externality[v] for v in old),
        tuple(game.cost[v] for v in old),
    )


COPRIME_DENOMINATORS = (3, 5, 7, 11)


def coprime_game(graph: Graph, rng: random.Random) -> Game:
    """Like random_game, but every value and cost has a denominator drawn
    from {3, 5, 7, 11}, so the lcm of a game's denominators reaches 1155."""

    def draw(top: int) -> Fraction:
        return Fraction(rng.randrange(0, top), rng.choice(COPRIME_DENOMINATORS))

    ext, cost = [], []
    for v in range(graph.player_count):
        table = [draw(12)]
        for _ in range(graph.degree(v) + 1):
            table.append(table[-1] + draw(12) if rng.random() < 0.7 else draw(24))
        ext.append(tuple(table))
        cost.append(draw(12))
    return Game(graph, ext, cost)


def best_shot_game(graph: Graph, cost: Fraction = Fraction(1, 2)) -> Game:
    """Classic threshold game: any investor in the closed neighborhood is enough."""
    ext = [
        (Fraction(0),) + (Fraction(1),) * (graph.degree(v) + 1)
        for v in range(graph.player_count)
    ]
    return Game(graph, ext, [cost] * graph.player_count)


def nx_graph(graph: Graph):
    """The same graph as a networkx.Graph, isolated players included."""
    import networkx as nx

    out = nx.Graph()
    out.add_nodes_from(range(graph.player_count))
    out.add_edges_from(graph.edges)
    return out


def connected_atlas(max_n: int):
    """All connected graphs with 1..max_n vertices (max_n <= 7), as Graphs."""
    import networkx as nx

    out = []
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if n < 1 or n > max_n:
            continue
        if not nx.is_connected(g):
            continue
        relabel = {node: i for i, node in enumerate(sorted(g.nodes()))}
        out.append(
            Graph.from_edges(n, [(relabel[u], relabel[v]) for u, v in g.edges()])
        )
    return out


def reference_elimination(graph: Graph, heuristic: str) -> TreeDecomposition:
    """`heuristic_decomposition` as it was before the heap: each step takes
    `min` over every live vertex by (score, vertex).  Quadratic, and kept
    only as the reference the heap version must equal."""
    n = graph.player_count
    if n == 0:
        return TreeDecomposition(((),), ())
    live: dict[int, set[int]] = {v: set(graph.neighbors(v)) for v in range(n)}

    def fill_score(v: int) -> int:
        nbrs = sorted(live[v])
        missing = 0
        for i, a in enumerate(nbrs):
            adj_a = live[a]
            for b in nbrs[i + 1 :]:
                if b not in adj_a:
                    missing += 1
        return missing

    scores: dict[int, int] = {}
    for v in live:
        scores[v] = fill_score(v) if heuristic == "min_fill" else len(live[v])

    elim_index: dict[int, int] = {}
    bags: list[tuple[int, ...]] = []
    for step in range(n):
        v = min(live, key=lambda u: (scores[u], u))
        nbrs = sorted(live[v])
        bags.append(tuple(sorted([v] + nbrs)))
        elim_index[v] = step
        dirty: set[int] = set(nbrs)
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1 :]:
                if b not in live[a]:
                    live[a].add(b)
                    live[b].add(a)
                    if heuristic == "min_fill":
                        dirty.update(live[a] & live[b])
        for u in nbrs:
            live[u].discard(v)
        del live[v]
        del scores[v]
        dirty.discard(v)
        for u in dirty & live.keys():
            scores[u] = fill_score(u) if heuristic == "min_fill" else len(live[u])
    edges = []
    for i, bag in enumerate(bags):
        later = [u for u in bag if elim_index[u] > i]
        if later:
            parent = min(later, key=lambda u: elim_index[u])
            edges.append((i, elim_index[parent]))
        elif i + 1 < n:
            edges.append((i, i + 1))
    return TreeDecomposition(tuple(bags), tuple(edges))


def reference_max_esw(game: Game) -> tuple[Profile, Fraction]:
    """`oracle.max_esw` as it was before the incumbent cut: every payoff of
    every profile is scored, and a profile replaces the best only on a
    strictly larger minimum.  Kept only as the reference the cut must equal."""
    n = game.player_count
    closed = []
    for v in range(n):
        m = 1 << v
        for w in game.graph.neighbors(v):
            m |= 1 << w
        closed.append(m)
    players = list(zip(range(n), closed, game.scaled_ext, game.scaled_cost))
    best_mask, best = 0, None
    for mask in range(1 << n):
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
    investing = frozenset(v for v in range(n) if best_mask >> v & 1)
    return Profile(investing), Fraction(best, game.scale)


def reference_max_usw(game: Game) -> tuple[Profile, Fraction]:
    """`oracle.max_usw` by definition: every mask in ascending order, scored
    with `game.usw`, and the first strict maximum kept."""
    n = game.player_count
    best = None
    for mask in range(1 << n):
        profile = Profile(frozenset(v for v in range(n) if mask >> v & 1))
        value = usw(game, profile)
        if best is None or value > best[1]:
            best = profile, value
    assert best is not None
    return best


def reference_merge(combine):
    """`ccforest._lists.merge` as it was before the closed forms: the (max,
    combine) merge of two vectors, out[s] the max over a + b = s of
    combine(acc[a], best[b]).  Kept only as the reference they must equal."""

    def merge(acc: list, best: list) -> list:
        out = list(map(combine, acc, repeat(best[0])))
        last = acc[-1]
        for b in range(1, len(best)):
            right = best[b]
            out.append(combine(last, right))
            for s, left in enumerate(acc[:-1], b):
                candidate = combine(left, right)
                if candidate > out[s]:
                    out[s] = candidate
        return out

    return merge


def reference_fold(combine, identity, vectors: list) -> list:
    """The children's vectors folded one at a time, as `ccforest._solve`
    folds them when some child has two or more members."""
    merge = reference_merge(combine)
    merged = [identity]
    for vector in vectors:
        merged = merge(merged, vector)
    return merged


def reference_split(combine, identity, vectors: list, z: int) -> list:
    """The entry each child takes at total z in `ccforest._solve`'s prefix
    walk as it was before the closed forms: rebuild the prefix merges, then
    from the last child back take the first entry that, combined with the
    prefix before it, reaches the target."""
    merge = reference_merge(combine)
    start = [identity]
    at = lambda vector, i: vector[i] if 0 <= i < len(vector) else None
    taken = [None] * len(vectors)
    prefix = [start]
    for best in vectors:
        prefix.append(merge(prefix[-1], best))
    remaining, target = z, at(prefix[-1], z)
    for idx in range(len(vectors) - 1, -1, -1):  # last child first
        lefts = prefix[idx]
        for xj, right in enumerate(vectors[idx]):  # smallest xj first
            left = at(lefts, remaining - xj)
            if left is not None and combine(left, right) == target:
                taken[idx] = xj
                remaining, target = remaining - xj, left
                break
        else:
            raise AssertionError("inconsistent ccforest tables")
    return taken


def drawn_star(leaves: int, seed: int) -> Game:
    """A star with hub 0, its payoffs drawn as the benchmark's forest star
    draws them (g monotone, random costs): each table adds randint(0, 3)
    over a denominator from (1, 1, 2, 4) per step, then each cost is
    randint(0, 6) over one of (1, 2, 3)."""
    rng = random.Random(seed)
    graph = star_graph(leaves)
    tables = []
    for v in range(graph.player_count):
        row, value = [], Fraction(0)
        for _ in range(graph.degree(v) + 2):
            value += Fraction(rng.randint(0, 3), rng.choice((1, 1, 2, 4)))
            row.append(value)
        tables.append(tuple(row))
    costs = [Fraction(rng.randint(0, 6), rng.choice((1, 2, 3))) for _ in tables]
    return Game(graph, tuple(tables), tuple(costs))
