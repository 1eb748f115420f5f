"""Greedy elimination orders, their elimination trees, and the nice
decomposition built from one.

`elimination_order` is the min-fill / min-degree loop, and
`elimination_tree` the rule that links its steps; both serve
`decomposition.heuristic_decomposition`.  `nice_from_elimination` hands the
same tree to the one nice-form builder, `decomposition._nice_from_skeleton`,
which `to_nice` also calls: the treewidth solvers take that path when no
decomposition is given.  None of this is needed to import `bnpg.cli`, so
this module is imported where it is used.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .decomposition import HEURISTICS, NiceTreeDecomposition, _nice_from_skeleton
from .game import Graph


def elimination_order(
    graph: Graph, heuristic: str = "min_fill"
) -> tuple[list[int], list[tuple[int, ...]]]:
    """Greedy elimination: the order, and each eliminated vertex's bag.

    `min_fill` eliminates the vertex whose neighborhood needs the fewest new
    edges to become a clique; `min_degree` the vertex of least degree.  Ties
    break on the smaller vertex index, so results are deterministic.  The
    next vertex comes off a heap of (score, vertex) entries: a vertex whose
    score changes gets a new entry, and an entry whose vertex is gone or
    rescored is skipped when it surfaces, so each step costs a logarithm,
    not a scan of every live vertex.  `bags[i]` is the sorted set of
    `order[i]` and its neighbors in the fill-in graph that are eliminated
    after it.

    Fill counts are kept up to date, not recounted.  A vertex's count starts
    as its neighbor pairs less the edges among its neighbors, each edge
    (a, b) counted once at every common neighbor of a and b.  Eliminating v
    drops, at each neighbor u, the pairs (v, x) with x not adjacent to v;
    a fill edge (a, b) closes its pair at every common neighbor of a and b,
    and opens at a the pairs (b, x) with x not adjacent to b, and the same
    at b.  Each update is one set intersection, and Python intersects by
    walking the smaller set, so eliminating a leaf of a hub costs the leaf's
    degree, not the O(deg^2) recount of the hub's neighborhood.
    """
    if heuristic not in HEURISTICS:
        raise ValueError(f"unknown heuristic {heuristic!r}; expected one of {HEURISTICS}")
    fill = heuristic == "min_fill"
    n = graph.player_count
    live: dict[int, set[int]] = {
        v: set(graph.neighbors(v)) for v in range(n)
    }
    if fill:
        closed = [0] * n  # edges among each vertex's neighbors
        for a, b in graph.edges:
            for w in live[a] & live[b]:
                closed[w] += 1
        scores = {v: len(nb) * (len(nb) - 1) // 2 - closed[v] for v, nb in live.items()}
    else:
        scores = {v: len(nb) for v, nb in live.items()}
    heap = [(s, v) for v, s in scores.items()]
    heapify(heap)

    order: list[int] = []
    bags: list[tuple[int, ...]] = []
    for _ in range(n):
        s, v = heappop(heap)
        while scores.get(v) != s:  # stale: v is eliminated or rescored
            s, v = heappop(heap)
        nbrs = live.pop(v)
        del scores[v]
        before = {u: scores[u] for u in nbrs}
        touched = set(nbrs)
        bags.append(tuple(sorted([v, *nbrs])))
        order.append(v)
        for u in nbrs:
            adj = live[u]
            adj.discard(v)
            if fill:
                scores[u] -= len(adj) - len(adj & nbrs)
        ordered = sorted(nbrs)
        for i, a in enumerate(ordered):
            adj_a = live[a]
            for b in ordered[i + 1 :]:
                if b not in adj_a:
                    adj_b = live[b]
                    if fill:
                        common = adj_a & adj_b
                        for w in common:
                            scores[w] -= 1
                        touched |= common
                        scores[a] += len(adj_a) - len(common)
                        scores[b] += len(adj_b) - len(common)
                    adj_a.add(b)
                    adj_b.add(a)
        for u in touched:
            s = scores[u] if fill else len(live[u])
            if s != before.get(u):
                scores[u] = s
                heappush(heap, (s, u))
    return order, bags


def elimination_tree(order: list[int], bags: list[tuple[int, ...]]) -> list[int | None]:
    """Each step's parent: the step of its first-eliminated later neighbor,
    None for a step with none, the last of its component.  A step's bag less
    its own vertex lies in its parent's bag, and every step comes after its
    children, so the steps in order are a postorder of this forest."""
    position = {v: i for i, v in enumerate(order)}
    return [
        min((position[u] for u in bag if u != v), default=None)
        for v, bag in zip(order, bags)
    ]


def nice_from_elimination(
    order: list[int], bags: list[tuple[int, ...]]
) -> NiceTreeDecomposition:
    """The nice form of an elimination's decomposition, rooted at the last
    eliminated vertex; as wide as `bags`.

    `decomposition._nice_from_skeleton` on `elimination_tree`, with the
    steps in order as the postorder: each vertex is forgotten right above
    the join, in elimination order, of its children's subtrees, and the
    components' tops are joined at empty bags.  Nothing is validated or
    re-derived.

    The root matters.  A bag vertex's forgotten-neighbor count stays in
    every DP state until the vertex is forgotten.  Rooted at the first
    eliminated vertex, a leaf of the elimination tree, as `to_nice` roots a
    min-fill decomposition by default, the vertices on its path up are
    forgotten late and their counts multiply the join tables.  On the five
    `bounded_tw` games of the benchmark's sparse-tw workload, USW takes
    57,562 table entries and 150,584 join pairs rooted here, against 86,994
    and 191,256 rooted there, at the same width.
    """
    return _nice_from_skeleton(bags, elimination_tree(order, bags), range(len(bags)))
