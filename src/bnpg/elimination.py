"""Greedy elimination orders, and the nice decomposition built from one.

`elimination_order` is the min-fill / min-degree loop behind
`decomposition.heuristic_decomposition`.  `nice_from_elimination` turns its
order and bags into nice form in one pass: the treewidth solvers take that
path when no decomposition is given.  Neither is needed to import
`bnpg.cli`, so this module is imported where it is used.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .decomposition import HEURISTICS, NiceTreeDecomposition
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
    """
    if heuristic not in HEURISTICS:
        raise ValueError(f"unknown heuristic {heuristic!r}; expected one of {HEURISTICS}")
    n = graph.player_count
    live: dict[int, set[int]] = {
        v: set(graph.neighbors(v)) for v in range(n)
    }

    def fill_score(v: int) -> int:
        nbrs = sorted(live[v])
        missing = 0
        for i, a in enumerate(nbrs):
            adj_a = live[a]
            for b in nbrs[i + 1 :]:
                if b not in adj_a:
                    missing += 1
        return missing

    def degree(v: int) -> int:
        return len(live[v])

    score = fill_score if heuristic == "min_fill" else degree
    scores = {v: score(v) for v in live}
    heap = [(s, v) for v, s in scores.items()]
    heapify(heap)

    order: list[int] = []
    bags: list[tuple[int, ...]] = []
    for _ in range(n):
        s, v = heappop(heap)
        while scores.get(v) != s:  # stale: v is eliminated or rescored
            s, v = heappop(heap)
        nbrs = sorted(live[v])
        bags.append(tuple(sorted([v] + nbrs)))
        order.append(v)
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
            s = score(u)
            if s != scores[u]:
                scores[u] = s
                heappush(heap, (s, u))
    return order, bags


def nice_from_elimination(
    order: list[int], bags: list[tuple[int, ...]]
) -> NiceTreeDecomposition:
    """The nice form of an elimination's decomposition, in one pass and
    rooted at the last eliminated vertex; as wide as `bags`.

    In elimination order, vertex v gets one forget node.  Below it is the
    join, in elimination order, of the subtrees of the vertices whose first
    later neighbor is v, each topped by introduces, in sorted order, of the
    vertices of v's bag it lacks; a vertex with no such subtree starts from
    a leaf and introduces its whole bag.  The tops of separate components
    are joined at empty bags.  Each node is made knowing its kind, so the
    result takes `NiceTreeDecomposition._trusted`, with no validation or
    re-derivation; it equals what `__init__` derives from the same bags
    and parents.  For why the root matters, see `to_nice`.
    """
    position = {v: i for i, v in enumerate(order)}
    nice_bags: list[tuple[int, ...]] = []
    parent: list[int | None] = []
    kinds: list[str] = []
    children: list[tuple[int, ...]] = []
    distinguished: list[int | None] = []

    def add(bag: tuple[int, ...], kind: str, below: tuple[int, ...] = (), vertex=None) -> int:
        idx = len(nice_bags)
        nice_bags.append(bag)
        parent.append(None)
        kinds.append(kind)
        children.append(below)
        distinguished.append(vertex)
        for c in below:
            parent[c] = idx
        return idx

    subtrees: list[list[int]] = [[] for _ in order]  # step -> child forget nodes
    tops: list[int] = []  # forget nodes of the components' last vertices
    for i, v in enumerate(order):
        bag = bags[i]
        shaped = []
        for node in subtrees[i]:
            have = set(nice_bags[node])
            for x in bag:
                if x not in have:
                    have.add(x)
                    node = add(tuple(y for y in bag if y in have), "introduce", (node,), x)
            shaped.append(node)
        if shaped:
            node = shaped[0]
            for other in shaped[1:]:
                node = add(bag, "join", (min(node, other), max(node, other)))
        else:
            node = add((), "leaf")
            for k, x in enumerate(bag):
                node = add(bag[: k + 1], "introduce", (node,), x)
        rest = tuple(x for x in bag if x != v)
        node = add(rest, "forget", (node,), v)
        if rest:
            subtrees[min(position[x] for x in rest)].append(node)
        else:
            tops.append(node)
    if not tops:
        root = add((), "leaf")
    else:
        root = tops[0]
        for other in tops[1:]:
            root = add((), "join", (min(root, other), max(root, other)))
    return NiceTreeDecomposition._trusted(
        tuple(nice_bags),
        tuple(parent),
        root,
        tuple(kinds),
        tuple(children),
        tuple(distinguished),
    )
