"""Critical cliques: maximal sets of mutual closed-neighborhood twins.

Two players are closed twins when N[u] = N[v]; the equivalence classes are
cliques, and contracting each class yields the critical clique graph.  When
that graph is a forest the dynamic programs in `ccforest` apply.
"""

from __future__ import annotations

from typing import NamedTuple

from .game import Graph, root_walk


class CriticalCliqueGraph(NamedTuple):
    """The source graph plus its partition into critical cliques.

    Cliques are indexed by their minimum member; `edges` holds the contracted
    adjacency (every member of one endpoint clique is adjacent to every member
    of the other — a twin-class property, asserted in tests, not recomputed).
    """

    graph: Graph
    cliques: tuple[tuple[int, ...], ...]
    clique_of: tuple[int, ...]
    edges: frozenset[tuple[int, int]]


def build_cc_graph(graph: Graph) -> CriticalCliqueGraph:
    """Partition players by closed neighborhood and contract, in O(n + m).

    Twins share a fingerprint, (degree, closed-neighbor sum), and only
    players that share one are grouped on their frozen closed-neighbor set
    (full equality, no hash-collision risk).  With no twins, the clique
    graph is the graph itself."""
    n = graph.player_count
    buckets: dict[int, list[int]] = {}
    for v in range(n):
        nbrs = graph.neighbors(v)
        buckets.setdefault((sum(nbrs) + v) * n + len(nbrs), []).append(v)
    classes: dict = {}  # keyed by a player alone in its bucket, or by a closed neighborhood
    for bucket in buckets.values():
        for v in bucket:
            classes.setdefault(graph.closed_neighbors(v) if len(bucket) > 1 else v, []).append(v)
    if len(classes) == n:
        return CriticalCliqueGraph(graph, tuple((v,) for v in range(n)), tuple(range(n)), graph.edges)
    cliques = tuple(sorted(map(tuple, classes.values())))  # each class ascends
    clique_of = [0] * n
    for idx, members in enumerate(cliques):
        for v in members:
            clique_of[v] = idx
    # each clique edge is seen from both ends' first members: keep it once
    seen = ((i, clique_of[w]) for i, members in enumerate(cliques) for w in graph.neighbors(members[0]))
    cc_edges = frozenset((i, j) for i, j in seen if i < j)
    return CriticalCliqueGraph(graph, cliques, tuple(clique_of), cc_edges)


class RootedForest(NamedTuple):
    """A rooting of the critical clique forest.

    One root per component (the lowest clique index); children are in
    ascending index order; `postorder` lists every clique with children
    before parents.
    """

    roots: tuple[int, ...]
    parent: tuple[int | None, ...]
    children: tuple[tuple[int, ...], ...]
    postorder: tuple[int, ...]


def rooted_forest(cc: CriticalCliqueGraph) -> RootedForest:
    """Root each tree of the clique forest at its lowest clique index.

    Raises ValueError when the clique graph is not a forest: when it has
    more edges than its cliques less one per tree `root_walk` grows.
    """
    t = len(cc.cliques)
    parent, order = root_walk(t, sorted(cc.edges), range(t))
    roots = tuple(k for k in order if parent[k] is None)
    if len(cc.edges) != t - len(roots):
        raise ValueError("critical clique graph is not a forest")
    children: list[list[int]] = [[] for _ in range(t)]
    for k, up in enumerate(parent):
        if up is not None:
            children[up].append(k)
    return RootedForest(
        roots,
        tuple(parent),
        tuple(tuple(c) for c in children),
        tuple(reversed(order)),
    )


def is_forest(cc: CriticalCliqueGraph) -> bool:
    """True iff the contracted graph is acyclic: iff `rooted_forest` roots it."""
    try:
        rooted_forest(cc)
    except ValueError:
        return False
    return True
