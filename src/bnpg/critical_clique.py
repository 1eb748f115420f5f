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
    """Partition players by closed neighborhood and contract.

    Classes are found by grouping on the frozen closed-neighbor set itself
    (full equality, no hash-collision risk), so the partition is exact.
    """
    classes: dict[frozenset[int], list[int]] = {}
    for v in range(graph.player_count):
        classes.setdefault(graph.closed_neighbors(v), []).append(v)
    cliques = tuple(sorted((tuple(sorted(c)) for c in classes.values())))
    clique_of = [0] * graph.player_count
    for idx, members in enumerate(cliques):
        for v in members:
            clique_of[v] = idx
    cc_edges = set()
    for idx, members in enumerate(cliques):
        rep = members[0]
        for w in graph.neighbors(rep):
            j = clique_of[w]
            if j != idx:
                cc_edges.add((idx, j) if idx < j else (j, idx))
    return CriticalCliqueGraph(graph, cliques, tuple(clique_of), frozenset(cc_edges))


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
