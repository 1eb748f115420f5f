"""Hardness-style reductions from classic graph problems to BNPG questions.

Three constructions, each emitting a game plus the bookkeeping needed to read
answers back:

* 3-regular induced subgraph  ->  existence of a PSNE with investors,
* kappa-clique                ->  utilitarian welfare threshold (USW >= q),
* red-blue dominating set     ->  egalitarian welfare threshold (ESW >= 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .game import Game, Graph

WitnessKey = tuple  # ("vertex", u) | ("edge", (u, v)) | ("special",)


@dataclass(frozen=True)
class ReductionOutput:
    """A constructed game, its decision threshold (if any), and the injective
    map from source objects to player indices."""

    game: Game
    threshold: Fraction | None
    witness_map: dict[WitnessKey, int] = field(compare=False)


def reduce_3ris(graph: Graph) -> ReductionOutput:
    """Fully homogeneous game on the input graph whose nonempty equilibria
    are exactly the vertex sets inducing 3-regular subgraphs.

    Every player pays cost 2 and sees externality k for k <= 3 investors in
    its closed neighborhood, k + 1 beyond.  An investor is stable iff exactly
    three of its neighbors invest; a non-investor is always stable.
    """
    tables = []
    for v in range(graph.player_count):
        top = graph.degree(v) + 1
        tables.append(
            tuple(Fraction(k) if k <= 3 else Fraction(k + 1) for k in range(top + 1))
        )
    game = Game(
        graph,
        tuple(tables),
        tuple(Fraction(2) for _ in range(graph.player_count)),
    )
    witness = {("vertex", v): v for v in range(graph.player_count)}
    return ReductionOutput(game, None, witness)


def reduce_clique_to_uswc(graph: Graph, kappa: int) -> ReductionOutput:
    """Clique detection as a utilitarian-welfare threshold question.

    Players: one per source vertex (source order), one per source edge
    (lexicographic order), plus a collector adjacent to every edge-player.
    Edge-player uv is adjacent to u, v and the collector.  Payoffs:

    * vertex-player u: cost 1, externality 1 at exactly kappa investors and 0
      otherwise (all zeros when kappa > deg(u) + 1);
    * edge-player: cost 3, externality (0, 0, 0, 3, 0);
    * collector: cost 3m + 1, externality 3 at exactly kappa*(kappa-1)/2
      investors and 0 otherwise.

    Threshold: q = 3.  Max USW >= q iff the source graph has a kappa-clique.

    * A clique K reaches q: K's vertex- and edge-players invest.  Each of them
      nets 0 and the collector nets 3.
    * Every other positive payoff is paid for by at least as large a loss.
      With the collector investing, the total is at most 2.  With it
      abstaining, reaching 3 forces the investing edges to form a
      (kappa-1)-regular graph with kappa*(kappa-1)/2 edges on the investing
      vertices, and that graph is K_kappa.
    """
    if kappa < 2:
        raise ValueError("clique size must be >= 2")
    n = graph.player_count
    edge_list = sorted(graph.edges)
    m = len(edge_list)
    collector = n + m
    pick = kappa * (kappa - 1) // 2

    net_edges: list[tuple[int, int]] = []
    for i, (u, v) in enumerate(edge_list):
        e_player = n + i
        net_edges += [(u, e_player), (v, e_player), (e_player, collector)]
    network = Graph.from_edges(n + m + 1, net_edges)

    def paid_at(player: int, count: int, prize: int) -> tuple[Fraction, ...]:
        width = network.degree(player) + 2
        return tuple(Fraction(prize if k == count else 0) for k in range(width))

    tables = [paid_at(u, kappa, 1) for u in range(n)]
    tables += [paid_at(n + i, 3, 3) for i in range(m)]
    tables.append(paid_at(collector, pick, 3))
    costs = [Fraction(1)] * n + [Fraction(3)] * m + [Fraction(3 * m + 1)]

    game = Game(network, tuple(tables), tuple(costs))
    witness: dict[WitnessKey, int] = {("vertex", u): u for u in range(n)}
    for i, e in enumerate(edge_list):
        witness[("edge", e)] = n + i
    witness[("special",)] = collector
    return ReductionOutput(game, Fraction(3), witness)


def reduce_rbds_to_eswc(
    graph: Graph,
    blue: Iterable[int],
    red: Iterable[int],
    kappa: int,
) -> ReductionOutput:
    """Red-blue domination as an egalitarian-welfare threshold question.

    The source bipartite graph is kept (original vertex indices), plus a
    watchdog adjacent to every blue vertex.  Red vertices need an investing
    neighbor to reach utility 1; blue vertices reach 1 whether or not they
    invest (externality 1, 2, 0, 0, ...); the watchdog tolerates at most
    kappa investors among the blues.  Threshold: ESW >= 1 iff at most kappa
    blues can dominate all reds.
    """
    if kappa < 1:
        raise ValueError("domination budget must be >= 1")
    blues = sorted(set(blue))
    reds = sorted(set(red))
    n = graph.player_count
    if sorted(blues + reds) != list(range(n)):
        raise ValueError("blue and red must partition the vertex set")
    blue_set = set(blues)
    for u, v in graph.edges:
        if (u in blue_set) == (v in blue_set):
            raise ValueError(f"edge ({u}, {v}) does not cross the bipartition")

    watchdog = n
    network = Graph.from_edges(
        n + 1, list(graph.edges) + [(b, watchdog) for b in blues]
    )

    tables: list[tuple[Fraction, ...]] = [()] * (n + 1)
    costs = [Fraction(1)] * (n + 1)
    for r in reds:
        width = network.degree(r) + 2
        tables[r] = (Fraction(0),) + (Fraction(1),) * (width - 1)
    for b in blues:
        width = network.degree(b) + 2
        tables[b] = (Fraction(1), Fraction(2)) + (Fraction(0),) * (width - 2)
    width = network.degree(watchdog) + 2
    tables[watchdog] = tuple(
        Fraction(1) if k <= kappa else Fraction(0) for k in range(width)
    )

    game = Game(network, tuple(tables), tuple(costs))
    witness: dict[WitnessKey, int] = {("vertex", v): v for v in range(n)}
    witness[("special",)] = watchdog
    return ReductionOutput(game, Fraction(1), witness)
