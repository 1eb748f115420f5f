"""The benchmark's three workloads, built from the workload seed.

Every instance is a `bnpg` Game plus the name of the independent check
its answers get (see `checks.py`).  In forest and small-dense, instance i
of a run with seed s uses generator seed `100 * s + i` (small-dense: the
candidates from `100 * s` on), so one seed fixes every input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from bnpg.critical_clique import build_cc_graph, is_forest
from bnpg.decomposition import heuristic_decomposition
from bnpg.game import Game, Graph
from bnpg.instance_io import GameSpec, gen_random_game

import checks

# sparse-tw is the same set of games for every seed.  At fixed size the
# treewidth DP's cost moves with the draw: across generator seeds, USW on
# bounded_tw n=40 with hubs of degree 20-28 took 0.07-1.8 s, and with the
# graph fixed, PSNE and ESW still moved by up to 2x with the payoffs.  Seeded
# draws put the spread of psne_s and esw_s over five seeds at 17-19%.
# bounded_tw games: (players, generator seed, g mode, cost mode), with hubs
# of degree 24-28.
SPARSE_TW_CYCLE = GameSpec("cycle", n=300, seed=100)
SPARSE_TW_BOUNDED = (
    (40, 7, "monotone", "random"),
    (40, 8, "monotone", "unit"),
    (40, 19, "arbitrary", "random"),
    (40, 24, "monotone", "zero"),
    (60, 6, "monotone", "random"),
)


@dataclass(frozen=True)
class Instance:
    name: str
    game: Game
    make: str  # family, size, seed and payoff modes, for the README table
    check: str  # "forest" | "cycle" | "optimum" | "exhaustive"
    flags: tuple[str, ...] = ()  # extra `bnpg` arguments after --machine


def _star(leaves: int, seed: int) -> Game:
    """A star, which no generator family makes, with payoffs drawn the way
    `gen_random_game` draws them for g=monotone, cost=random."""
    graph = Graph.from_edges(leaves + 1, [(0, leaf) for leaf in range(1, leaves + 1)])
    rng = random.Random(seed)
    tables = []
    for v in range(graph.player_count):
        row, value = [], Fraction(0)
        for _ in range(graph.degree(v) + 2):
            value += Fraction(rng.randint(0, 3), rng.choice((1, 1, 2, 4)))
            row.append(value)
        tables.append(tuple(row))
    costs = [Fraction(rng.randint(0, 6), rng.choice((1, 2, 3))) for _ in tables]
    return Game(graph, tuple(tables), tuple(costs))


def _spec_make(spec: GameSpec, game: Game) -> str:
    size = f"n={game.player_count}"
    if spec.family == "twin_tree":
        size += f" ({len(spec.multiplicities)} blocks)"
    if spec.family == "gnp":
        size += f" p={spec.p}"
    return f"{spec.family} {size} seed={spec.seed} g={spec.g_mode} cost={spec.cost_mode}"


def _generated(name: str, spec: GameSpec, check: str) -> Instance:
    game = gen_random_game(spec)
    return Instance(name, game, _spec_make(spec, game), check)


def forest(seed: int) -> list[Instance]:
    """Large sparse games whose critical-clique graph is a forest."""
    base = 100 * seed
    out = [
        _generated("caterpillar-a", GameSpec("caterpillar", n=600, seed=base), "forest"),
        _generated(
            "caterpillar-b",
            GameSpec("caterpillar", n=600, seed=base + 1, g_mode="arbitrary", cost_mode="unit"),
            "forest",
        ),
        _generated("tree-a", GameSpec("tree", n=600, seed=base + 2, cost_mode="zero"), "forest"),
        _generated(
            "tree-b", GameSpec("tree", n=600, seed=base + 3, g_mode="arbitrary"), "forest"
        ),
    ]
    blocks = random.Random(base + 4)
    twin = GameSpec(
        "twin_tree",
        seed=base + 4,
        multiplicities=tuple(blocks.randint(1, 3) for _ in range(120)),
    )
    out.append(_generated("twin-tree", twin, "forest"))
    star = _star(200, base + 5)
    make = f"star n=201 (200 leaves), payoffs seed={base + 5} g=monotone cost=random"
    out.append(Instance("star", star, make, "forest"))
    return out


def sparse_tw(seed: int) -> list[Instance]:
    """Games that are not forests and have min-fill width 2 (seed unused)."""
    out = [_generated("cycle", SPARSE_TW_CYCLE, "cycle")]
    for i, (n, graph_seed, g_mode, cost_mode) in enumerate(SPARSE_TW_BOUNDED, start=1):
        spec = GameSpec("bounded_tw", n=n, width=2, seed=graph_seed, g_mode=g_mode, cost_mode=cost_mode)
        out.append(_generated(f"bounded-tw-{i}", spec, "optimum"))
    return out


def small_dense(seed: int) -> list[Instance]:
    """gnp games of 12-13 players that `auto` sends to brute force.

    Kept only when min-fill width is at least 9 (so `auto` skips the
    treewidth DP), the critical-clique graph is not a forest, and the game
    has no PSNE.  `first_psne` stops at the first equilibrium in bitmask
    order, and on games that have one its position ranged from 0% to 94%
    of the sweep, so the oracle's share of psne_s would follow the draw.
    Without one, every question enumerates all 2^n profiles.
    """
    out: list[Instance] = []
    candidate = 100 * seed
    for n in (12, 12, 12, 13, 13, 13):
        while True:
            spec = GameSpec("gnp", n=n, p=0.8, seed=candidate, g_mode="arbitrary")
            candidate += 1
            game = gen_random_game(spec)
            if is_forest(build_cc_graph(game.graph)):
                continue
            if heuristic_decomposition(game.graph, "min_fill").width() < 9:
                continue
            if checks.Scaled(game).has_psne():
                continue
            out.append(Instance(f"gnp-{len(out)}", game, _spec_make(spec, game), "exhaustive"))
            break
    return out


def companions() -> list[Instance]:
    """Three small games, one per solver family, added to every workload so
    that every layer runs, and every per-layer time is measured, on each."""
    tree = GameSpec("tree", n=12, seed=7)
    cycle = GameSpec("cycle", n=12, seed=7)
    brute = GameSpec("cycle", n=8, seed=7)  # width 2 > --width-cap 1: brute
    return [
        _generated("companion-tree", tree, "exhaustive"),
        _generated("companion-cycle", cycle, "exhaustive"),
        Instance(
            "companion-brute",
            gen_random_game(brute),
            _spec_make(brute, gen_random_game(brute)) + " --width-cap 1",
            "exhaustive",
            ("--width-cap", "1"),
        ),
    ]


BUILDERS = {"forest": forest, "sparse-tw": sparse_tw, "small-dense": small_dense}


def build(workload: str, seed: int) -> list[Instance]:
    return BUILDERS[workload](seed) + companions()
