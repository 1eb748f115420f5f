"""Exact solvers for binary networked public goods games.

Pure-strategy Nash equilibria and maximum utilitarian/egalitarian welfare,
computed exactly (rational arithmetic) by brute force, by dynamic programming
over forests of critical cliques, or by dynamic programming over nice tree
decompositions.  `solve` is the entry point; it picks the solver with `auto`.
"""

from .game import (
    Game,
    Graph,
    Profile,
    deviation_gain,
    esw,
    is_psne,
    is_stable,
    payoff,
    payoff_levels,
    usw,
)
from .report import SolveReport, SolveStatus
from .solver import solve

__all__ = [
    "Game",
    "Graph",
    "Profile",
    "SolveReport",
    "SolveStatus",
    "deviation_gain",
    "esw",
    "is_psne",
    "is_stable",
    "payoff",
    "payoff_levels",
    "solve",
    "usw",
]
