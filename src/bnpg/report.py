"""Solver result envelope shared by every solve_* entry point."""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import NamedTuple

from .game import Profile


class SolveStatus(enum.Enum):
    SOLVED = "solved"
    NO_PSNE = "no_psne"
    NOT_APPLICABLE = "not_applicable"


class SolveReport(NamedTuple):
    """Outcome of a solver run.

    For welfare solvers `value` is the optimal welfare; for equilibrium
    solvers it is None.  `table_entries` counts materialized DP keys (0 for
    enumeration), `elapsed` is wall-clock seconds, and `detail` explains a
    NOT_APPLICABLE or NO_PSNE outcome.
    """

    status: SolveStatus
    algorithm: str
    profile: Profile | None = None
    value: Fraction | None = None
    elapsed: float = 0.0
    table_entries: int = 0
    detail: str = ""

    @property
    def solved(self) -> bool:
        return self.status is SolveStatus.SOLVED
