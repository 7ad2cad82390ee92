"""LP/MILP program container and its one solver, HiGHS via scipy.optimize.

Inside the package the solver is called as `highs.solve_lp(lp)` and
`highs.solve_mip(lp, time_limit)`, looked up on the module at call time, so
a wrapper set on those attributes (perfbench's traced run) sees every solve.
"""

from __future__ import annotations

from . import highs
from .highs import solve_lp, solve_mip
from .model import (
    EQ,
    GE,
    LE,
    LinearProgram,
    LpError,
    LpSolution,
    MipSolution,
    Row,
    Variable,
)
