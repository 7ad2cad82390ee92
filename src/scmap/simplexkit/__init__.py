"""LP/MILP program container and its one solver, HiGHS through the binding
scipy bundles, loaded from its file without importing `scipy.optimize`.

The solver is called as `highs.solve_lp(lp)` and `highs.solve_mip(lp,
time_limit)`, looked up on the module at call time, so a wrapper set on
those attributes (perfbench's traced run) sees every solve. The package
re-exports neither function: a caller holding its own reference would
bypass such a wrapper.
"""

from __future__ import annotations

from . import highs
from .model import EQ, LE, LinearProgram, LpSolution, MipSolution
