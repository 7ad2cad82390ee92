"""HiGHS, run directly through the binding scipy bundles.

scmap needs one thing from scipy: the HiGHS extension it ships as
`scipy.optimize._highspy._core`. Importing that by name runs
`scipy.optimize/__init__`, which loads hundreds of modules scmap never calls
(numpy.f2py among them) and takes most of a start-up. So the extension is
loaded from its file in scipy's install, found without importing scipy, and
registered under its own name: a later `import scipy.optimize` in the same
process reuses it rather than initialising the binding a second time.

The file is found at import, so a scipy without it fails the import, but
the binding is loaded only by the first program a process solves
(`_binding`, once): a solve whose relaxations are all in closed form and
whose plan needs no integer program never loads it, and saves about 3 MB
of peak memory and 5-9 ms. Where `scipy.optimize` was imported before
that first program, its module is taken as it is.

Each program goes to HiGHS as one `HighsLp`: columns with their bounds and
costs, and rows as row_lower <= Ax <= row_upper (a <= row has no lower side,
a >= row no upper side, an = row both at its rhs). scipy's `linprog` and
`milp` make the same call after input checks and conversions that this
module has no use for, since `LinearProgram` checks its input as it is built.
The rows of an LP go in the order linprog stacks them (inequalities, then
equalities) and those of a MIP in program order, as milp passes them, so
each solve returns the point and duals scipy's wrapper would.

Duals are HiGHS's row duals, d objective / d rhs under minimization: <= rows
carry nonpositive multipliers, >= rows nonnegative, equalities free, so at an
optimum the dual objective y'b plus the bound terms of the reduced costs
c - A'y equals the primal objective (strong duality).
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import sys
from pathlib import Path
from types import ModuleType
from typing import NamedTuple

import numpy as np

from .model import EQ, GE, LE, LinearProgram, LpSolution, MipSolution

_CORE = "scipy.optimize._highspy._core"
_MISSING = f"scmap.simplexkit.highs needs scipy>=1.17, whose bundled HiGHS binding is {_CORE}"


def _find_core():
    """The spec of scipy's HiGHS binding, from its file in scipy's install,
    found without importing scipy or loading the binding."""
    scipy = importlib.util.find_spec("scipy")  # finds, imports nothing
    roots = scipy.submodule_search_locations if scipy else None
    found = [
        path
        for root in roots or ()
        for suffix in importlib.machinery.EXTENSION_SUFFIXES
        if (path := Path(root, "optimize", "_highspy", f"_core{suffix}")).is_file()
    ]
    if not found:  # the private binding moved or is missing
        raise ImportError(_MISSING)
    loader = importlib.machinery.ExtensionFileLoader(_CORE, str(found[0]))
    return importlib.util.spec_from_file_location(_CORE, found[0], loader=loader)


_SPEC = _find_core()

# linprog's feasibility check of an "optimal" point: sqrt(tol) * 10 at its
# default tol of 1e-9
RESULT_TOL = np.sqrt(1e-9) * 10

# milp's options (no output), and no feasibility-jump heuristic: on the
# selection programs it costs 8-12 ms a run and its incumbent was never the
# one kept
_MIP_OPTIONS = (
    ("output_flag", False),
    ("mip_heuristic_run_feasibility_jump", False),
)


class _Binding(NamedTuple):
    core: ModuleType
    status: type  # HighsModelStatus
    # HiGHS model status -> the status a failed run reports, as scipy maps
    # them (`_highs_to_scipy_status_message`); any other status reads "stalled"
    failed: dict
    # statuses after which a MIP still holds an incumbent, if it found one
    mip_stopped: tuple
    # the options linprog sets: presolve on, dual simplex, no output
    lp_options: tuple


@functools.cache
def _binding() -> _Binding:
    """scipy's HiGHS binding, loaded by the first program a process solves:
    the module `scipy.optimize` loaded where it has been imported, else the
    one `_SPEC` finds, registered under its own name."""
    if _CORE in sys.modules or "scipy.optimize" in sys.modules:
        core = importlib.import_module(_CORE)
    else:
        core = importlib.util.module_from_spec(_SPEC)
        sys.modules[_CORE] = core
        _SPEC.loader.exec_module(core)
    status = core.HighsModelStatus
    return _Binding(
        core=core,
        status=status,
        failed={
            status.kInfeasible: "infeasible",
            status.kModelError: "infeasible",
            status.kUnbounded: "unbounded",
        },
        mip_stopped=(status.kTimeLimit, status.kIterationLimit, status.kSolutionLimit),
        lp_options=(
            ("output_flag", False),
            ("presolve", "on"),
            ("simplex_strategy",
             int(core.simplex_constants.SimplexStrategy.kSimplexStrategyDual)),
        ),
    )


def _highs_lp(lp: LinearProgram, order: np.ndarray, integer: bool) -> tuple:
    """`lp` as one HighsLp whose row i is program row `order[i]`, with its
    row bounds, in HiGHS's row order, as a (2, m) array; duplicate entries
    of a row are summed in the order they were added."""
    n, m = lp.n_vars, lp.n_rows
    row_bounds = np.array([lp.rhs, lp.rhs])
    row_bounds[0, lp.relation == LE] = -np.inf
    row_bounds[1, lp.relation == GE] = np.inf
    row_bounds = row_bounds[:, order]

    position = np.empty(m, dtype=np.int64)
    position[order] = np.arange(m)
    rows, cols, vals = lp.entries
    rows = position[rows]
    # column-wise, rows ascending within a column, duplicates summed
    key = cols * m + rows
    entry = np.argsort(key, kind="stable")
    first = np.flatnonzero(np.diff(key[entry], prepend=-1))
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols[entry[first]], minlength=n), out=start[1:])

    # as lists: the binding converts a numpy array element by element, about
    # four times slower
    core = _binding().core
    out = core.HighsLp()
    out.num_col_ = out.a_matrix_.num_col_ = n
    out.num_row_ = out.a_matrix_.num_row_ = m
    out.a_matrix_.format_ = core.MatrixFormat.kColwise
    out.a_matrix_.start_ = start.tolist()
    out.a_matrix_.index_ = rows[entry[first]].tolist()
    out.a_matrix_.value_ = np.add.reduceat(vals[entry], first).tolist()
    out.col_cost_ = lp.obj.tolist()
    out.col_lower_ = lp.lb.tolist()
    out.col_upper_ = lp.ub.tolist()
    out.row_lower_ = row_bounds[0].tolist()
    out.row_upper_ = row_bounds[1].tolist()
    if integer:
        kind = (core.HighsVarType.kContinuous, core.HighsVarType.kInteger)
        out.integrality_ = [kind[v] for v in lp.integer.tolist()]
    return out, row_bounds


def _run(model, options: tuple):
    """A fresh HiGHS instance that has run on the HighsLp `model` under
    `options`."""
    solver = _binding().core._Highs()
    for name, value in options:
        solver.setOptionValue(name, value)
    solver.passModel(model)
    solver.run()
    return solver


# The calls every LP and every MIP run passes through, named after the scipy
# wrappers they replace; a tracer wraps them by module attribute.
linprog = _run
milp = _run


def _fails_check(x: np.ndarray, fun: float, activity: np.ndarray, lp, row_bounds) -> bool:
    """linprog's check of an "optimal" point: any NaN, or a bound or row
    missed by more than RESULT_TOL."""
    if np.isnan(x).any() or np.isnan(fun) or np.isnan(activity).any():
        return True
    return bool(
        (x < lp.lb - RESULT_TOL).any()
        or (x > lp.ub + RESULT_TOL).any()
        or (activity - row_bounds[0] < -RESULT_TOL).any()
        or (row_bounds[1] - activity < -RESULT_TOL).any()
    )


def solve_lp(lp: LinearProgram) -> LpSolution:
    # linprog's row order: inequality rows, then equalities, each in program
    # order; in another order HiGHS may return another of several optimal
    # points or dual solutions
    highs = _binding()
    order = np.argsort(lp.relation == EQ, kind="stable")
    model, row_bounds = _highs_lp(lp, order, integer=False)
    solver = linprog(model, highs.lp_options)
    status = solver.getModelStatus()
    message = solver.modelStatusToString(status)
    if status != highs.status.kOptimal:
        return LpSolution(status=highs.failed.get(status, "stalled"), message=message)
    info = solver.getInfo()
    solution = solver.getSolution()
    x = np.array(solution.col_value)
    activity = np.array(solution.row_value)
    if _fails_check(x, info.objective_function_value, activity, lp, row_bounds):
        return LpSolution(
            status="stalled",
            message=f"{message}, but a bound or row is missed by more than {RESULT_TOL:.2e}",
        )
    duals = np.empty(lp.n_rows)
    duals[order] = solution.row_dual
    return LpSolution(
        status="optimal",
        x=x.tolist(),
        objective=float(info.objective_function_value),
        duals=duals.tolist(),
        message=message,
        iterations=int(info.simplex_iteration_count),
    )


def solve_mip(lp: LinearProgram, time_limit: float | None = None) -> MipSolution:
    highs = _binding()
    integer = bool(lp.integer.any())
    model, _ = _highs_lp(lp, np.arange(lp.n_rows), integer)
    options = _MIP_OPTIONS
    if time_limit is not None:
        options += (("time_limit", float(time_limit)),)
    solver = milp(model, options)
    status = solver.getModelStatus()
    message = solver.modelStatusToString(status)
    info = solver.getInfo()
    objective = float(info.objective_function_value)
    if status != highs.status.kOptimal and not (
        integer and status in highs.mip_stopped and objective != np.inf
    ):
        return MipSolution(status=highs.failed.get(status, "stalled"), message=message)
    bound = float(info.mip_dual_bound) if integer else objective
    gap = (objective - bound) / max(1.0, abs(objective))
    return MipSolution(
        status="optimal" if status == highs.status.kOptimal else "feasible",
        x=solver.getSolution().col_value,
        objective=objective,
        bound=bound,
        gap=max(gap, 0.0),
        nodes=int(info.mip_node_count) if integer else 0,
        message=message,
    )
