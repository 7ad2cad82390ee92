"""HiGHS-backed solver via scipy.optimize.

Duals follow the minimization convention used throughout: <= rows carry
nonpositive multipliers, >= rows nonnegative, equalities free. Reduced costs
are recomputed as c - A'y from the returned row duals, so at an optimum the
dual objective y'b plus the bound terms of the reduced costs equals the
primal objective (strong duality).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from .model import EQ, GE, LE, LinearProgram, LpSolution, MipSolution

_LP_STATUS = {0: "optimal", 1: "stalled", 2: "infeasible", 3: "unbounded", 4: "stalled"}


def _csr(lp: LinearProgram) -> sp.csr_matrix:
    """The constraint matrix, one row per program row."""
    counts = [len(r.coeffs) for r in lp.rows]
    indptr = np.zeros(lp.n_rows + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(counts)
    nnz = int(indptr[-1])
    cols = np.fromiter((j for r in lp.rows for j, _ in r.coeffs), dtype=np.int64, count=nnz)
    vals = np.fromiter((a for r in lp.rows for _, a in r.coeffs), dtype=float, count=nnz)
    mat = sp.csr_matrix((vals, cols, indptr), shape=(lp.n_rows, lp.n_vars))
    mat.sum_duplicates()
    return mat


def _matrices(lp: LinearProgram):
    """Split rows into A_ub (>= rows negated) and A_eq, remembering the
    program row and sign behind each."""
    mat = _csr(lp)
    rhs = np.array([r.rhs for r in lp.rows], dtype=float)
    eq = np.array([r.relation == EQ for r in lp.rows], dtype=bool)
    sign = np.array([-1.0 if r.relation == GE else 1.0 for r in lp.rows])
    ub_rows, eq_rows = np.flatnonzero(~eq), np.flatnonzero(eq)
    ub_sign = sign[ub_rows]
    A_ub = sp.diags(ub_sign) @ mat[ub_rows]
    b_ub = ub_sign * rhs[ub_rows]
    return (ub_rows, ub_sign, A_ub, b_ub), (eq_rows, mat[eq_rows], rhs[eq_rows])


def solve_lp(lp: LinearProgram) -> LpSolution:
    c = np.array([v.obj for v in lp.variables], dtype=float)
    bounds = np.array([(v.lb, v.ub) for v in lp.variables], dtype=float).reshape(-1, 2)
    (ub_rows, ub_sign, A_ub, b_ub), (eq_rows, A_eq, b_eq) = _matrices(lp)
    res = linprog(
        c,
        A_ub=A_ub if len(ub_rows) else None,
        b_ub=b_ub if len(ub_rows) else None,
        A_eq=A_eq if len(eq_rows) else None,
        b_eq=b_eq if len(eq_rows) else None,
        bounds=bounds,
        method="highs",
    )
    status = _LP_STATUS.get(res.status, "stalled")
    if status != "optimal":
        return LpSolution(status=status, message=str(res.message))
    duals = np.zeros(lp.n_rows)
    if len(ub_rows):
        # marginal is d obj / d rhs of the *signed* row; undo the sign
        duals[ub_rows] = res.ineqlin.marginals * ub_sign
    if len(eq_rows):
        duals[eq_rows] = res.eqlin.marginals
    return LpSolution(
        status="optimal",
        x=res.x.tolist(),
        objective=float(res.fun),
        duals=duals.tolist(),
    )


_MIP_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def solve_mip(lp: LinearProgram, time_limit: float | None = None) -> MipSolution:
    c = np.array([v.obj for v in lp.variables], dtype=float)
    lo = np.array([-np.inf if r.relation == LE else r.rhs for r in lp.rows], dtype=float)
    hi = np.array([np.inf if r.relation == GE else r.rhs for r in lp.rows], dtype=float)
    A = _csr(lp)
    integrality = np.array([1 if v.integer else 0 for v in lp.variables])
    options = {"disp": False}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    res = milp(
        c,
        constraints=LinearConstraint(A, lo, hi),
        integrality=integrality,
        bounds=Bounds(
            np.array([v.lb for v in lp.variables], dtype=float),
            np.array([v.ub for v in lp.variables], dtype=float),
        ),
        options=options,
    )
    if res.status in _MIP_STATUS and res.status != 0:
        return MipSolution(status=_MIP_STATUS[res.status], message=str(res.message))
    if res.x is None:
        return MipSolution(status="stalled", message=str(res.message))
    objective = float(res.fun)
    bound = float(res.mip_dual_bound) if res.mip_dual_bound is not None else objective
    gap = (objective - bound) / max(1.0, abs(objective))
    status = "optimal" if res.status == 0 else "feasible"
    return MipSolution(
        status=status,
        x=list(map(float, res.x)),
        objective=objective,
        bound=bound,
        gap=max(gap, 0.0),
        nodes=int(res.mip_node_count or 0),
        message=str(res.message),
    )
