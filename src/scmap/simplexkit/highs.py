"""HiGHS-backed solver via scipy.optimize.

Duals follow the minimization convention used throughout: <= rows carry
nonpositive multipliers, >= rows nonnegative, equalities free. Reduced costs
are recomputed as c - A'y from the returned row duals so the duality-gap
identity (`model.dual_objective`) can be asserted on every solve.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from .model import EQ, GE, LE, LinearProgram, LpError, LpSolution, MipSolution

_LP_STATUS = {0: "optimal", 1: "stalled", 2: "infeasible", 3: "unbounded", 4: "stalled"}


def _matrices(lp: LinearProgram):
    """Split rows into A_ub (>= rows negated) and A_eq, remembering origins."""
    ub_rows: list[int] = []
    eq_rows: list[int] = []
    ub_sign: list[float] = []
    for i, r in enumerate(lp.rows):
        if r.relation == EQ:
            eq_rows.append(i)
        else:
            ub_rows.append(i)
            ub_sign.append(1.0 if r.relation == LE else -1.0)

    def build(indices, signs=None):
        data, ri, ci = [], [], []
        rhs = []
        for pos, i in enumerate(indices):
            row = lp.rows[i]
            s = 1.0 if signs is None else signs[pos]
            rhs.append(s * row.rhs)
            for j, a in row.coeffs:
                ri.append(pos)
                ci.append(j)
                data.append(s * a)
        mat = sp.coo_matrix((data, (ri, ci)), shape=(len(indices), lp.n_vars)).tocsr()
        return mat, np.array(rhs)

    A_ub, b_ub = build(ub_rows, ub_sign)
    A_eq, b_eq = build(eq_rows)
    return (ub_rows, ub_sign, A_ub, b_ub), (eq_rows, A_eq, b_eq)


def _reduced_costs(lp: LinearProgram, duals: list[float]) -> list[float]:
    rc = np.array([v.obj for v in lp.variables], dtype=float)
    for i, row in enumerate(lp.rows):
        y = duals[i]
        if y == 0.0:
            continue
        for j, a in row.coeffs:
            rc[j] -= y * a
    return rc.tolist()


def solve_lp(lp: LinearProgram) -> LpSolution:
    c = np.array([v.obj for v in lp.variables], dtype=float)
    bounds = [(v.lb, None if math.isinf(v.ub) else v.ub) for v in lp.variables]
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
    duals = [0.0] * lp.n_rows
    if len(ub_rows):
        for pos, i in enumerate(ub_rows):
            # marginal is d obj / d rhs of the *signed* row; undo the sign
            duals[i] = float(res.ineqlin.marginals[pos]) * ub_sign[pos]
    if len(eq_rows):
        for pos, i in enumerate(eq_rows):
            duals[i] = float(res.eqlin.marginals[pos])
    return LpSolution(
        status="optimal",
        x=list(map(float, res.x)),
        objective=float(res.fun),
        duals=duals,
        reduced_costs=_reduced_costs(lp, duals),
    )


_MIP_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def solve_mip(lp: LinearProgram, time_limit: float | None = None) -> MipSolution:
    if not lp.integer_indices():
        sol = solve_lp(lp)
        return MipSolution(
            status=sol.status, x=sol.x, objective=sol.objective,
            bound=sol.objective, gap=0.0 if sol.optimal else math.nan,
            message=sol.message,
        )
    c = np.array([v.obj for v in lp.variables], dtype=float)
    data, ri, ci = [], [], []
    lo = np.empty(lp.n_rows)
    hi = np.empty(lp.n_rows)
    for i, row in enumerate(lp.rows):
        lo[i] = row.rhs if row.relation in (EQ, GE) else -np.inf
        hi[i] = row.rhs if row.relation in (EQ, LE) else np.inf
        for j, a in row.coeffs:
            ri.append(i)
            ci.append(j)
            data.append(a)
    A = sp.coo_matrix((data, (ri, ci)), shape=(lp.n_rows, lp.n_vars)).tocsr()
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
