import itertools
import math
import random

import numpy as np
import pytest

from scmap.simplexkit import EQ, LE, LinearProgram, highs
from scmap.simplexkit.model import GE, LpError

# the solver module under test; the cases keep their [highs] ids
over_solvers = pytest.mark.parametrize("solver", [highs], ids=["highs"])


def lp_from_arrays(c, rows, lb=None, ub=None, integer=None):
    """rows: list of (coeff list, relation, rhs)."""
    lp = LinearProgram()
    n = len(c)
    lb = lb or [0.0] * n
    ub = ub or [math.inf] * n
    integer = integer or [False] * n
    for j in range(n):
        lp.add_variable(f"x{j}", lb[j], ub[j], c[j], integer[j])
    for coeffs, rel, rhs in rows:
        lp.add_constraint([(j, a) for j, a in enumerate(coeffs) if a], rel, rhs)
    return lp


# -- brute-force oracles ------------------------------------------------------


def vertex_enumeration_optimum(c, rows, lb, ub):
    """Minimum over all vertices of the (bounded) feasible box ∩ halfspaces.

    Constraints considered active: any n-subset of rows plus bound facets.
    Returns None when infeasible.
    """
    n = len(c)
    facets = []
    for coeffs, rel, rhs in rows:
        facets.append((np.array(coeffs, dtype=float), rhs))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        facets.append((e.copy(), lb[j]))
        facets.append((e, ub[j]))

    def feasible(x):
        for coeffs, rel, rhs in rows:
            lhs = float(np.dot(coeffs, x))
            if rel == LE and lhs > rhs + 1e-7:
                return False
            if rel == GE and lhs < rhs - 1e-7:
                return False
            if rel == EQ and abs(lhs - rhs) > 1e-7:
                return False
        return all(lb[j] - 1e-9 <= x[j] <= ub[j] + 1e-9 for j in range(n))

    best = None
    for combo in itertools.combinations(range(len(facets)), n):
        A = np.array([facets[i][0] for i in combo])
        b = np.array([facets[i][1] for i in combo])
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if feasible(x):
            val = float(np.dot(c, x))
            if best is None or val < best:
                best = val
    return best


def binary_enumeration_optimum(c, rows, n):
    best = None
    for bits in itertools.product((0.0, 1.0), repeat=n):
        ok = True
        for coeffs, rel, rhs in rows:
            lhs = sum(a * x for a, x in zip(coeffs, bits))
            if rel == LE and lhs > rhs + 1e-9:
                ok = False
            elif rel == GE and lhs < rhs - 1e-9:
                ok = False
            elif rel == EQ and abs(lhs - rhs) > 1e-9:
                ok = False
            if not ok:
                break
        if ok:
            val = sum(a * x for a, x in zip(c, bits))
            if best is None or val < best:
                best = val
    return best


def row_activity(lp, row, x):
    return sum(a * x[j] for j, a in lp.rows[row].coeffs)


def reduced_costs(lp, sol):
    """c_j - sum_i y_i a_ij from sol's row duals, one coefficient at a time."""
    rc = [v.obj for v in lp.variables]
    for y, row in zip(sol.duals, lp.rows):
        for j, a in row.coeffs:
            rc[j] -= y * a
    return rc


def dual_objective(lp, sol):
    """Dual value implied by sol's multipliers: y'b plus bound contributions.

    Equals the primal objective at an optimum (strong duality), which
    `assert_duality_gap` checks to 1e-6 * (1 + |objective|).
    """
    val = sum(y * r.rhs for y, r in zip(sol.duals, lp.rows))
    for d, v in zip(reduced_costs(lp, sol), lp.variables):
        if d > 0:
            val += d * v.lb
        elif d < 0:
            if math.isinf(v.ub):
                continue  # a tiny negative rc on an unbounded var is noise
            val += d * v.ub
    return val


def assert_duality_gap(lp, sol):
    gap = abs(sol.objective - dual_objective(lp, sol))
    assert gap <= 1e-6 * (1.0 + abs(sol.objective)), f"duality gap {gap}"


def assert_complementary_slackness(lp, sol):
    for i, row in enumerate(lp.rows):
        if row.relation == EQ:
            continue
        slack = row.rhs - row_activity(lp, i, sol.x)
        assert abs(sol.duals[i] * slack) <= 1e-5 * (1 + abs(row.rhs)), row.name


# -- targeted cases -----------------------------------------------------------


@over_solvers
def test_single_var_ge(solver):
    lp = lp_from_arrays([1.0], [([1.0], GE, 3.0)])
    sol = solver.solve_lp(lp)
    assert sol.optimal
    assert sol.objective == pytest.approx(3.0)
    assert sol.x[0] == pytest.approx(3.0)
    assert sol.duals[0] == pytest.approx(1.0)
    assert_duality_gap(lp, sol)


@over_solvers
def test_infeasible(solver):
    lp = lp_from_arrays([1.0], [([1.0], LE, -1.0)])
    sol = solver.solve_lp(lp)
    assert sol.status == "infeasible"


@over_solvers
def test_unbounded(solver):
    lp = lp_from_arrays([-1.0], [([0.0], LE, 1.0)])
    sol = solver.solve_lp(lp)
    assert sol.status == "unbounded"


@over_solvers
def test_variable_at_upper_bound(solver):
    # min -x with x <= 4 via bound: optimum at the upper bound
    lp = lp_from_arrays([-1.0, 0.0], [([1.0, 1.0], LE, 10.0)], ub=[4.0, math.inf])
    sol = solver.solve_lp(lp)
    assert sol.optimal and sol.x[0] == pytest.approx(4.0)
    assert reduced_costs(lp, sol)[0] == pytest.approx(-1.0)
    assert_duality_gap(lp, sol)


@over_solvers
def test_equality_mix(solver):
    # min x+y st x+y = 2, x-y >= -1
    lp = lp_from_arrays([1.0, 1.0], [([1.0, 1.0], EQ, 2.0), ([1.0, -1.0], GE, -1.0)])
    sol = solver.solve_lp(lp)
    assert sol.optimal and sol.objective == pytest.approx(2.0)
    assert_duality_gap(lp, sol)


def test_no_rows_lp():
    lp = lp_from_arrays([2.0, -3.0], [], ub=[5.0, 5.0])
    sol = highs.solve_lp(lp)
    assert sol.optimal
    assert sol.x == pytest.approx([0.0, 5.0])


def test_model_validation():
    lp = LinearProgram()
    with pytest.raises(LpError):
        lp.add_variable("x", lb=-math.inf)
    with pytest.raises(LpError):
        lp.add_variable("x", lb=1.0, ub=0.0)
    lp.add_variable("x")
    with pytest.raises(LpError):
        lp.add_constraint([(3, 1.0)], LE, 1.0)
    with pytest.raises(LpError):
        lp.add_constraint([(0, 1.0)], "<", 1.0)
    with pytest.raises(LpError):
        lp.add_constraint([(0, math.nan)], LE, 1.0)
    row = lp.add_constraint([(0, 1.0)], LE, 1.0)
    with pytest.raises(LpError):
        lp.add_columns(["y"], [math.inf], [[(row, 1.0)]])
    with pytest.raises(LpError):
        lp.add_columns(["y"], [1.0], [[(row + 1, 1.0)]])
    with pytest.raises(LpError):
        lp.add_columns(["y"], [1.0], [[(row, math.nan)]])
    # a malformed column anywhere in a block appends none of it
    with pytest.raises(LpError):
        lp.add_columns(["y", "w"], [1.0, 1.0], [[(row, 2.0)], [(row + 1, 1.0)]])
    assert lp.n_vars == 1 and lp.rows[row].coeffs == [(0, 1.0)]
    assert lp.add_columns(["y"], [1.0], [[(row, 2.0)]]) == [1]
    assert lp.add_columns(["u", "w"], [1.0, 3.0], [[], [(row, 4.0)]]) == [2, 3]
    assert lp.rows[row].coeffs == [(0, 1.0), (1, 2.0), (3, 4.0)]


# -- oracle batteries ---------------------------------------------------------


def random_lp(rng, n_max=6, m_max=8):
    n = rng.randint(2, n_max)
    m = rng.randint(1, m_max)
    c = [round(rng.uniform(-5, 5), 3) for _ in range(n)]
    lb = [0.0] * n
    ub = [round(rng.uniform(1, 10), 3) for _ in range(n)]
    # anchor rows at a shared box point so most cases stay feasible, with an
    # occasional deliberately violated row to exercise the infeasible path
    x0 = [rng.uniform(lb[j], ub[j]) for j in range(n)]
    rows = []
    for _ in range(m):
        coeffs = [round(rng.uniform(-4, 4), 3) for _ in range(n)]
        rel = rng.choice([LE, LE, GE, EQ])
        act = sum(a * x for a, x in zip(coeffs, x0))
        if rel == EQ:
            rhs = round(act, 3)
        elif rel == LE:
            rhs = round(act + rng.uniform(-0.5, 4.0), 3)
        else:
            rhs = round(act - rng.uniform(-0.5, 4.0), 3)
        rows.append((coeffs, rel, rhs))
    return c, rows, lb, ub


def test_lp_oracle_battery():
    """Criterion: HiGHS vs vertex enumeration on 50 random LPs, with strong
    duality and complementary slackness checked on every optimum."""
    rng = random.Random(123)
    solved = 0
    for case in range(50):
        c, rows, lb, ub = random_lp(rng)
        lp = lp_from_arrays(c, rows, lb=lb, ub=ub)
        sol = highs.solve_lp(lp)
        expect = vertex_enumeration_optimum(c, rows, lb, ub)
        if expect is None:
            assert sol.status == "infeasible", f"case {case}"
            continue
        assert sol.optimal, f"case {case}: {sol.status}"
        assert sol.objective == pytest.approx(expect, abs=1e-6), f"case {case}"
        assert_duality_gap(lp, sol)
        assert_complementary_slackness(lp, sol)
        solved += 1
    assert solved >= 25  # most random cases should be feasible


def test_mip_oracle_battery():
    """Criterion: HiGHS MIP vs 2^n enumeration on 30 binary programs."""
    rng = random.Random(456)
    for case in range(30):
        n = rng.randint(2, 12)
        m = rng.randint(1, 6)
        c = [round(rng.uniform(-5, 5), 3) for _ in range(n)]
        rows = []
        for _ in range(m):
            coeffs = [rng.choice([-2, -1, 0, 1, 2, 3]) for _ in range(n)]
            rel = rng.choice([LE, LE, GE])
            rhs = rng.randint(-2, max(2, n // 2 + 2))
            rows.append((coeffs, rel, float(rhs)))
        lp = lp_from_arrays(c, rows, ub=[1.0] * n, integer=[True] * n)
        expect = binary_enumeration_optimum(c, rows, n)
        got = highs.solve_mip(lp)
        if expect is None:
            assert got.status == "infeasible", f"case {case}"
        else:
            assert got.status == "optimal", f"case {case}"
            assert got.objective == pytest.approx(expect, abs=1e-6), f"case {case}"
            assert got.bound <= got.objective + 1e-9


def test_knapsack_example():
    lp = lp_from_arrays(
        [-3.0, -2.0], [([1.0, 1.0], LE, 1.0)], ub=[1.0, 1.0], integer=[True, True]
    )
    got = highs.solve_mip(lp)
    assert got.status == "optimal"
    assert got.objective == pytest.approx(-3.0)
    assert got.x == pytest.approx([1.0, 0.0])


def test_integral_relaxation_needs_no_branching():
    # a path-flow LP with integral vertices: root relaxation is already binary
    lp = lp_from_arrays(
        [1.0, 2.0],
        [([1.0, 1.0], EQ, 1.0)],
        ub=[1.0, 1.0],
        integer=[True, True],
    )
    got = highs.solve_mip(lp)
    assert got.status == "optimal"
    assert got.nodes == 0
    assert got.objective == pytest.approx(1.0)


def test_mip_gap_zero_when_proved():
    lp = lp_from_arrays(
        [1.0, 1.0, 1.0],
        [([1.0, 1.0, 0.0], GE, 1.0), ([0.0, 1.0, 1.0], GE, 1.0)],
        ub=[1.0] * 3,
        integer=[True] * 3,
    )
    got = highs.solve_mip(lp)
    assert got.status == "optimal"
    assert got.gap <= 1e-9


def test_determinism():
    rng = random.Random(9)
    c, rows, lb, ub = random_lp(rng)
    lp = lp_from_arrays(c, rows, lb=lb, ub=ub)
    a = highs.solve_lp(lp)
    b = highs.solve_lp(lp)
    assert a.status == b.status
    assert a.x == b.x and a.duals == b.duals


def test_module_level_helpers():
    lp = lp_from_arrays([1.0], [([1.0], GE, 2.0)])
    assert highs.solve_lp(lp).objective == pytest.approx(2.0)
    assert highs.solve_mip(lp).objective == pytest.approx(2.0)
