import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from scmap.simplexkit import EQ, LE, LinearProgram, highs
from scmap.simplexkit.model import GE, LpError

# the solver module under test; the cases keep their [highs] ids
over_solvers = pytest.mark.parametrize("solver", [highs], ids=["highs"])


def add_variable(lp, name, lb=0.0, ub=math.inf, obj=0.0, integer=False):
    """One column with no entries, as `LinearProgram.add_columns` enters it."""
    return lp.add_columns([name], [obj], lb=lb, ub=ub, integer=integer)[0]


def add_constraint(lp, coeffs, relation, rhs):
    """One row holding the (column, coefficient) pairs `coeffs`, in order."""
    cols, values = [j for j, _ in coeffs], [a for _, a in coeffs]
    return lp.add_rows([f"r{lp.n_rows}"], [relation], [rhs], ([0] * len(cols), cols, values))[0]


def lp_from_arrays(c, rows, lb=None, ub=None, integer=None):
    """rows: list of (coeff list, relation, rhs)."""
    lp = LinearProgram()
    n = len(c)
    lb = lb or [0.0] * n
    ub = ub or [math.inf] * n
    integer = integer or [False] * n
    for j in range(n):
        add_variable(lp, f"x{j}", lb[j], ub[j], c[j], integer[j])
    for coeffs, rel, rhs in rows:
        add_constraint(lp, [(j, a) for j, a in enumerate(coeffs) if a], rel, rhs)
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
    rc = lp.obj.tolist()
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
    for d, lb, ub in zip(reduced_costs(lp, sol), lp.lb.tolist(), lp.ub.tolist()):
        if d > 0:
            val += d * lb
        elif d < 0:
            if math.isinf(ub):
                continue  # a tiny negative rc on an unbounded var is noise
            val += d * ub
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
        add_variable(lp, "x", lb=-math.inf)
    with pytest.raises(LpError):
        add_variable(lp, "x", lb=1.0, ub=0.0)
    add_variable(lp, "x")
    with pytest.raises(LpError):
        add_constraint(lp, [(3, 1.0)], LE, 1.0)
    with pytest.raises(LpError):
        add_constraint(lp, [(0, 1.0)], "<", 1.0)
    with pytest.raises(LpError):
        add_constraint(lp, [(0, math.nan)], LE, 1.0)
    with pytest.raises(LpError):
        add_constraint(lp, [(0, 1.0)], "<==", 1.0)
    with pytest.raises(LpError):
        add_constraint(lp, [(0, 1.0)], LE, math.inf)
    row = add_constraint(lp, [(0, 1.0)], LE, 1.0)
    with pytest.raises(LpError):
        lp.add_columns(["y"], [math.inf], ([row], [0], [1.0]))
    with pytest.raises(LpError):
        lp.add_columns(["y"], [1.0], ([row + 1], [0], [1.0]))
    with pytest.raises(LpError):
        lp.add_columns(["y"], [1.0], ([row], [0], [math.nan]))
    with pytest.raises(LpError):
        lp.add_columns(["y"], [1.0], ([row], [1], [1.0]))  # no second new column
    with pytest.raises(LpError):
        lp.add_columns(["y", "w"], [1.0, 1.0], ub=[1.0, math.nan])
    # a malformed column or row anywhere in a block appends none of it
    with pytest.raises(LpError):
        lp.add_columns(["y", "w"], [1.0, 1.0], ([row, row + 1], [0, 1], [2.0, 1.0]))
    with pytest.raises(LpError):
        lp.add_rows(["s", "t"], [LE, GE], [1.0, 2.0], ([0, 1], [0, 1], [1.0, 1.0]))
    with pytest.raises(LpError):
        lp.add_rows(["s", "t"], [LE, "<"], [1.0, 2.0], ([0], [0], [1.0]))
    assert (lp.n_vars, lp.n_rows, lp.nnz) == (1, 1, 1) and lp.rows[row].coeffs == [(0, 1.0)]
    assert lp.add_columns(["y"], [1.0], ([row], [0], [2.0])) == range(1, 2)
    assert lp.add_columns(["u", "w"], [1.0, 3.0], ([row], [1], [4.0])) == range(2, 4)
    assert lp.rows[row].coeffs == [(0, 1.0), (1, 2.0), (3, 4.0)]
    assert lp.col_names == ["x", "y", "u", "w"] and lp.obj.tolist() == [0.0, 1.0, 1.0, 3.0]


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


# -- the direct HiGHS path against scipy's wrappers ---------------------------

small = st.sampled_from([-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0])


@st.composite
def programs(draw, integer=False):
    """(variables, rows): variables as (lb, ub, obj, integer), rows as
    (coeffs, relation, rhs) whose coeffs may name a column twice."""
    n = draw(st.integers(1, 4))
    variables = []
    for _ in range(n):
        lb = draw(st.sampled_from([0.0, 0.0, -2.0, 1.0]))
        ub = draw(st.sampled_from([math.inf, lb, lb + 1.0, lb + 3.0]))
        is_int = integer and draw(st.booleans())
        variables.append((lb, ub, draw(small), is_int))
    rows = draw(st.lists(
        st.tuples(
            st.lists(st.tuples(st.integers(0, n - 1), small), max_size=5),
            st.sampled_from([LE, GE, EQ]),
            st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0, 4.0]),
        ),
        max_size=5,
    ))
    return variables, rows


def program_lp(spec):
    variables, rows = spec
    lp = LinearProgram()
    for j, (lb, ub, obj, is_int) in enumerate(variables):
        add_variable(lp, f"x{j}", lb, ub, obj, is_int)
    for coeffs, rel, rhs in rows:
        add_constraint(lp, coeffs, rel, rhs)
    return lp


def dense_rows(spec):
    """The constraint matrix with repeated entries summed, and each row's
    relation and rhs."""
    variables, rows = spec
    A = np.zeros((len(rows), len(variables)))
    for i, (coeffs, _, _) in enumerate(rows):
        for j, a in coeffs:
            A[i, j] += a
    return A, [rel for _, rel, _ in rows], np.array([rhs for _, _, rhs in rows])


def scipy_linprog(spec):
    """`scipy.optimize.linprog` on the program as (status, x, duals,
    objective, iterations), >= rows negated into A_ub and their duals
    negated back."""
    variables, _ = spec
    A, rel, rhs = dense_rows(spec)
    ub = np.array([r != EQ for r in rel], dtype=bool)
    sign = np.array([-1.0 if r == GE else 1.0 for r in rel])[ub]
    res = linprog(
        [v[2] for v in variables],
        A_ub=sign[:, None] * A[ub] if ub.any() else None,
        b_ub=sign * rhs[ub] if ub.any() else None,
        A_eq=A[~ub] if (~ub).any() else None,
        b_eq=rhs[~ub] if (~ub).any() else None,
        bounds=[(v[0], v[1]) for v in variables],
        method="highs",
    )
    status = {0: "optimal", 1: "stalled", 2: "infeasible", 3: "unbounded", 4: "stalled"}
    if res.status != 0:
        return status[res.status], None, None, None, None
    duals = np.zeros(len(rel))
    duals[ub] = res.ineqlin.marginals * sign
    duals[~ub] = res.eqlin.marginals
    return "optimal", res.x, duals, res.fun, res.nit


def scipy_milp(spec):
    """`scipy.optimize.milp` on the program as (status, objective)."""
    variables, _ = spec
    A, rel, rhs = dense_rows(spec)
    lo = np.where([r == LE for r in rel], -np.inf, rhs)
    hi = np.where([r == GE for r in rel], np.inf, rhs)
    res = milp(
        [v[2] for v in variables],
        constraints=LinearConstraint(A, lo, hi) if len(rel) else None,
        integrality=[int(v[3]) for v in variables],
        bounds=Bounds([v[0] for v in variables], [v[1] for v in variables]),
        options={"disp": False},
    )
    if res.x is None:
        return {2: "infeasible", 3: "unbounded"}.get(res.status, "stalled"), None
    return "optimal" if res.status == 0 else "feasible", res.fun


def same_floats(a, b):
    """Equal element by element with no tolerance: the same bits, but for
    the sign of a zero."""
    return np.array_equal(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


NO_ROWS = ([(0.0, 3.0, -1.0, False), (0.0, math.inf, 2.0, False)], [])
INFEASIBLE = ([(0.0, math.inf, 1.0, False)], [([(0, 1.0)], LE, -1.0)])
UNBOUNDED = ([(0.0, math.inf, -1.0, False)], [([(0, 1.0)], GE, 1.0)])
REPEATED = (
    [(0.0, math.inf, 1.0, False), (0.0, math.inf, 2.0, False)],
    [([(0, 1.0), (1, 1.0), (0, 1.0)], GE, 2.0), ([(1, 1.0), (0, -1.0)], EQ, 0.0)],
)
# duplicates whose sum depends on its order: 0.1 + 0.2 + 0.3 > 0.3 + 0.2 + 0.1
INEXACT = (
    [(0.0, math.inf, 1.0, False), (0.0, math.inf, 1.0, False)],
    [
        ([(0, 0.1), (1, 1.0), (0, 0.2), (0, 0.3)], GE, 1.0),
        ([(1, 0.3), (1, 0.2), (1, 0.1)], LE, 4.0),
    ],
)


@given(programs())
@example(NO_ROWS)
@example(INFEASIBLE)
@example(UNBOUNDED)
@example(REPEATED)
@settings(max_examples=300, deadline=None)
def test_lp_equals_scipy_linprog(spec):
    """Same status as `linprog`, and at an optimum the same iteration count
    and the same x, duals and objective, with no tolerance. A zero dual of
    a >= row may differ in sign: the reference negates such a row into A_ub
    and its dual back, so a 0.0 from HiGHS comes back as -0.0."""
    got = highs.solve_lp(program_lp(spec))
    status, x, duals, objective, iterations = scipy_linprog(spec)
    assert got.status == status
    if status == "optimal":
        assert same_floats(got.x, x)
        assert same_floats(got.duals, duals)
        assert same_floats([got.objective], [objective])
        assert got.iterations == iterations


@given(programs(integer=True))
@example(NO_ROWS)
@example(INFEASIBLE)
@example(UNBOUNDED)
@example(REPEATED)
@settings(max_examples=300, deadline=None)
def test_mip_equals_scipy_milp(spec):
    got = highs.solve_mip(program_lp(spec))
    status, objective = scipy_milp(spec)
    assert got.status == status
    if objective is not None:
        assert got.objective == objective


def column_wise(spec, cuts):
    """The program of `spec` entered column by column: its rows first, with
    no entries, then its columns in batches split at `cuts`, each column's
    entries in row order and, within a row, in the row's order."""
    variables, rows = spec
    lp = LinearProgram()
    lp.add_rows([f"r{i}" for i in range(len(rows))], [r[1] for r in rows], [r[2] for r in rows])
    entries = sorted(
        ((j, i, a) for i, (coeffs, _, _) in enumerate(rows) for j, a in coeffs),
        key=lambda e: e[0],
    )
    bounds = [0, *(c for c in sorted(cuts) if c < len(variables)), len(variables)]
    for lo, hi in zip(bounds, bounds[1:]):
        batch = [e for e in entries if lo <= e[0] < hi]
        lb, ub, obj, is_int = (list(f) for f in zip(*variables[lo:hi]))
        lp.add_columns(
            [f"x{j}" for j in range(lo, hi)],
            obj,
            ([i for _, i, _ in batch], [j - lo for j, _, _ in batch], [a for _, _, a in batch]),
            lb=lb,
            ub=ub,
            integer=is_int,
        )
    return lp


def highs_arrays(lp, order, integer):
    """Every array of the HighsLp `_highs_lp` builds, as raw bytes."""
    model, _ = highs._highs_lp(lp, order, integer)
    matrix = model.a_matrix_
    counts = (matrix.start_, matrix.index_)
    values = (
        matrix.value_, model.col_cost_, model.col_lower_, model.col_upper_,
        model.row_lower_, model.row_upper_,
    )
    out = [np.asarray(f, dtype=np.int64).tobytes() for f in counts]
    out += [np.asarray(f, dtype=float).tobytes() for f in values]
    return out + [(model.num_col_, model.num_row_, list(map(int, model.integrality_)))]


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


@given(programs(integer=True), st.sets(st.integers(1, 3)))
@example(REPEATED, set())
@example(REPEATED, {1})
@example(INEXACT, set())
@example(INEXACT, {1})
@settings(max_examples=200, deadline=None)
def test_row_wise_and_column_wise_entry_give_one_program(spec, cuts):
    """A program entered row by row and the same program entered column by
    column, in one batch or several, hand HiGHS the same arrays, in linprog's
    row order and in program order, and solve to the same bits."""
    by_row, by_col = program_lp(spec), column_wise(spec, cuts)
    assert by_row.col_names == by_col.col_names
    assert by_row.relation.tolist() == by_col.relation.tolist()
    for order, integer in (
        (np.argsort(by_row.relation == EQ, kind="stable"), False),
        (np.arange(by_row.n_rows), True),
    ):
        assert highs_arrays(by_row, order, integer) == highs_arrays(by_col, order, integer)
    a, b = highs.solve_lp(by_row), highs.solve_lp(by_col)
    assert (a.status, a.message, a.iterations) == (b.status, b.message, b.iterations)
    assert same_bits(a.x, b.x) and same_bits(a.duals, b.duals)
    assert same_bits([a.objective], [b.objective])
    a, b = highs.solve_mip(by_row), highs.solve_mip(by_col)
    assert (a.status, a.message, a.nodes) == (b.status, b.message, b.nodes)
    assert same_bits(a.x, b.x) and same_bits([a.objective, a.bound], [b.objective, b.bound])


class DoctoredRun:
    """A finished HiGHS run whose solution reports `value` as the first
    entry of `field`."""

    def __init__(self, run, field, value):
        self._run, self._field, self._value = run, field, value

    def __getattr__(self, name):
        return getattr(self._run, name)

    def getSolution(self):
        solution = self._run.getSolution()
        values = list(getattr(solution, self._field))
        values[0] = self._value
        setattr(solution, self._field, values)
        return solution


@pytest.mark.parametrize(
    "field, value, status",
    [
        ("col_value", math.nan, "stalled"),
        ("row_value", 5.0 + 3.3e-4, "stalled"),
        ("col_value", 3.0 + 3.3e-4, "stalled"),
        ("row_value", 5.0 + 3.1e-4, "optimal"),  # within linprog's 3.16e-4
    ],
    ids=["nan", "row_residual", "bound_residual", "within_tolerance"],
)
def test_point_off_its_rows_is_stalled(monkeypatch, field, value, status):
    # min -x0 - x1/2 st x0 + x1 <= 5, x in [0, 3]^2: the optimum x = (3, 2)
    # has x0 at its upper bound and the row tight; each case doctors x0 or
    # the row's activity as HiGHS reports it
    lp = lp_from_arrays([-1.0, -0.5], [([1.0, 1.0], LE, 5.0)], ub=[3.0, 3.0])
    assert highs.solve_lp(lp).x == [3.0, 2.0]
    real = highs.linprog
    monkeypatch.setattr(highs, "linprog", lambda *a: DoctoredRun(real(*a), field, value))
    got = highs.solve_lp(lp)
    assert got.status == status, got.message
