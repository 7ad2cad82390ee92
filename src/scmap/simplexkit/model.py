"""Linear/mixed-binary program container the solver reads."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

LE = "<="
EQ = "="
GE = ">="


class LpError(ValueError):
    """Malformed program or solver misuse."""


@dataclass
class Variable:
    name: str
    lb: float = 0.0
    ub: float = math.inf
    obj: float = 0.0
    integer: bool = False


@dataclass
class Row:
    name: str
    coeffs: list[tuple[int, float]]
    relation: str
    rhs: float


class LinearProgram:
    """Minimization program with bounded variables and sparse rows.

    Columns may be appended after rows exist (`add_columns`), which is how
    the master problem grows during column generation.
    """

    def __init__(self, name: str = "lp"):
        self.name = name
        self.variables: list[Variable] = []
        self.rows: list[Row] = []

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def add_variable(
        self,
        name: str,
        lb: float = 0.0,
        ub: float = math.inf,
        obj: float = 0.0,
        integer: bool = False,
    ) -> int:
        if math.isnan(lb) or math.isinf(lb):
            raise LpError(f"variable {name!r}: lower bound must be finite")
        if math.isnan(ub) or ub < lb:
            raise LpError(f"variable {name!r}: bad bounds [{lb}, {ub}]")
        if not math.isfinite(obj):
            raise LpError(f"variable {name!r}: objective must be finite")
        self.variables.append(Variable(name, lb, ub, obj, integer))
        return len(self.variables) - 1

    def add_constraint(
        self, coeffs: list[tuple[int, float]], relation: str, rhs: float, name: str = ""
    ) -> int:
        if relation not in (LE, EQ, GE):
            raise LpError(f"bad relation {relation!r}")
        if not math.isfinite(rhs):
            raise LpError(f"row {name!r}: rhs must be finite")
        for j, a in coeffs:
            if not 0 <= j < len(self.variables):
                raise LpError(f"row {name!r}: variable index {j} out of range")
            if not math.isfinite(a):
                raise LpError(f"row {name!r}: non-finite coefficient")
        self.rows.append(Row(name or f"r{len(self.rows)}", list(coeffs), relation, rhs))
        return len(self.rows) - 1

    def add_columns(
        self, names: list[str], obj: list[float], coeffs: list[list[tuple[int, float]]]
    ) -> list[int]:
        """Append one variable in [0, inf) per name, with objective `obj[j]`
        and the (row, coefficient) entries `coeffs[j]` in existing rows;
        nothing is appended when any column is malformed."""
        rows = [row for col in coeffs for row, _ in col]
        values = [coef for col in coeffs for _, coef in col]
        if not (
            all(map(math.isfinite, obj))
            and all(map(math.isfinite, values))
            and min(rows, default=0) >= 0
            and max(rows, default=-1) < len(self.rows)
        ):
            for name, c, col in zip(names, obj, coeffs):
                if not math.isfinite(c):
                    raise LpError(f"variable {name!r}: objective must be finite")
                for row, coef in col:
                    if not 0 <= row < len(self.rows):
                        raise LpError(f"variable {name!r}: row index {row} out of range")
                    if not math.isfinite(coef):
                        raise LpError(f"variable {name!r}: non-finite coefficient")
        first = len(self.variables)
        self.variables += [Variable(name, 0.0, math.inf, c) for name, c in zip(names, obj)]
        program_rows = self.rows
        for var, col in enumerate(coeffs, start=first):
            for row, coef in col:
                program_rows[row].coeffs.append((var, coef))
        return list(range(first, len(self.variables)))

    def clone(self, integer_all: bool = False) -> "LinearProgram":
        out = LinearProgram(self.name)
        for v in self.variables:
            out.variables.append(
                Variable(v.name, v.lb, v.ub, v.obj, True if integer_all else v.integer)
            )
        for r in self.rows:
            out.rows.append(Row(r.name, list(r.coeffs), r.relation, r.rhs))
        return out


@dataclass
class LpSolution:
    status: str  # optimal | infeasible | unbounded | stalled
    x: list[float] = field(default_factory=list)
    objective: float = math.nan
    duals: list[float] = field(default_factory=list)
    message: str = ""
    method: str = "highs"  # what found it: HiGHS, or "closed_form" (scmap.master)
    iterations: int = 0  # HiGHS's simplex iterations; 0 for a closed form

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


@dataclass
class MipSolution:
    status: str  # optimal | feasible | infeasible | unbounded | stalled
    x: list[float] = field(default_factory=list)
    objective: float = math.nan
    bound: float = math.nan
    gap: float = math.nan
    nodes: int = 0
    message: str = ""
