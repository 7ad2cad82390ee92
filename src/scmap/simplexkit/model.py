"""Linear/mixed-binary program container the solver reads.

A program is kept as arrays: per column its cost, bounds and integrality,
per row its relation and right-hand side, and the nonzeros as (row, column,
value) triplets in the order they were added. Duplicate entries of one
(row, column) are kept apart and summed by the solver, in that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

LE = "<="
EQ = "="
GE = ">="

_COLUMN = np.dtype([("obj", float), ("lb", float), ("ub", float), ("integer", bool)])
# a relation of three or more characters stays distinct from the valid ones
_ROW = np.dtype([("relation", "U3"), ("rhs", float)])
_ENTRY = np.dtype([("row", np.int64), ("col", np.int64), ("value", float)])


class LpError(ValueError):
    """Malformed program or solver misuse."""


@dataclass
class Row:
    name: str
    coeffs: list[tuple[int, float]]
    relation: str
    rhs: float


def _append(store: np.ndarray, used: int, block: np.ndarray) -> np.ndarray:
    """`store` with `block` written after its first `used` records; the
    capacity doubles when full, so appending costs O(len(block)) amortised.
    The store is left read-only, and so is every view of it."""
    if used + len(block) > len(store):
        store = np.resize(store, max(2 * len(store), used + len(block)))
    store.flags.writeable = True
    store[used : used + len(block)] = block
    store.flags.writeable = False
    return store


class LinearProgram:
    """Minimization program with bounded variables and sparse rows.

    Columns may be appended after rows exist (`add_columns`), which is how
    the master problem grows during column generation. `obj`, `lb`, `ub`,
    `integer`, `relation` and `rhs` are read-only views of the stored
    arrays, `entries` the (row, col, value) arrays of the nonzeros in
    insertion order. Each block is checked whole before any of it is stored.
    """

    def __init__(self, name: str = "lp"):
        self.name = name
        self.col_names: list[str] = []
        self.row_names: list[str] = []
        self.nnz = 0
        self._cols, self._rows, self._entries = (np.empty(0, t) for t in (_COLUMN, _ROW, _ENTRY))

    n_vars = property(lambda self: len(self.col_names))
    n_rows = property(lambda self: len(self.row_names))
    obj = property(lambda self: self._cols["obj"][: self.n_vars])
    lb = property(lambda self: self._cols["lb"][: self.n_vars])
    ub = property(lambda self: self._cols["ub"][: self.n_vars])
    integer = property(lambda self: self._cols["integer"][: self.n_vars])
    relation = property(lambda self: self._rows["relation"][: self.n_rows])
    rhs = property(lambda self: self._rows["rhs"][: self.n_rows])
    entries = property(lambda self: tuple(self._entries[: self.nnz][f] for f in _ENTRY.names))

    @property
    def rows(self) -> list[Row]:
        """A read-only view, built on each call: one `Row` per row, its
        (column, coefficient) entries in insertion order."""
        coeffs: list = [[] for _ in self.row_names]
        for i, j, a in zip(*(f.tolist() for f in self.entries)):
            coeffs[i].append((j, a))
        return list(map(Row, self.row_names, coeffs, self.relation.tolist(), self.rhs.tolist()))

    def add_columns(
        self, names: list[str], obj, entries=(), *, lb=0.0, ub=math.inf, integer=False
    ) -> range:
        """Append one variable per name, with objective `obj[j]`, bounds `lb`
        and `ub` and integrality `integer` (each a scalar or one per name),
        and the (row, col, value) `entries`, col counting from the first new
        column and row naming an existing row."""
        cols = np.empty(len(names), _COLUMN)
        cols["obj"], cols["lb"], cols["ub"], cols["integer"] = obj, lb, ub, integer
        bad = ~np.isfinite(cols["obj"]) | ~np.isfinite(cols["lb"]) | ~(cols["ub"] >= cols["lb"])
        self._cols = self._add(self._cols, cols, bad, names, entries, "col")
        return range(self.n_vars - len(names), self.n_vars)

    def add_rows(self, names: list[str], relation, rhs, entries=()) -> range:
        """Append one row per name, `relation[i]` `rhs[i]`, and the (row,
        col, value) `entries`, row counting from the first new row and col
        naming an existing column."""
        rows = np.empty(len(names), _ROW)
        rows["relation"], rows["rhs"] = relation, rhs
        bad = ~np.isin(rows["relation"], (LE, EQ, GE)) | ~np.isfinite(rows["rhs"])
        self._rows = self._add(self._rows, rows, bad, names, entries, "row")
        return range(self.n_rows - len(names), self.n_rows)

    def _add(self, store, records, bad, names, entries, new: str) -> np.ndarray:
        """`store` with `records` appended, and `entries` whose `new` index
        counts from the first of them; LpError, with nothing appended, when
        a record is `bad` or an entry lies outside the program or the block
        or is not finite."""
        block = np.empty(len(entries[0]) if entries else 0, _ENTRY)
        if entries:
            block["row"], block["col"], block["value"] = entries
        old, n_old = ("row", self.n_rows) if new == "col" else ("col", self.n_vars)
        stray = (block[old] < 0) | (block[old] >= n_old) | ~np.isfinite(block["value"])
        stray |= (block[new] < 0) | (block[new] >= len(names))
        kind = "variable" if new == "col" else "row"
        if bad.any():
            raise LpError(f"{kind} {names[bad.argmax()]!r}: malformed {records[bad.argmax()]}")
        if stray.any():
            raise LpError(f"{kind} block: malformed (row, col, value) {block[stray.argmax()]}")
        stored_names = self.col_names if new == "col" else self.row_names
        block[new] += len(stored_names)
        store = _append(store, len(stored_names), records)
        self._entries = _append(self._entries, self.nnz, block)
        self.nnz += len(block)
        stored_names += names
        return store


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
