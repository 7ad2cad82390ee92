"""Pipeline orchestration: grouping, column generation, integer solve.

The flow is necessary cuts -> master with its Phase-I artificials ->
iterate (relax, price, extend) -> integer selection -> decode ->
independent validation. The relaxation carries no hosting budget,
so one converged model serves every k of a sweep and only the integer
selection reads k. The price is a k-blind `lp_bound`: the same at every k,
and the reported `gap` is measured against it.

The final selection is automatic and tries, in order: the relaxation
point, the host-set bound, the selection program, the full program. When
the relaxation's own point is already an integer selection within k, it is
the plan and no MIP runs. Otherwise, on a compact master, the host-set
bound enumerates the sets H of min(k, |NFV|) NFV nodes: every selection
hosts inside some H, so the least sum over chain instances of their
cheapest pooled column inside H bounds the selection program from below,
and when those columns fit the core rows they attain it and are the plan.
It declines above `HOST_SET_CAP` (host set, pooled column) pairs. Then it
solves the selection program, the master's z-restriction (see
`scmap.master`): on a compact master that is the one program there is. On
an arc-flow master it relaxes the full program, so its validated plan is
optimal and its infeasibility is the full program's; only a plan that
fails validation or a stalled solve falls back to the full program. Every
verdict, plan or "infeasible", is relative to the `sptg` demand grouping.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import time
from dataclasses import dataclass, field
from typing import IO, Iterable, Optional

import numpy as np

from .master import (
    FIT_TOL,
    ChainInstance,
    Configuration,
    RmpModel,
    add_column,
    build_final_ilp,
    build_rmp,
    fits,
    make_configuration,
    placement_faults,
    solve_relaxation,
)
from .netmodel import ProblemInstance
from .pathcore import PathTable, all_pairs_hops, path_nodes, route_fault
from .pricer import PricerError, price_chain_instance, segment_cost_table
from .simplexkit import highs
from .sptg import ChainPartition, partition_all

log = logging.getLogger(__name__)

Arc = tuple[str, str]


class EngineError(RuntimeError):
    """Unsolvable stage or a decoded plan that fails its own checks."""


class Infeasible(EngineError):
    """No assignment satisfies the budget and resource rows."""


@dataclass(frozen=True)
class CgIteration:
    iteration: int
    objective: float
    columns_added: int
    best_reduced_cost: float
    wall_ms: float


@dataclass
class CgTrace:
    iterations: list = field(default_factory=list)
    converged: bool = False


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


@dataclass(frozen=True)
class PairRoute:
    src: str
    dst: str
    first_arcs: tuple
    last_arcs: tuple


@dataclass(frozen=True)
class InstanceAssignment:
    chain: str
    group_index: int
    locations: tuple
    segment_paths: tuple
    routes: tuple


@dataclass
class MappingPlan:
    assignments: tuple
    arc_loads: dict
    node_cores: dict
    hosting: tuple
    objective_gbps_hops: float
    lp_bound: float
    gap: float


@dataclass
class SolveResult:
    plan: MappingPlan
    trace: CgTrace
    model: RmpModel
    partitions: list


def _colocated(ci: ChainInstance, node: str) -> Configuration:
    n = len(ci.vnfs)
    return make_configuration(ci, (node,) * n, ((),) * (n - 1))


def _no_placement(instance: ProblemInstance, ci: ChainInstance) -> Infeasible:
    """Certificate that no location tuple of `ci` fits the nodes' cores."""
    node = instance.topology.node_by_id
    big = max(instance.topology.nfv_nodes, key=lambda v: node[v].cores)
    needs = [ci.total_gbps * r for r in instance.chain_cores_per_gbps(ci.chain)]
    return Infeasible(
        f"chain instance {ci.label} fits on no placement: its {len(needs)} "
        f"positions need {[round(c, 6) for c in needs]} cores, and the node with "
        f"the most cores, {big}, has {node[big].cores} (relative to the demand "
        f"grouping)"
    )


def diagnose_infeasibility(instance: ProblemInstance) -> list:
    """Cheap necessary-condition cuts that name what cannot fit.

    Any demand pair s != d pushes its gbps out of s and into d no matter
    where the chain sits, so a node cut below those sums is a certificate.
    """
    hints = []
    topo = instance.topology
    out_need: dict = {}
    in_need: dict = {}
    for r in instance.demands.records:
        if r.src == r.dst:
            continue
        out_need[r.src] = out_need.get(r.src, 0.0) + r.gbps
        in_need[r.dst] = in_need.get(r.dst, 0.0) + r.gbps
    for v, need in sorted(out_need.items()):
        arcs = topo.out_arcs[v]
        have = sum(topo.capacity(a) for a in arcs)
        if need > have + 1e-9:
            hints.append(
                f"demand leaving {v} totals {need:g} Gbps but its outgoing arcs "
                f"{[f'{a}->{b}' for a, b in arcs]} provide {have:g}"
            )
    for v, need in sorted(in_need.items()):
        arcs = topo.in_arcs[v]
        have = sum(topo.capacity(a) for a in arcs)
        if need > have + 1e-9:
            hints.append(
                f"demand entering {v} totals {need:g} Gbps but its incoming arcs "
                f"{[f'{a}->{b}' for a, b in arcs]} provide {have:g}"
            )
    cut = _core_cut(instance, len(topo.nfv_nodes))
    if cut:
        hints.append(cut)
    return hints


def _core_cut(instance: ProblemInstance, k: int) -> Optional[str]:
    """The cores all placements need against the k NFV nodes with the most
    cores, or None when they fit.

    A chain instance takes the same cores wherever it sits and a plan hosts
    on at most k nodes, so a need above those k nodes' cores is a proof.
    """
    topo = instance.topology
    needed = sum(
        r.gbps * sum(instance.chain_cores_per_gbps(r.chain))
        for r in instance.demands.records
    )
    cores = sorted((topo.node_by_id[v].cores for v in topo.nfv_nodes), reverse=True)
    have = sum(cores[:k])
    if needed <= have + 1e-9:
        return None
    if k >= len(cores):
        return f"placements require {needed:g} cores but NFV nodes provide {have:g}"
    return f"placements require {needed:g} cores but k={k} hosting nodes hold at most {have:g}"


def run_column_generation(
    instance: ProblemInstance,
    partitions: Iterable[ChainPartition],
    *,
    max_iters: int = 200,
    time_limit: Optional[float] = None,
    paths: Optional[PathTable] = None,
) -> tuple[RmpModel, CgTrace]:
    """Iterate relax/price/extend until a full pricing round adds nothing.

    A necessary cut of `diagnose_infeasibility` that fires is a proof that
    no plan exists, so it raises `Infeasible` before any LP solve. The
    master starts from its artificial columns alone (each stands for its
    chain instance left unserved), so it is feasible from the first solve
    and needs no seed. A chain instance that fits on no placement raises the
    `_no_placement` certificate when the pricer finds none.

    `time_limit` (seconds) counts from the call, so it covers the RMP build.
    An iteration starts only if it and the closing relaxation refresh, each
    taken to last as long as the previous iteration, end within the limit.

    A round that adds no column certifies the LP optimum: the master has no
    variable upper bounds, so its row duals are dual feasible. A run cut
    short by `max_iters` or by time has no such certificate; it sets
    `model.truncated_bound` to the best Lagrangian bound of its priced
    rounds, the LP value plus each chain instance's most negative reduced
    cost (Lübbecke & Desrosiers, 2005), or 0.0 if no round was priced.
    """
    started = time.perf_counter()
    hints = diagnose_infeasibility(instance)
    if hints:
        raise Infeasible("no plan exists: " + "; ".join(hints))
    if paths is None:
        paths = all_pairs_hops(instance.topology)
    model = build_rmp(instance, partitions, paths=paths)
    # fallback columns: a co-located configuration at every NFV node where it
    # fits, so the integer stage has every one-host choice that exists
    for ci in model.chain_instances:
        for v in instance.topology.nfv_nodes:
            config = _colocated(ci, v)
            if fits(instance, ci, config.locations):
                add_column(model, config)

    trace = CgTrace()
    pool_dirty = True
    last = 0.0  # duration of the previous iteration
    bound = 0.0  # every cost is >= 0
    for it in range(1, max_iters + 1):
        tick = time.perf_counter()
        if time_limit is not None and tick - started + 2 * last > time_limit:
            log.warning("column generation stopped by time limit after %d iterations", it - 1)
            break
        sol, duals = solve_relaxation(model)
        pool_dirty = False
        seg = segment_cost_table(instance, duals, model.paths)
        added = 0
        best_rc = 0.0
        lagrangian = sol.objective
        for ci in model.chain_instances:
            try:
                priced = price_chain_instance(instance, ci, duals, seg)
            except PricerError as exc:
                raise _no_placement(instance, ci) from exc
            if priced is None:
                continue
            config, reduced = priced
            best_rc = min(best_rc, reduced)
            lagrangian += reduced
            before = len(model.pool)
            add_column(model, config)
            if len(model.pool) > before:
                added += 1
                pool_dirty = True
        bound = max(bound, lagrangian)
        last = time.perf_counter() - tick
        trace.iterations.append(CgIteration(it, sol.objective, added, best_rc, last * 1e3))
        if added == 0:
            trace.converged = True
            break
    if pool_dirty:
        # truncated mid-round: refresh the bound so it covers the whole pool
        solve_relaxation(model)
    if not trace.converged:
        model.truncated_bound = bound
        log.warning(
            "column generation truncated (%d iterations, %d columns)",
            len(trace.iterations),
            len(model.pool),
        )
    return model, trace


def write_trace_csv(trace: CgTrace, fh: IO[str]) -> None:
    fh.write("iter,objective,columns_added,best_rc,wall_ms\n")
    for row in trace.iterations:
        fh.write(
            f"{row.iteration},{row.objective:.6f},{row.columns_added},"
            f"{row.best_reduced_cost:.6f},{row.wall_ms:.1f}\n"
        )


def _peel_walks(flow: dict, start: str, end: str, n: int, label: str) -> list:
    """Split an integer start->end flow of n units into n unit walks.

    Each walk follows the smallest arc with flow left, so the split is
    deterministic. A loop a walk closes is cut out of it (it carries cost,
    so only a truncated incumbent has one); flow on no walk is dropped.
    """
    if start == end:
        return [[] for _ in range(n)]
    left = {arc: units for arc, units in flow.items() if units > 0}
    by_src: dict = {}
    for arc in sorted(left):
        by_src.setdefault(arc[0], []).append(arc)
    walks = []
    for _ in range(n):
        walk: list = []
        seen = {start: 0}
        cur = start
        while cur != end:
            arc = next((a for a in by_src.get(cur, ()) if left[a] > 0), None)
            if arc is None:
                raise EngineError(f"{label}: route from {start} to {end} breaks at {cur}")
            left[arc] -= 1
            cur = arc[1]
            if cur in seen:  # a loop closes: cut it out
                cut = seen[cur]
                del walk[cut:]
                seen = {v: i for v, i in seen.items() if i <= cut}
            else:
                walk.append(arc)
                seen[cur] = len(walk)
        walks.append(walk)
    return walks


def _aggregate(instance: ProblemInstance, assignments) -> tuple[dict, dict, tuple]:
    """Recompute arc loads, node core use, and hosting set from raw routes."""
    loads: dict = {}
    cores: dict = {}
    hosting = set()

    def put(arc: Arc, gbps: float) -> None:
        loads[arc] = loads.get(arc, 0.0) + gbps

    for asg in assignments:
        per_gbps = instance.chain_cores_per_gbps(asg.chain)
        routed = []
        for route in asg.routes:
            gbps = instance.demands.gbps.get((asg.chain, route.src, route.dst))
            # a route with no demand record carries nothing; validate_plan
            # reports it as a coverage fault of its own
            if gbps is not None:
                routed.append((route, gbps))
        dgroup = sum(gbps for _, gbps in routed)
        for seg in asg.segment_paths:
            for arc in seg:
                put(arc, dgroup)
        for route, gbps in routed:
            for arc in route.first_arcs:
                put(arc, gbps)
            for arc in route.last_arcs:
                put(arc, gbps)
        for pos, v in enumerate(asg.locations):
            cores[v] = cores.get(v, 0.0) + dgroup * per_gbps[pos]
            hosting.add(v)
    return loads, cores, tuple(sorted(hosting))


def _end_routes(model: RmpModel, x: list, ci: ChainInstance, location: str, lead_in: bool):
    """Member pair -> arcs of its lead-in (or lead-out), peeled off the
    rounded integer flow of each end commodity of `ci` and handed to the
    member pairs in sorted order."""
    members, yvar = (
        (model.lead_in, model.yfvar) if lead_in else (model.lead_out, model.ylvar)
    )
    arcs = model.instance.topology.arc_index
    out = {}
    for (key, com), pairs in members.items():
        if key != ci.key:
            continue
        point, gbps = com
        flow = {arc: round(x[yvar[(key, com, arc)]]) for arc in arcs}
        start, end = (point, location) if lead_in else (location, point)
        label = f"{ci.label} {'lead-in' if lead_in else 'lead-out'} {point}@{gbps:g}"
        out.update(zip(pairs, _peel_walks(flow, start, end, len(pairs), label)))
    return out


def _decode(
    instance: ProblemInstance, model: RmpModel, x: list, zvar: list, full: bool
) -> MappingPlan:
    """The plan an integer point `x` selects; `zvar` maps pool positions to
    its z variables. `full` points route their ends by their end flows,
    others along hop-shortest paths."""
    assignments = []
    for ci in model.chain_instances:
        chosen = [p for p in model.pool_by_instance[ci.key] if x[zvar[p]] > 0.5]
        if len(chosen) != 1:
            raise EngineError(
                f"instance {ci.label}: {len(chosen)} configurations selected"
            )
        config = model.pool[chosen[0]]
        head, tail = config.locations[0], config.locations[-1]
        if full:
            first = _end_routes(model, x, ci, head, lead_in=True)
            last = _end_routes(model, x, ci, tail, lead_in=False)
        else:
            first = {(s, d): model.paths.path_arcs(s, head) for s, d in ci.pairs}
            last = {(s, d): model.paths.path_arcs(tail, d) for s, d in ci.pairs}
        routes = [
            PairRoute(s, d, tuple(first[s, d]), tuple(last[s, d])) for s, d in ci.pairs
        ]
        assignments.append(
            InstanceAssignment(
                chain=ci.chain,
                group_index=ci.group_index,
                locations=config.locations,
                segment_paths=config.segment_paths,
                routes=tuple(routes),
            )
        )
    loads, cores, hosting = _aggregate(instance, assignments)
    objective = sum(loads.values())
    lp_bound = model.lp_bound
    gap = max(0.0, (objective - lp_bound) / max(1.0, abs(objective)))
    return MappingPlan(
        assignments=tuple(assignments),
        arc_loads=loads,
        node_cores=cores,
        hosting=hosting,
        objective_gbps_hops=objective,
        lp_bound=lp_bound,
        gap=gap,
    )


def _extract(
    instance: ProblemInstance,
    model: RmpModel,
    time_limit: Optional[float] = None,
    *,
    full: bool = False,
) -> MappingPlan:
    """Solve, decode and validate one final program (`build_final_ilp`)."""
    # k may differ from the budget the model was built with; the relaxation
    # does not depend on it
    final = build_final_ilp(model, instance.k, full=full)
    mip = highs.solve_mip(final.lp, time_limit=time_limit)
    if mip.status == "infeasible":
        raise Infeasible(
            f"final selection infeasible at k={instance.k}: no pooled assignment "
            f"fits the hosting budget and resource rows (relative to the demand "
            f"grouping)"
        )
    if mip.status not in ("optimal", "feasible"):
        raise EngineError(f"final selection failed: {mip.status} ({mip.message})")
    return _validated(instance, _decode(instance, model, mip.x, final.zvar, final.full))


def _validated(instance: ProblemInstance, plan: MappingPlan) -> MappingPlan:
    violations = validate_plan(instance, plan)
    if violations:
        raise EngineError(
            "extracted plan failed validation: "
            + "; ".join(str(v) for v in violations[:3])
        )
    return plan


# a relaxation value within this of an integer counts as that integer
INTEGRAL_TOL = 1e-9


def _relaxation_plan(instance: ProblemInstance, model: RmpModel) -> Optional[MappingPlan]:
    """The relaxation's own point as the validated plan, or None unless it
    is an integer selection within k.

    Every integer selection's point, artificials at 0 and hosting flags
    dropped, is feasible for the master, so the master's value bounds every
    selection from below. A point with every artificial at 0, every
    variable integral and at most k hosts attains that bound: no selection
    program can beat it (Lübbecke & Desrosiers, 2005). After a column
    generation cut short that holds relative to the pool, as for the MIP.
    On an arc-flow master the point's integral end flows peel into routes,
    as the full program's do.
    """
    x = model.last_relaxation.x
    if any(x[var] > INTEGRAL_TOL for var in model.artificial.values()):
        return None
    if any(abs(v - round(v)) > INTEGRAL_TOL for v in x):
        return None
    chosen = [p for p, var in enumerate(model.zvar) if x[var] > 0.5]
    hosts = {v for p in chosen for v in model.pool[p].locations}
    if len(hosts) > instance.k:
        return None
    plan = _decode(instance, model, [round(v) for v in x], model.zvar, not model.compact)
    return _validated(instance, plan)


# most (host set, pooled column) pairs the host-set bound scores, about 2 MB
# per matrix of them; above it the selection program decides
HOST_SET_CAP = 1 << 18


def _host_set_plan(instance: ProblemInstance, model: RmpModel) -> Optional[MappingPlan]:
    """The selection program's optimum on a compact master, found by
    enumerating host sets, or None when the bound is not attained.

    A selection hosts on at most k of the m NFV nodes, so its hosts lie in
    some set H of s = min(k, m) of them, and L(H), the sum over chain
    instances of their cheapest pooled column inside H, bounds it from
    below. If the argmins at the H of least L (the first in
    `itertools.combinations` order, then the lowest pool position) fit the
    core rows, they attain the bound. None on an arc-flow master, whose end
    flows need the MIP, and when C(m, s) x |pool| exceeds `HOST_SET_CAP`.
    """
    nfv = instance.topology.nfv_nodes
    m = len(nfv)
    s = min(instance.k, m)
    groups = [model.pool_by_instance[ci.key] for ci in model.chain_instances]
    # a host set is an int64 bitmask over the NFV nodes
    if not model.compact or m > 63 or not all(groups):
        return None
    if math.comb(m, s) * len(model.pool) > HOST_SET_CAP:
        return None
    bit = {v: 1 << i for i, v in enumerate(nfv)}
    order = [p for g in groups for p in g]
    masks = np.array([sum(bit[v] for v in set(model.pool[p].locations)) for p in order])
    costs = np.array([model.lp.variables[model.zvar[p]].obj for p in order])
    sets = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations([1 << i for i in range(m)], s)),
        dtype=np.int64,
    ).reshape(-1, s).sum(axis=1)
    starts = np.cumsum([0] + [len(g) for g in groups[:-1]])
    scored = np.where((masks & ~sets[:, None]) == 0, costs, np.inf)  # inf outside H
    bound = np.minimum.reduceat(scored, starts, axis=1).sum(axis=1)
    h = int(np.argmin(bound))
    if bound[h] == np.inf:
        return None
    ends = [*starts[1:], len(order)]
    chosen = {model.zvar[order[a + int(np.argmin(scored[h, a:b]))]] for a, b in zip(starts, ends)}
    for r in model.core_row.values():
        row = model.lp.rows[r]
        if sum(a for j, a in row.coeffs if j in chosen) > row.rhs + FIT_TOL:
            return None
    x = [1.0 if var in chosen else 0.0 for var in range(model.lp.n_vars)]
    return _validated(instance, _decode(instance, model, x, model.zvar, False))


# share of `solve`'s time limit that column generation leaves to the final
# selection, so a run cut short by time still has time to pick a plan
SELECTION_SHARE = 0.25


def _deadline(time_limit: Optional[float]) -> Optional[float]:
    return None if time_limit is None else time.perf_counter() + time_limit


def _left(deadline: Optional[float]) -> Optional[float]:
    return None if deadline is None else deadline - time.perf_counter()


def _limit(deadline: Optional[float], stage: str) -> Optional[float]:
    """Seconds left before `deadline`; a spent budget is an error, never a
    zero or negative limit handed on."""
    left = _left(deadline)
    if left is not None and left <= 0:
        raise EngineError(f"time limit reached before {stage}")
    return left


def extract_plan(
    instance: ProblemInstance,
    model: RmpModel,
    time_limit: Optional[float] = None,
) -> MappingPlan:
    """Integer selection over the pooled columns, decoded and validated.

    Raises `Infeasible` naming the cut, before any solve, when the cores all
    placements need exceed those of the k NFV nodes with the most cores.
    The relaxation is re-solved when it is missing or predates columns added
    since. The four steps, in order:

    1. the relaxation point (`_relaxation_plan`): when it is already an
       integer selection within k it is the plan, and after a converged
       column generation its gap is 0;
    2. the host-set bound (`_host_set_plan`, compact masters): the cheapest
       pooled column per chain instance inside the best set of min(k, |NFV|)
       NFV nodes bounds every selection from below, so when those columns
       fit the core rows they are the selection program's optimum; it
       declines above `HOST_SET_CAP` (host set, pooled column) pairs;
    3. the selection program (`build_final_ilp`);
    4. the full program, on an arc-flow master only.

    No MIP runs when step 1 or 2 gives the plan. On a compact master the
    selection program is the only program. On an arc-flow master it
    relaxes the full program: a plan of it that validates is optimal, and
    its proven infeasibility is the full program's too. Only a plan that
    fails validation or a solve that ends without a plan falls back to the
    full program. `time_limit` (seconds) covers both attempts: the fallback
    gets only what the first one left. The program that chose the plan is
    logged at INFO.
    """
    deadline = _deadline(time_limit)
    cut = _core_cut(instance, instance.k)
    if cut:
        raise Infeasible(f"no plan exists at k={instance.k}: {cut}")
    if model.last_relaxation is None or len(model.last_relaxation.x) != model.lp.n_vars:
        solve_relaxation(model)
    plan, program = _relaxation_plan(instance, model), "relaxation point"
    if plan is None:
        plan, program = _host_set_plan(instance, model), "host-set bound"
    if plan is None:
        limit = _limit(deadline, "the final selection")
        program = "selection program"
        try:
            plan = _extract(instance, model, limit)
        except Infeasible:
            raise
        except EngineError as exc:
            if model.compact:
                raise
            log.info("selection program gave no valid plan (%s); solving the full program", exc)
            program = "full program"
            plan = _extract(instance, model, _limit(deadline, "the full selection"), full=True)
    log.info("plan chosen by the %s at k=%d", program, instance.k)
    return plan


def solve(
    instance: ProblemInstance,
    *,
    max_iters: int = 200,
    time_limit: Optional[float] = None,
    paths: Optional[PathTable] = None,
) -> SolveResult:
    """Full pipeline on one instance: partition, generate columns, select.

    `time_limit` (seconds) is one budget for the whole solve. Column
    generation stops with `SELECTION_SHARE` of it still left, and the final
    selection gets whatever is left. If the budget is spent all the same (a
    round or the relaxation refresh ran long), the selection still runs over
    the columns found so far, without a limit, and the overrun is logged.
    A `time_limit` that is not a finite positive number raises EngineError.
    """
    if time_limit is not None and not 0 < time_limit < math.inf:
        raise EngineError(f"time limit must be finite positive seconds, got {time_limit}")
    deadline = _deadline(time_limit)
    reserve = 0.0 if time_limit is None else SELECTION_SHARE * time_limit
    if paths is None:
        paths = all_pairs_hops(instance.topology)
    partitions = partition_all(instance, paths)
    model, trace = run_column_generation(
        instance,
        partitions,
        max_iters=max_iters,
        time_limit=None if deadline is None else max(0.0, _left(deadline) - reserve),
        paths=paths,
    )
    left = _left(deadline)
    if left is not None and left <= 0:
        log.warning(
            "time limit overrun by %.3g s before the final selection; selecting "
            "from the %d pooled columns without a limit",
            -left,
            len(model.pool),
        )
        left = None
    plan = extract_plan(instance, model, time_limit=left)
    return SolveResult(plan=plan, trace=trace, model=model, partitions=partitions)


# -- independent feasibility checking ----------------------------------------


def validate_plan(instance: ProblemInstance, plan: MappingPlan) -> list:
    """Re-derive every invariant from raw routes; stored aggregates are only
    cross-checked, never trusted."""
    violations: list = []
    topo = instance.topology
    covered: dict = {}

    for asg in plan.assignments:
        label = f"{asg.chain}/{asg.group_index}"
        if asg.chain not in instance.chains:
            violations.append(Violation("coverage", f"{label}: unknown chain"))
            continue
        violations.extend(
            Violation(*fault)
            for fault in placement_faults(
                instance, asg.chain, asg.locations, asg.segment_paths, label
            )
        )
        n = len(instance.chains[asg.chain].vnfs)
        if (len(asg.locations), len(asg.segment_paths)) != (n, n - 1):
            continue  # the routes have no ends to check against
        for route in asg.routes:
            pair_label = f"{label} {route.src}->{route.dst}"
            try:
                instance.demand_gbps(asg.chain, route.src, route.dst)
            except KeyError:
                violations.append(
                    Violation("coverage", f"{pair_label}: no such demand record")
                )
                continue
            covered.setdefault(asg.chain, []).append((route.src, route.dst))
            for arcs, a, b, end in (
                (route.first_arcs, route.src, asg.locations[0], "lead-in"),
                (route.last_arcs, asg.locations[-1], route.dst, "lead-out"),
            ):
                fault = route_fault(topo, arcs, a, b)
                if fault:
                    violations.append(Violation("contiguity", f"{pair_label} {end}: {fault}"))

    for chain in instance.chains_with_demand():
        want = instance.pairs_for_chain(chain)
        got = sorted(covered.get(chain, []))
        if got != want:
            missing = sorted(set(want) - set(got))
            extra = [p for p in got if got.count(p) > 1] + sorted(set(got) - set(want))
            violations.append(
                Violation(
                    "coverage",
                    f"chain {chain}: demand pairs not covered exactly once "
                    f"(missing {missing[:3]}, surplus {sorted(set(extra))[:3]})",
                )
            )

    safe = [
        asg
        for asg in plan.assignments
        if asg.chain in instance.chains
        and len(asg.locations) == len(instance.chains[asg.chain].vnfs)
        and all(v in topo.node_by_id for v in asg.locations)
    ]
    loads, cores, hosting = _aggregate(instance, safe)
    for arc, load in sorted(loads.items()):
        if tuple(arc) not in topo.arc_index:
            continue  # already reported as contiguity
        cap = topo.capacity(tuple(arc))
        if load > cap + 1e-6:
            violations.append(
                Violation("capacity", f"arc {arc[0]}->{arc[1]} carries {load} > {cap}")
            )
    for arc, load in sorted(plan.arc_loads.items()):
        key = tuple(arc)
        if key not in topo.arc_index:
            violations.append(
                Violation("arc_load_mismatch", f"stored load names unknown arc {arc}")
            )
            continue
        cap = topo.capacity(key)
        if load > cap + 1e-6:
            violations.append(
                Violation(
                    "capacity", f"stored load {load} on arc {arc[0]}->{arc[1]} > {cap}"
                )
            )
        if abs(load - loads.get(key, 0.0)) > 1e-6:
            violations.append(
                Violation(
                    "arc_load_mismatch",
                    f"arc {arc[0]}->{arc[1]}: stored {load}, recomputed "
                    f"{loads.get(key, 0.0)}",
                )
            )
    for key, load in sorted(loads.items()):
        if tuple(key) in topo.arc_index and key not in plan.arc_loads and load > 1e-6:
            violations.append(
                Violation(
                    "arc_load_mismatch", f"arc {key[0]}->{key[1]} loaded but not stored"
                )
            )
    for v, used in sorted(cores.items()):
        avail = topo.node_by_id[v].cores if v in topo.node_by_id else 0.0
        if used > avail + 1e-6:
            violations.append(
                Violation("cores", f"node {v} uses {used} cores of {avail}")
            )
    if len(hosting) > instance.k:
        violations.append(
            Violation(
                "k_exceeded",
                f"{len(hosting)} hosting nodes {list(hosting)} exceed k={instance.k}",
            )
        )
    recomputed = sum(loads.values())
    if abs(plan.objective_gbps_hops - recomputed) > 1e-6 * max(
        1.0, abs(recomputed)
    ):
        violations.append(
            Violation(
                "objective_mismatch",
                f"stored {plan.objective_gbps_hops}, recomputed {recomputed}",
            )
        )
    return violations


# -- plan serialization -------------------------------------------------------


def _nodes_to_arcs(nodes: list, where: str, known: dict) -> tuple:
    for v in nodes:
        if v not in known:
            raise EngineError(f"{where}: unknown node {v!r}")
    return tuple(zip(nodes, nodes[1:]))


def plan_to_json(plan: MappingPlan) -> str:
    doc = {
        "objective_gbps_hops": plan.objective_gbps_hops,
        "lp_bound": plan.lp_bound,
        "gap": plan.gap,
        "instances": [
            {
                "chain": a.chain,
                "group_index": a.group_index,
                "locations": list(a.locations),
                "segments": [path_nodes(list(seg)) for seg in a.segment_paths],
                "pairs": [
                    {
                        "src": r.src,
                        "dst": r.dst,
                        "first_route": path_nodes(list(r.first_arcs)),
                        "last_route": path_nodes(list(r.last_arcs)),
                    }
                    for r in a.routes
                ],
            }
            for a in plan.assignments
        ],
        "arc_loads": {
            f"{u}>{w}": load for (u, w), load in sorted(plan.arc_loads.items())
        },
        "nodes": {
            v: {
                "cores_used": plan.node_cores.get(v, 0.0),
                "hosts_vnfs": v in set(plan.hosting),
            }
            for v in sorted(set(plan.node_cores) | set(plan.hosting))
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def plan_from_json(text: str, instance: ProblemInstance) -> MappingPlan:
    """Parse a plan document; unresolvable references are errors, anything
    merely inconsistent is left for validate_plan to report."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise EngineError(f"plan is not valid JSON: {exc}") from None
    known = instance.topology.node_by_id
    try:
        assignments = []
        for entry in doc["instances"]:
            label = f"{entry['chain']}/{entry['group_index']}"
            locations = tuple(entry["locations"])
            for v in locations:
                if v not in known:
                    raise EngineError(f"{label}: unknown location node {v!r}")
            segments = tuple(
                _nodes_to_arcs(seg, f"{label} segment {i}", known)
                for i, seg in enumerate(entry["segments"])
            )
            routes = tuple(
                PairRoute(
                    src=p["src"],
                    dst=p["dst"],
                    first_arcs=_nodes_to_arcs(
                        p["first_route"], f"{label} {p['src']}->{p['dst']} lead-in", known
                    ),
                    last_arcs=_nodes_to_arcs(
                        p["last_route"], f"{label} {p['src']}->{p['dst']} lead-out", known
                    ),
                )
                for p in entry["pairs"]
            )
            for r in routes:
                for v in (r.src, r.dst):
                    if v not in known:
                        raise EngineError(f"{label}: unknown demand node {v!r}")
            assignments.append(
                InstanceAssignment(
                    chain=entry["chain"],
                    group_index=int(entry["group_index"]),
                    locations=locations,
                    segment_paths=segments,
                    routes=routes,
                )
            )
        arc_loads = {}
        for name, load in doc["arc_loads"].items():
            u, _, w = name.partition(">")
            for v in (u, w):
                if v not in known:
                    raise EngineError(f"arc_loads: unknown node {v!r}")
            arc_loads[(u, w)] = float(load)
        node_cores = {}
        hosting = []
        for v, info in doc["nodes"].items():
            if v not in known:
                raise EngineError(f"nodes: unknown node {v!r}")
            node_cores[v] = float(info["cores_used"])
            if info["hosts_vnfs"]:
                hosting.append(v)
        return MappingPlan(
            assignments=tuple(assignments),
            arc_loads=arc_loads,
            node_cores=node_cores,
            hosting=tuple(sorted(hosting)),
            objective_gbps_hops=float(doc["objective_gbps_hops"]),
            lp_bound=float(doc["lp_bound"]),
            gap=float(doc["gap"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise EngineError(f"malformed plan document: {exc!r}") from None
