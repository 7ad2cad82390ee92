"""Pipeline orchestration: grouping, column generation, integer solve.

The flow is necessary cuts -> master with its Phase-I artificials and
one-host columns -> iterate (relax, price, extend) -> integer selection ->
decode -> independent validation. On a compact master where no core row
binds, a round's relaxation is solved in closed form, each chain instance
at its cheapest pooled column with ties to the lowest pool position (see
`scmap.master`); otherwise HiGHS solves it. Pricing searches only the
chain instances whose round bound (`scmap.pricer`) is below -EPS or that
have no pooled column. Every selection step hands `_decode` one pool
position per chain instance (`_selected` reads them off an integer point).
A decoded plan's loads, node cores and hosting are `route_sums` of its
routes, one sum for every plan, and the plan is validated with those sums;
`validate_plan` runs the same sum afresh on any plan it is handed. The
relaxation carries no hosting budget, so one converged model serves every
k of a sweep and only the integer selection reads k. The price is a
k-blind `lp_bound`: the same at every k, and the reported `gap` is
measured against it.

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
from collections import Counter
from dataclasses import dataclass, field
from typing import IO, Iterable, NamedTuple, Optional

import numpy as np

from .master import (
    FIT_TOL,
    ChainInstance,
    RmpModel,
    add_colocated_columns,
    add_column,
    build_final_ilp,
    build_rmp,
    chain_instances,
    core_loads,
    node_cores,
    placement_faults,
    solve_relaxation,
)
from .netmodel import ProblemInstance
from .pathcore import all_pairs_hops, path_nodes, route_fault
from .pricer import (
    EPS,
    PricerError,
    PricingRound,
    price_chain_instance,
    price_round,
    segment_cost_table,
)
from .simplexkit import highs
from .sptg import ChainPartition, partition_all

log = logging.getLogger(__name__)


class EngineError(RuntimeError):
    """Unsolvable stage or a decoded plan that fails its own checks."""


class Infeasible(EngineError):
    """No assignment satisfies the budget and resource rows."""


class CgIteration(NamedTuple):
    iteration: int
    objective: float
    columns_added: int
    best_reduced_cost: float
    wall_ms: float
    lp_iterations: int  # HiGHS's simplex iterations on the round's relaxation; 0 in closed form
    relaxation: str  # how the round's relaxation was solved: "closed_form" or "highs"


@dataclass
class CgTrace:
    iterations: list = field(default_factory=list)
    converged: bool = False


class Violation(NamedTuple):
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


@dataclass(slots=True)
class PairRoute:
    """One demand pair's end routes. A decode builds one per pair, and
    this slots class builds fastest: a frozen `__init__` costs over three
    times as much and a NamedTuple no less; treat it as immutable all the
    same."""

    src: str
    dst: str
    first_arcs: tuple
    last_arcs: tuple


class InstanceAssignment(NamedTuple):
    chain: str
    group_index: int
    locations: tuple
    segment_paths: tuple
    routes: tuple


class MappingPlan(NamedTuple):
    assignments: tuple
    arc_loads: dict
    node_cores: dict
    hosting: tuple
    objective_gbps_hops: float
    lp_bound: float
    gap: float


class SolveResult(NamedTuple):
    plan: MappingPlan
    trace: CgTrace
    model: RmpModel


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


def _colocation_cut(
    instance: ProblemInstance, cis: Iterable[ChainInstance]
) -> Optional[Infeasible]:
    """Certificate that a chain instance above every arc's capacity fits on
    no single NFV node, or None.

    Any segment carries the instance's whole rate, so such an instance sits
    on one node v. Then v takes the Gbps of every member with source != v
    over its in-arcs and of every member with destination != v over its
    out-arcs, and the instance's cores.
    """
    topo = instance.topology
    top = max((a.capacity_gbps for a in topo.arcs), default=math.inf)
    for ci in cis:
        if ci.total_gbps <= top + 1e-9:
            continue
        cores = ci.total_gbps * sum(instance.chain_cores_per_gbps(ci.chain))
        ranked = []
        for v in topo.nfv_nodes:
            into = sum(g for (s, _), g in ci.demand.items() if s != v)
            out = sum(g for (_, d), g in ci.demand.items() if d != v)
            have_in = sum(topo.capacity(a) for a in topo.in_arcs[v])
            have_out = sum(topo.capacity(a) for a in topo.out_arcs[v])
            checks = ((into, have_in), (out, have_out), (cores, topo.node_by_id[v].cores))
            if all(need <= have + 1e-9 for need, have in checks):
                break
            worst = max(need / have if have else math.inf for need, have in checks if need)
            ranked.append((worst, v, checks))
        else:
            _, v, ((into, have_in), (out, have_out), (_, have_cores)) = min(ranked)
            return Infeasible(
                f"chain instance {ci.label} carries {ci.total_gbps:g} Gbps, above "
                f"every arc's capacity ({top:g}), so it must be co-located on one "
                f"node, and no NFV node takes it: the closest, {v}, needs "
                f"{into:g} Gbps in over {have_in:g}, {out:g} Gbps out over "
                f"{have_out:g} and {cores:g} cores of its {have_cores} (relative "
                f"to the demand grouping)"
            )
    return None


def diagnose_infeasibility(instance: ProblemInstance) -> list:
    """Cheap necessary-condition cuts that name what cannot fit.

    Any demand pair s != d pushes its gbps out of s and into d no matter
    where the chain sits, so a node cut below those sums is a certificate.
    """
    hints = []
    topo = instance.topology
    for way, gbps, arcs_at, side in (
        ("leaving", instance.out_gbps, topo.out_arcs, "outgoing"),
        ("entering", instance.in_gbps, topo.in_arcs, "incoming"),
    ):
        for v, need in sorted(gbps.items()):
            arcs = arcs_at[v]
            have = sum(topo.capacity(a) for a in arcs)
            if need > have + 1e-9:
                hints.append(
                    f"demand {way} {v} totals {need:g} Gbps but its {side} arcs "
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
    needed = instance.core_need
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
) -> tuple[RmpModel, CgTrace]:
    """Iterate relax/price/extend until a full pricing round adds nothing.

    A necessary cut of `diagnose_infeasibility`, or `_colocation_cut` on the
    grouped chain instances, that fires is a proof that no plan exists, so
    it raises `Infeasible` before the master is built. The master's
    artificial columns (each stands for its chain instance left unserved)
    make it feasible from the first solve, so it needs no seed; its
    one-host columns are pooled as one block before the first round. Each
    round prices only the chain instances `_to_price` names. A chain
    instance that fits on no placement raises the `_no_placement`
    certificate when the pricer finds none.

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
    partitions = tuple(partitions)
    cis = chain_instances(instance, partitions)
    cut = _colocation_cut(instance, cis)
    if cut:
        raise cut
    model = build_rmp(instance, partitions, cis)
    # fallback columns: each chain instance whole at every NFV node where it
    # fits, so the integer stage has every one-host choice that exists
    add_colocated_columns(model)

    trace = CgTrace()
    last = 0.0  # duration of the previous iteration
    bound = 0.0  # every cost is >= 0
    for it in range(1, max_iters + 1):
        tick = time.perf_counter()
        if time_limit is not None and tick - started + 2 * last > time_limit:
            log.warning("column generation stopped by time limit after %d iterations", it - 1)
            break
        sol, duals = solve_relaxation(model)
        pricing = price_round(
            instance, model.chain_instances, duals, segment_cost_table(instance, duals)
        )
        added = 0
        best_rc = 0.0
        lagrangian = sol.objective
        for ci in _to_price(model, pricing):
            try:
                priced = price_chain_instance(instance, ci, pricing)
            except PricerError as exc:
                raise _no_placement(instance, ci) from exc
            if priced is None:
                continue
            locations, segments, reduced = priced
            best_rc = min(best_rc, reduced)
            lagrangian += reduced
            before = len(model.pool)
            add_column(model, ci, locations, segments)
            if len(model.pool) > before:
                added += 1
        bound = max(bound, lagrangian)
        last = time.perf_counter() - tick
        trace.iterations.append(
            CgIteration(it, sol.objective, added, best_rc, last * 1e3, sol.iterations, sol.method)
        )
        if added == 0:
            trace.converged = True
            break
    if not trace.converged:
        # no round ran, or the last one pooled a column: refresh the
        # relaxation so it covers the whole pool
        solve_relaxation(model)
        model.truncated_bound = bound
        log.warning(
            "column generation truncated (%d iterations, %d columns)",
            len(trace.iterations),
            len(model.pool),
        )
    return model, trace


def _to_price(model: RmpModel, pricing: PricingRound) -> list:
    """The chain instances a round must search: those whose sweep bound is
    below -EPS, and those with no pooled column, which may fit nowhere.

    The bound never exceeds an instance's least reduced cost, so no column
    of any other instance prices out; they would return None.
    """
    pooled = np.bincount(model.z_ci, minlength=len(model.chain_instances))
    search = (pricing.bound < -EPS) | (pooled == 0)
    return [model.chain_instances[i] for i in np.flatnonzero(search).tolist()]


def write_trace_csv(trace: CgTrace, fh: IO[str]) -> None:
    fh.write("iter,objective,columns_added,best_rc,wall_ms,lp_iters,relaxation\n")
    for row in trace.iterations:
        fh.write(
            f"{row.iteration},{row.objective:.6f},{row.columns_added},"
            f"{row.best_reduced_cost:.6f},{row.wall_ms:.1f},{row.lp_iterations},"
            f"{row.relaxation}\n"
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


def route_sums(instance: ProblemInstance, assignments) -> tuple[dict, dict, tuple]:
    """Recompute arc loads, node core use, and hosting set from raw routes.

    The Gbps on each distinct route (an arc tuple) is summed first, so each
    one's arcs are walked once however many pairs share it.
    """
    carried: dict = {}  # route -> Gbps along it
    cores: dict = {}
    hosting = set()
    gbps_of, on = instance.demands.gbps.get, carried.get
    for asg in assignments:
        chain = asg.chain
        per_gbps = instance.chain_cores_per_gbps(chain)
        # a route with no demand record carries nothing; validate_plan
        # reports it as a coverage fault of its own
        gbps = [gbps_of((chain, route.src, route.dst)) for route in asg.routes]
        dgroup = sum(g for g in gbps if g is not None)
        for seg in asg.segment_paths:
            carried[seg] = on(seg, 0.0) + dgroup
        for route, g in zip(asg.routes, gbps):
            if g is not None:
                first, last = route.first_arcs, route.last_arcs
                carried[first] = on(first, 0.0) + g
                carried[last] = on(last, 0.0) + g
        for pos, v in enumerate(asg.locations):
            cores[v] = cores.get(v, 0.0) + dgroup * per_gbps[pos]
            hosting.add(v)
    loads: dict = {}
    at = loads.get
    for arcs, g in carried.items():
        for arc in arcs:
            loads[arc] = at(arc, 0.0) + g
    return loads, cores, tuple(sorted(hosting))


def _end_routes(model: RmpModel, x, ci: ChainInstance, location: str, lead_in: bool):
    """Member pair -> arcs of its lead-in (or lead-out), peeled off the
    rounded integer flow of each end commodity of `ci` and handed to the
    member pairs in sorted order."""
    arcs = model.instance.topology.arc_index
    out = {}
    for end in model.ends:
        if end.i != ci.index or end.lead_in != lead_in:
            continue
        flow = {arc: round(x[end.y0 + a]) for arc, a in arcs.items()}
        start, stop = (end.point, location) if lead_in else (location, end.point)
        label = f"{ci.label} {'lead-in' if lead_in else 'lead-out'} {end.point}@{end.gbps:g}"
        out.update(zip(end.pairs, _peel_walks(flow, start, stop, len(end.pairs), label)))
    return out


def _selected(model: RmpModel, x, z0: int) -> list:
    """The pool position each chain instance selects, in instance order, at
    an integer point `x` whose variable z0 + p is pool position p."""
    picked = np.flatnonzero(np.asarray(x)[z0 : z0 + len(model.pool)] > 0.5)
    count = np.bincount(model.z_ci[picked], minlength=len(model.chain_instances))
    for ci in model.chain_instances:
        if count[ci.index] != 1:
            raise EngineError(
                f"instance {ci.label}: {count[ci.index]} configurations selected"
            )
    return picked[np.argsort(model.z_ci[picked])].tolist()


def _decode(
    instance: ProblemInstance, model: RmpModel, chosen: list, point=None
) -> MappingPlan:
    """The plan that selects pool positions `chosen`, one per chain
    instance in instance order, each at its `z_loc` row (up to its chain's
    length) joined by its `pool` routes. With an integer `point` of the
    master or its full program, each end is routed by that point's end
    flows; without one, each end takes its hop-shortest path, the hop
    table's own route tuple. Either way the loads, node cores and hosting
    are `route_sums` of the routes just built."""
    paths = all_pairs_hops(instance.topology)
    nfv = instance.topology.nfv_nodes
    assignments = []
    for ci, p, loc in zip(model.chain_instances, chosen, model.z_loc[chosen].tolist()):
        locations = tuple(nfv[v] for v in loc[: len(ci.vnfs)])
        head, tail = locations[0], locations[-1]
        if point is not None:
            first = _end_routes(model, point, ci, head, lead_in=True)
            last = _end_routes(model, point, ci, tail, lead_in=False)
            routes = [
                PairRoute(s, d, tuple(first[s, d]), tuple(last[s, d])) for s, d in ci.pairs
            ]
        else:
            route = paths.route
            routes = [PairRoute(s, d, route(s, head), route(tail, d)) for s, d in ci.pairs]
        assignments.append(
            InstanceAssignment(
                chain=ci.chain,
                group_index=ci.group_index,
                locations=locations,
                segment_paths=model.pool[p],
                routes=tuple(routes),
            )
        )
    loads, cores, hosting = route_sums(instance, assignments)
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
    chosen = _selected(model, mip.x, final.z0)
    return _validated(instance, _decode(instance, model, chosen, mip.x if final.full else None))


def _validated(instance: ProblemInstance, plan: MappingPlan) -> MappingPlan:
    """`plan`, fresh from `_decode`, once every check of `validate_plan`
    passes; its stored aggregates are the `route_sums` of its routes that
    `_decode` just ran, so the checks read them rather than sum again."""
    aggregate = (plan.arc_loads, plan.node_cores, plan.hosting)
    violations = _violations(instance, plan, aggregate)
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
    x = np.asarray(model.last_relaxation.x)
    if (x[: len(model.chain_instances)] > INTEGRAL_TOL).any():  # the artificials
        return None
    if (np.abs(x - np.round(x)) > INTEGRAL_TOL).any():
        return None
    x = np.round(x)
    chosen = _selected(model, x, model.z0)
    if np.count_nonzero(np.bincount(model.z_loc[chosen].ravel())) > instance.k:
        return None
    plan = _decode(instance, model, chosen, None if model.compact else x.tolist())
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
    m = len(model.nfv_index)
    s = min(instance.k, m)
    counts = np.bincount(model.z_ci, minlength=len(model.chain_instances))
    # a host set is an int64 bitmask over the NFV nodes
    if not model.compact or m > 63 or not counts.all():
        return None
    if math.comb(m, s) * len(model.pool) > HOST_SET_CAP:
        return None
    # the pool grouped by chain instance, pool order within each
    order = np.argsort(model.z_ci, kind="stable")
    masks = np.bitwise_or.reduce(np.left_shift(1, model.z_loc[order]), axis=1)
    costs = model.z_obj[order]
    sets = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations([1 << i for i in range(m)], s)),
        dtype=np.int64,
    ).reshape(-1, s).sum(axis=1)
    starts = np.r_[0, np.cumsum(counts)[:-1]]
    scored = np.where((masks & ~sets[:, None]) == 0, costs, np.inf)  # inf outside H
    bound = np.minimum.reduceat(scored, starts, axis=1).sum(axis=1)
    h = int(np.argmin(bound))
    if bound[h] == np.inf:
        return None
    ends = [*starts[1:], len(order)]
    chosen = [order[a + int(np.argmin(scored[h, a:b]))] for a, b in zip(starts, ends)]
    if (core_loads(model, chosen) > node_cores(model) + FIT_TOL).any():
        return None
    return _validated(instance, _decode(instance, model, chosen))


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
    model, trace = run_column_generation(
        instance,
        partition_all(instance),
        max_iters=max_iters,
        time_limit=None if deadline is None else max(0.0, _left(deadline) - reserve),
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
    return SolveResult(plan=plan, trace=trace, model=model)


# -- independent feasibility checking ----------------------------------------


def validate_plan(instance: ProblemInstance, plan: MappingPlan) -> list:
    """Re-derive every invariant from raw routes; stored aggregates (arc
    loads, node cores, hosting set, objective) are only cross-checked, never
    trusted, and a stored NaN matches nothing."""
    return _violations(instance, plan, None)


def _violations(instance: ProblemInstance, plan: MappingPlan, aggregate) -> list:
    """The checks of `validate_plan`. `aggregate` is `route_sums` of every
    assignment of `plan`, or None to compute it here over the assignments
    whose chain and locations are known. A route is checked once per
    (arcs object, start, end), however many pairs share it: a decoded
    plan's pairs share the hop table's route tuples, and keying them by
    identity spares hashing each pair's arc tuple."""
    violations: list = []
    topo = instance.topology
    covered: dict = {}
    # (id of an arc tuple, start, end) -> route_fault, None when clean; the
    # plan holds every tuple for the whole call, so no id is reused
    faults: dict = {}
    demands = instance.demands.gbps

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
        head, tail = asg.locations[0], asg.locations[-1]
        pairs = covered.setdefault(asg.chain, [])
        for route in asg.routes:
            if (asg.chain, route.src, route.dst) not in demands:
                violations.append(
                    Violation(
                        "coverage", f"{label} {route.src}->{route.dst}: no such demand record"
                    )
                )
                continue
            pairs.append((route.src, route.dst))
            for arcs, start, stop, end in (
                (route.first_arcs, route.src, head, "lead-in"),
                (route.last_arcs, tail, route.dst, "lead-out"),
            ):
                key = (id(arcs), start, stop)
                fault = faults.get(key, False)
                if fault is False:
                    fault = faults[key] = route_fault(topo, arcs, start, stop)
                if fault:
                    violations.append(
                        Violation("contiguity", f"{label} {route.src}->{route.dst} {end}: {fault}")
                    )

    for chain in instance.chains_with_demand():
        want = instance.pairs_for_chain(chain)
        got = sorted(covered.get(chain, []))
        if got != want:
            wanted, times = set(want), Counter(got)
            missing = sorted(wanted - times.keys())
            extra = sorted(p for p, n in times.items() if n > 1 or p not in wanted)
            violations.append(
                Violation(
                    "coverage",
                    f"chain {chain}: demand pairs not covered exactly once "
                    f"(missing {missing[:3]}, surplus {extra[:3]})",
                )
            )

    # a chain takes at most its nc instances (`ProblemInstance` clamps nc
    # to the chain's pair count), each with its own group index
    count = Counter(asg.chain for asg in plan.assignments if asg.chain in instance.chains)
    for chain, n in sorted(count.items()):
        nc = instance.nc.get(chain, 1)
        if n > nc:
            violations.append(
                Violation("instance_count", f"chain {chain}: {n} instances, nc={nc}")
            )
    seen: set = set()
    for asg in plan.assignments:
        key = (asg.chain, asg.group_index)
        if key in seen:
            violations.append(
                Violation("instance_count", f"{asg.chain}/{asg.group_index}: assigned twice")
            )
        seen.add(key)

    if aggregate is None:
        safe = [
            asg
            for asg in plan.assignments
            if asg.chain in instance.chains
            and len(asg.locations) == len(instance.chains[asg.chain].vnfs)
            and all(v in topo.node_by_id for v in asg.locations)
        ]
        aggregate = route_sums(instance, safe)
    loads, cores, hosting = aggregate
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
        if not abs(load - loads.get(key, 0.0)) <= 1e-6:  # a NaN never matches
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
    for v in sorted(cores.keys() | plan.node_cores.keys()):
        stored, used = plan.node_cores.get(v, 0.0), cores.get(v, 0.0)
        if not abs(stored - used) <= 1e-6:
            violations.append(
                Violation("node_cores_mismatch", f"node {v}: stored {stored}, recomputed {used}")
            )
    for v in sorted(set(hosting) ^ set(plan.hosting)):
        violations.append(
            Violation(
                "hosting_mismatch",
                f"node {v} hosts VNFs but is not stored as hosting"
                if v in hosting
                else f"node {v} is stored as hosting but hosts no VNF",
            )
        )
    if len(hosting) > instance.k:
        violations.append(
            Violation(
                "k_exceeded",
                f"{len(hosting)} hosting nodes {list(hosting)} exceed k={instance.k}",
            )
        )
    recomputed = sum(loads.values())
    if not abs(plan.objective_gbps_hops - recomputed) <= 1e-6 * max(
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


def _list(value, where: str) -> list:
    """`value`, which a plan document holds as a JSON list at `where`."""
    if not isinstance(value, list):
        raise TypeError(f"{where} must be a list, got {value!r}")
    return value


def _nodes_to_arcs(nodes: list, where: str, known: dict) -> tuple:
    for v in _list(nodes, where):
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
    part = "instances"  # the field being read, for the message
    try:
        assignments = []
        for entry in _list(doc["instances"], "instances"):
            label = f"{entry['chain']}/{entry['group_index']}"
            locations = tuple(_list(entry["locations"], f"{label} locations"))
            for v in locations:
                if v not in known:
                    raise EngineError(f"{label}: unknown location node {v!r}")
            segments = tuple(
                _nodes_to_arcs(seg, f"{label} segment {i}", known)
                for i, seg in enumerate(_list(entry["segments"], f"{label} segments"))
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
                for p in _list(entry["pairs"], f"{label} pairs")
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
        arc_loads, part = {}, "arc_loads"
        for name, load in doc["arc_loads"].items():
            u, _, w = name.partition(">")
            for v in (u, w):
                if v not in known:
                    raise EngineError(f"arc_loads: unknown node {v!r}")
            arc_loads[(u, w)] = float(load)
        node_cores, hosting, part = {}, [], "nodes"
        for v, info in doc["nodes"].items():
            if v not in known:
                raise EngineError(f"nodes: unknown node {v!r}")
            node_cores[v] = float(info["cores_used"])
            if info["hosts_vnfs"]:
                hosting.append(v)
        part = "objective_gbps_hops, lp_bound and gap"
        return MappingPlan(
            assignments=tuple(assignments),
            arc_loads=arc_loads,
            node_cores=node_cores,
            hosting=tuple(sorted(hosting)),
            objective_gbps_hops=float(doc["objective_gbps_hops"]),
            lp_bound=float(doc["lp_bound"]),
            gap=float(doc["gap"]),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise EngineError(f"malformed plan document at {part}: {exc!r}") from None
