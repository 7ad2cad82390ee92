"""Closed-form reference values: routing lower bound and placement extremes.

Every value comes from hop counts over the demand records, never from the
LP stack, so these numbers stand as independent checks on the solver. A
single-node or per-pair placement fits when `engine.validate_plan` passes
it as a plan on the hop table's routes. The one exception is the per-pair
value when its placement does not fit: `engine.solve` finds it, flagged as
such, and it is None when the engine finds no plan.
"""

from __future__ import annotations

import dataclasses
import logging

from . import engine
from .netmodel import ProblemInstance
from .pathcore import all_pairs_hops

log = logging.getLogger(__name__)


def shortest_path_lb(instance: ProblemInstance) -> float:
    """Bandwidth if every record could ride its shortest path untouched."""
    paths = all_pairs_hops(instance.topology)
    return float(
        sum(r.gbps * paths.distance(r.src, r.dst) for r in instance.demands.records)
    )


def _colocated(instance, chain: str, index: int, v: str, routes: tuple):
    """Chain instance `index` of `chain` with every position at node `v`."""
    n = len(instance.chains[chain].vnfs)
    return engine.InstanceAssignment(chain, index, (v,) * n, ((),) * (n - 1), routes)


def _valid(instance: ProblemInstance, assignments: list) -> bool:
    """True when the plan of `assignments` passes `engine.validate_plan`."""
    loads, cores, hosting = engine.route_sums(instance, assignments)
    objective = sum(loads.values())
    plan = engine.MappingPlan(
        tuple(assignments), loads, cores, hosting, objective, objective, 0.0
    )
    return not engine.validate_plan(instance, plan)


def single_node_oracle(instance: ProblemInstance) -> tuple:
    """(node, objective) for hosting everything at one co-located site.

    The objective is the detour sum over all records; ties break to the
    lexicographically smallest node id. When the winner's placement does
    not fit the capacities or its cores, the next candidate in (objective,
    id) order that fits is returned instead, and (None, None) when no node
    fits.
    """
    paths = all_pairs_hops(instance.topology)
    ranked = sorted(
        (
            float(
                sum(
                    r.gbps * (paths.distance(r.src, v) + paths.distance(v, r.dst))
                    for r in instance.demands.records
                )
            ),
            v,
        )
        for v in instance.topology.nfv_nodes
    )
    for value, v in ranked:
        placement = []
        for chain in instance.chains_with_demand():
            routes = tuple(
                engine.PairRoute(s, d, paths.route(s, v), paths.route(v, d))
                for s, d in instance.pairs_for_chain(chain)
            )
            placement.append(_colocated(instance, chain, 0, v, routes))
        if _valid(instance, placement):
            if (value, v) != ranked[0]:
                log.warning(
                    "single-node oracle: %s (%.6g) does not fit the capacities "
                    "or cores, reporting %s (%.6g)",
                    ranked[0][1],
                    ranked[0][0],
                    v,
                    value,
                )
            return v, value
    return None, None


def per_pair(instance: ProblemInstance) -> tuple:
    """(value, from_engine) of giving every demand pair its own instance.

    Where every node is NFV-capable and each pair's chain at its source
    fits, the value is the shortest-path bound. Otherwise the engine solves
    for it at k = |NFV| and nc = each chain's pair count: from_engine is
    True, and the value is None when the engine finds no plan.
    """
    topo = instance.topology
    relaxed = dataclasses.replace(
        instance,
        k=len(topo.nfv_nodes),
        nc={c: len(instance.pairs_for_chain(c)) for c in instance.chains_with_demand()},
    )
    if set(topo.nfv_nodes) == set(topo.node_ids):
        paths = all_pairs_hops(topo)
        placement = [
            _colocated(instance, chain, i, s, (engine.PairRoute(s, d, (), paths.route(s, d)),))
            for chain in instance.chains_with_demand()
            for i, (s, d) in enumerate(instance.pairs_for_chain(chain))
        ]
        if _valid(relaxed, placement):
            return shortest_path_lb(instance), False
    log.warning(
        "per-pair construction is infeasible here; solving for the value instead"
    )
    try:
        return engine.solve(relaxed).plan.objective_gbps_hops, True
    except engine.Infeasible as exc:
        log.warning("per-pair fallback found no plan: %s", exc)
        return None, True
