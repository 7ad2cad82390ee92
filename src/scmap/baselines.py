"""Closed-form reference values: routing lower bound and placement extremes.

Everything here comes from hop counts and direct summation over demand
records, never from the LP stack, so these numbers stand as independent
checks on the solver. The one exception is the per-pair value's fallback
when its preconditions fail; that run is flagged as such in the report, and
its value is None when the engine finds no plan.
"""

from __future__ import annotations

import logging
from typing import NamedTuple, Optional

from .netmodel import ProblemInstance
from .pathcore import PathTable, all_pairs_hops

log = logging.getLogger(__name__)

CAP_TOL = 1e-9


class BaselineReport(NamedTuple):
    shortest_path_lb: float
    single_node: tuple  # (node id, objective), or (None, None) if no node fits
    per_pair_instance: Optional[float]  # None: the engine fallback found no plan
    per_pair_from_engine: bool


def shortest_path_lb(instance: ProblemInstance) -> float:
    """Bandwidth if every record could ride its shortest path untouched."""
    paths = all_pairs_hops(instance.topology)
    return float(
        sum(r.gbps * paths.distance(r.src, r.dst) for r in instance.demands.records)
    )


def _chain_core_rate(instance: ProblemInstance, chain: str) -> float:
    return sum(instance.chain_cores_per_gbps(chain))


def _fits(instance, loads, cores) -> bool:
    topo = instance.topology
    for arc, load in loads.items():
        if load > topo.capacity(arc) + CAP_TOL:
            return False
    for v, used in cores.items():
        if used > topo.node_by_id[v].cores + CAP_TOL:
            return False
    return True


def _single_node_usage(instance: ProblemInstance, v: str, paths: PathTable):
    loads: dict = {}
    cores = 0.0
    for r in instance.demands.records:
        for arc in paths.route(r.src, v):
            loads[arc] = loads.get(arc, 0.0) + r.gbps
        for arc in paths.route(v, r.dst):
            loads[arc] = loads.get(arc, 0.0) + r.gbps
        cores += r.gbps * _chain_core_rate(instance, r.chain)
    return loads, {v: cores}


def single_node_oracle(instance: ProblemInstance) -> tuple:
    """(node, objective) for hosting everything at one co-located site.

    The objective is the detour sum over all records; ties break to the
    lexicographically smallest node id. When the winner's implied loads
    exceed a capacity or its cores, the next candidate in (objective, id)
    order that fits is returned instead, and (None, None) when no node fits.
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
        loads, cores = _single_node_usage(instance, v, paths)
        if _fits(instance, loads, cores):
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


def _per_pair_applicable(instance: ProblemInstance) -> bool:
    """True when hosting each pair's chain at its own source verifiably fits."""
    topo = instance.topology
    paths = all_pairs_hops(topo)
    if set(topo.nfv_nodes) != set(topo.node_ids):
        return False
    loads: dict = {}
    cores: dict = {}
    for r in instance.demands.records:
        for arc in paths.route(r.src, r.dst):
            loads[arc] = loads.get(arc, 0.0) + r.gbps
        cores[r.src] = cores.get(r.src, 0.0) + r.gbps * _chain_core_rate(
            instance, r.chain
        )
    return _fits(instance, loads, cores)


def _per_pair(instance: ProblemInstance) -> tuple:
    if _per_pair_applicable(instance):
        return shortest_path_lb(instance), False
    log.warning(
        "per-pair construction is infeasible here; solving for the value instead"
    )
    from . import engine  # deliberate late import: keeps the formulas solver-free
    from .netmodel import ProblemInstance as PI

    relaxed = PI(
        instance.topology,
        instance.vnfs,
        instance.chains,
        instance.demands,
        k=len(instance.topology.nfv_nodes),
        nc={
            c: len(instance.pairs_for_chain(c)) for c in instance.chains_with_demand()
        },
    )
    try:
        return engine.solve(relaxed).plan.objective_gbps_hops, True
    except engine.Infeasible as exc:
        log.warning("per-pair fallback found no plan: %s", exc)
        return None, True


def baseline_report(instance: ProblemInstance) -> BaselineReport:
    per_pair, flagged = _per_pair(instance)
    return BaselineReport(
        shortest_path_lb=shortest_path_lb(instance),
        single_node=single_node_oracle(instance),
        per_pair_instance=per_pair,
        per_pair_from_engine=flagged,
    )
