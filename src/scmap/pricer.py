"""Exact pricing: the minimum-reduced-cost self-feasible configuration per
chain instance.

The reduced cost decomposes additively: each position i at node v pays
-(core_dual_v * D * cores_per_gbps(f_i)) - end_charge, and each segment pays
a shortest path under arc weight D * (1 - capacity_dual). The end charge of
the first or last position at v is the end-flow rows' duals there less the
end cost (`master.DualPrices.end`); a compact master has no end-flow rows,
so both master shapes price through the same code. One depth-first search
over the location tuples that fit the nodes' cores finds the optimum, cut by
a layered cost-to-go sweep over every tuple, which never overestimates. The
brute-force enumeration tests confirm this rather than assume it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .master import (
    FIT_TOL,
    ChainInstance,
    Configuration,
    DualPrices,
    make_configuration,
    position_cores,
)
from .netmodel import ProblemInstance
from .pathcore import all_pairs_hops, shortest_path_weighted

EPS = 1e-6


class PricerError(ValueError):
    """Malformed pricing input, or no placement that fits the nodes' cores."""


@dataclass(frozen=True)
class SegmentCostTable:
    """Cheapest inter-location segments under 1-per-Gbps arc weights.

    `matrix[i, j]` is the weighted hop cost for one Gbps from the i-th to
    the j-th NFV node (`Topology.nfv_nodes` order), and `path[(u, w)]` its
    arcs; a chain instance scales the matrix by its group demand, which
    leaves the argmin paths unchanged, so one table serves every instance
    under the same duals.
    """

    matrix: np.ndarray
    path: dict


def segment_cost_table(instance: ProblemInstance, duals: DualPrices) -> SegmentCostTable:
    """With no negative capacity dual every arc weighs 1, and the table is
    read off the topology's hop table, its matrix one slice of the hop
    matrix: it breaks ties toward the lexicographically smallest node
    sequence, as the Dijkstra does. Otherwise each segment is a Dijkstra
    under the dual-scaled weights."""
    topo = instance.topology
    weights = {}
    for arc in topo.arc_index:
        mu = duals.capacity.get(arc, 0.0)
        if mu > EPS:
            raise PricerError(f"capacity dual for {arc} is positive ({mu})")
        weights[arc] = 1.0 - min(mu, 0.0)
    unit = all(w == 1.0 for w in weights.values())
    paths = all_pairs_hops(topo)
    nfv = topo.nfv_nodes
    if unit:
        at = [paths.index[v] for v in nfv]
        matrix = paths.hops[np.ix_(at, at)].astype(float)
        path = {(u, w): tuple(paths.path_arcs(u, w)) for u in nfv for w in nfv}
        return SegmentCostTable(matrix=matrix, path=path)
    matrix = np.zeros((len(nfv), len(nfv)))
    path = {}
    for i, u in enumerate(nfv):
        for j, w in enumerate(nfv):
            if u == w:
                path[(u, w)] = ()
                continue
            cost, arcs = shortest_path_weighted(topo, weights, u, w)
            matrix[i, j] = cost
            path[(u, w)] = tuple(arcs)
    return SegmentCostTable(matrix=matrix, path=path)


def _fitting_argmin(
    node_cost: list, seg: list, need: list, cores: list
) -> tuple[float, Optional[tuple[int, ...]]]:
    """Cheapest location tuple (node indices) whose core use fits every
    node, with its cost; (inf, None) if none fits.

    `node_cost[pos][v]` is position pos's cost at node v and `seg[v][w]`
    the segment cost from v to w. Depth-first over positions, nodes in
    order, cut by the cost-to-go of the unrestricted layered sweep, which
    never overestimates; a tuple replaces the best one found only when it
    is strictly cheaper, so ties go to the lexicographically smallest. The
    sweep is one array min per position; the search reads it as lists.
    """
    n, m = len(need), len(cores)
    if sum(need) > sum(cores) + FIT_TOL:
        return math.inf, None
    # togo[pos][v]: cheapest completion of positions after pos, v at pos
    cost_at = np.array(node_cost, dtype=float).reshape(n, m)
    seg_cost = np.array(seg, dtype=float).reshape(m, m)
    sweep = [np.zeros(m)]
    for pos in range(n - 2, -1, -1):
        sweep.append((seg_cost + (cost_at[pos + 1] + sweep[-1])).min(axis=1))
    togo = [row.tolist() for row in reversed(sweep)]
    left = list(cores)
    picked: list = []
    best: list = [math.inf, None]

    def dive(pos: int, prev: int, cost: float) -> None:
        for v in range(m):
            if left[v] + FIT_TOL < need[pos]:
                continue
            here = cost + node_cost[pos][v] + (seg[prev][v] if pos else 0.0)
            if here + togo[pos][v] >= best[0] - 1e-12:
                continue
            if pos == n - 1:
                best[:] = [here, tuple(picked) + (v,)]
                continue
            left[v] -= need[pos]
            picked.append(v)
            dive(pos + 1, v, here)
            picked.pop()
            left[v] += need[pos]

    dive(0, 0, 0.0)
    return best[0], best[1]


def best_configuration(
    instance: ProblemInstance,
    chain_instance: ChainInstance,
    duals: DualPrices,
    seg_table: SegmentCostTable,
) -> tuple[Configuration, float]:
    """Exact reduced-cost minimizer over the self-feasible configurations of
    one chain instance, with its reduced cost.

    Among placements of equal reduced cost the one whose tuple of NFV-node
    indices is lexicographically smallest wins, so repeated calls under
    equal duals return the same configuration. Raises PricerError when no
    location tuple fits the nodes' cores.
    """
    ci = chain_instance
    nfv = instance.topology.nfv_nodes
    node = instance.topology.node_by_id
    dgroup = ci.total_gbps
    need = position_cores(instance, ci)
    node_cost = [
        [
            -duals.core.get(v, 0.0) * need[pos]
            - duals.end.get((ci.key, pos, v), 0.0)
            for v in nfv
        ]
        for pos in range(len(need))
    ]
    seg = (dgroup * seg_table.matrix).tolist()
    cost, picked = _fitting_argmin(node_cost, seg, need, [float(node[v].cores) for v in nfv])
    if picked is None:
        raise PricerError(f"{ci.label}: no placement fits the nodes' cores")
    locations = tuple(nfv[i] for i in picked)
    segments = tuple(seg_table.path[pair] for pair in zip(locations, locations[1:]))
    config = make_configuration(ci, locations, segments)
    return config, cost - duals.convexity.get(ci.key, 0.0)


def price_chain_instance(
    instance: ProblemInstance,
    chain_instance: ChainInstance,
    duals: DualPrices,
    seg_table: SegmentCostTable,
) -> Optional[tuple[Configuration, float]]:
    """Return an improving configuration and its reduced cost, or None when
    none prices out."""
    config, reduced = best_configuration(instance, chain_instance, duals, seg_table)
    if reduced >= -EPS:
        return None
    return config, reduced
