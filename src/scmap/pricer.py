"""Exact pricing: the minimum-reduced-cost self-feasible column per chain
instance.

The reduced cost decomposes additively: each position i at node v pays
-(core_dual_v * D * cores_per_gbps(f_i)) - end_charge, and each segment pays
a least-cost path under arc weight D * (1 - capacity_dual): one all-pairs
table per round (`segment_cost_table`), from the same least-cost routine
whose unit-weight table is the topology's hop table. The end charge of
the first or last position at v is the end-flow rows' duals there less the
end cost (`master.DualPrices.end`); a compact master has no end-flow rows,
so both master shapes price through the same code.

A round is priced in one array pass first (`price_round`): a layered
cost-to-go sweep over chain instance x position x NFV node arrays, each
segment the instance's rate times the segment table, gives every instance
the least reduced cost over all location tuples, cores ignored. That never
overestimates the exact minimum, so an instance whose bound is at least
-`EPS` has no column that prices out and needs no search. For the others,
one depth-first search over the location tuples that fit the nodes' cores
finds the optimum, cut by the same sweep's cost-to-go. The brute-force
enumeration tests confirm both rather than assume them.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

import numpy as np

from .master import (
    ARRAY_BLOCK,
    FIT_TOL,
    ChainInstance,
    DualPrices,
    position_rates,
)
from .netmodel import ProblemInstance
from .pathcore import all_pairs_hops, shortest_path_weighted

EPS = 1e-6


class PricerError(ValueError):
    """Malformed pricing input, or no placement that fits the nodes' cores."""


class SegmentCostTable(NamedTuple):
    """Cheapest inter-location segments under 1-per-Gbps arc weights.

    `matrix[i, j]` is the weighted hop cost for one Gbps from the i-th to
    the j-th NFV node (`Topology.nfv_nodes` order), and `path(u, w)` its
    arcs; a chain instance scales the matrix by its group demand, which
    leaves the argmin paths unchanged, so one table serves every instance
    under the same duals.
    """

    matrix: np.ndarray
    path: Callable[[str, str], tuple]


def segment_cost_table(instance: ProblemInstance, duals: DualPrices) -> SegmentCostTable:
    """The segment table of a round: arc weights 1 - capacity dual, read
    off one all-pairs least-cost table, its matrix a slice of the table's
    costs and a segment's path the table's canonical route, walked only
    when asked for. With no negative capacity dual every arc weighs 1, and
    that table is the topology's own hop table; otherwise it is built once
    for the round by `shortest_path_weighted`."""
    topo = instance.topology
    mu = duals.capacity
    bad = np.flatnonzero(mu > EPS)
    if bad.size:
        a = bad[0]
        raise PricerError(f"capacity dual for {list(topo.arc_index)[a]} is positive ({mu[a]})")
    weights = 1.0 - np.minimum(mu, 0.0)
    paths = all_pairs_hops(topo)
    if (weights != 1.0).any():
        paths = shortest_path_weighted(topo, weights)
    at = [paths.index[v] for v in topo.nfv_nodes]
    return SegmentCostTable(matrix=paths.hops[np.ix_(at, at)].astype(float), path=paths.route)


def cost_to_go(
    node_cost: np.ndarray, rate: np.ndarray, length: np.ndarray, matrix: np.ndarray
) -> np.ndarray:
    """The layered sweep: [i, p, v] is the cheapest completion of the
    positions after p of instance i with p at the v-th node, cores ignored.

    `node_cost[i, p, v]` is position p's cost at v (0 past the chain), the
    segment from u to w costs `rate[i] * matrix[u, w]`, and instance i has
    `length[i]` positions. One array min per position, over a block of
    instances at a time.
    """
    n_ci, n_pos, m = node_cost.shape
    togo = np.zeros_like(node_cost)
    # the segment out of position p, none past the chain's last position
    scale = np.where(np.arange(1, n_pos) < length[:, None], rate[:, None], 0.0)
    step = max(1, ARRAY_BLOCK // max(1, m * m))
    for p in range(n_pos - 2, -1, -1):
        ahead = node_cost[:, p + 1] + togo[:, p + 1]
        for lo in range(0, n_ci, step):
            hi = lo + step
            seg = scale[lo:hi, p, None, None] * matrix
            togo[lo:hi, p] = (seg + ahead[lo:hi, None, :]).min(axis=2)
    return togo


class PricingRound(NamedTuple):
    """One round's pricing arrays, indexed by chain instance index i,
    position p and NFV node v (`Topology.nfv_nodes` order)."""

    table: SegmentCostTable
    need: np.ndarray  # [i, p]: cores position p takes, 0 past the chain
    node_cost: np.ndarray  # [i, p, v]: reduced cost of position p at v
    togo: np.ndarray  # [i, p, v]: `cost_to_go`
    convexity: np.ndarray  # [i]: the convexity dual
    # [i]: least reduced cost over every location tuple, cores ignored; it
    # never exceeds the exact minimum over the tuples that fit
    bound: np.ndarray


def price_round(
    instance: ProblemInstance, chain_instances, duals: DualPrices, table: SegmentCostTable
) -> PricingRound:
    """Sweep every chain instance at once under `duals` and `table`.
    `chain_instances` is the whole `chain_instances` tuple, whose indices
    are the rows of `duals.end`."""
    cis = chain_instances
    rate = np.array([ci.total_gbps for ci in cis])
    need = position_rates(instance, cis) * rate[:, None]
    node_cost = -duals.core * need[:, :, None] - duals.end[:, : need.shape[1]]
    length = np.array([len(ci.vnfs) for ci in cis])
    togo = cost_to_go(node_cost, rate, length, table.matrix)
    bound = (node_cost[:, 0] + togo[:, 0]).min(axis=1) - duals.convexity
    return PricingRound(table, need, node_cost, togo, duals.convexity, bound)


def _fitting_argmin(
    node_cost: list, seg: list, need: list, cores: list, togo: list
) -> tuple[float, Optional[tuple[int, ...]]]:
    """Cheapest location tuple (node indices) whose core use fits every
    node, with its cost; (inf, None) if none fits.

    `node_cost[pos][v]` is position pos's cost at node v, `seg[v][w]` the
    segment cost from v to w and `togo[pos][v]` the unrestricted cost-to-go
    (`cost_to_go`), which never overestimates. Depth-first over positions,
    nodes in order, cut by the cost-to-go; a tuple replaces the best one
    found only when it is strictly cheaper, so ties go to the
    lexicographically smallest.
    """
    n, m = len(need), len(cores)
    if sum(need) > sum(cores) + FIT_TOL:
        return math.inf, None
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
    instance: ProblemInstance, chain_instance: ChainInstance, pricing: PricingRound
) -> tuple[tuple, tuple, float]:
    """Exact reduced-cost minimizer over the self-feasible columns of one
    chain instance under the round `pricing`: its locations (NFV node ids,
    one per position), its segment routes (one arc tuple per consecutive
    pair of locations) and its reduced cost.

    Among placements of equal reduced cost the one whose tuple of NFV-node
    indices is lexicographically smallest wins, so repeated calls under
    equal duals return the same column. Raises PricerError when no
    location tuple fits the nodes' cores.
    """
    ci = chain_instance
    i, n = ci.index, len(ci.vnfs)
    nfv = instance.topology.nfv_nodes
    node = instance.topology.node_by_id
    table = pricing.table
    cost, picked = _fitting_argmin(
        pricing.node_cost[i, :n].tolist(),
        (ci.total_gbps * table.matrix).tolist(),
        pricing.need[i, :n].tolist(),
        [float(node[v].cores) for v in nfv],
        pricing.togo[i, :n].tolist(),
    )
    if picked is None:
        raise PricerError(f"{ci.label}: no placement fits the nodes' cores")
    locations = tuple(nfv[v] for v in picked)
    segments = tuple(table.path(u, w) for u, w in zip(locations, locations[1:]))
    return locations, segments, cost - float(pricing.convexity[i])


def price_chain_instance(
    instance: ProblemInstance, chain_instance: ChainInstance, pricing: PricingRound
) -> Optional[tuple[tuple, tuple, float]]:
    """Return an improving column, as `best_configuration` gives it, or
    None when none prices out."""
    priced = best_configuration(instance, chain_instance, pricing)
    return None if priced[2] >= -EPS else priced
