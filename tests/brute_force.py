"""Exhaustive enumerations and reference implementations that tests compare
the solver against, and the grouping's cluster lookup and JSON dump."""

import itertools
import json
from typing import NamedTuple

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from scmap.master import FIT_TOL, ChainInstance, DualPrices, RmpModel, add_column
from scmap.netmodel import ProblemInstance
from scmap.pathcore import PathTable, all_pairs_hops
from scmap.sptg import ChainPartition, Group, _cover_entries, node_ends


def simple_paths(out_arcs: dict, src: str, dst: str) -> list:
    """Every simple src->dst path as an arc tuple, shortest first, then in
    arc order."""
    out = []
    stack = [(src, (), frozenset([src]))]
    while stack:
        node, arcs, seen = stack.pop()
        if node == dst:
            out.append(arcs)
            continue
        for arc in out_arcs[node]:
            if arc[1] not in seen:
                stack.append((arc[1], arcs + (arc,), seen | {arc[1]}))
    return sorted(out, key=lambda p: (len(p), p))


class Column(NamedTuple):
    """A chain instance's placement as the tests list it: the NFV node of
    each position, the arc route of each segment, and the segment cost (the
    instance's Gbps times the segments' hops)."""

    locations: tuple
    segments: tuple
    cost: float


def column(chain_instance: ChainInstance, locations, segments) -> Column:
    """`Column` with its cost derived from the routes."""
    hops = sum(len(seg) for seg in segments)
    return Column(tuple(locations), tuple(segments), chain_instance.total_gbps * hops)


def colocated(chain_instance: ChainInstance, node: str) -> Column:
    """The chain instance whole at `node`."""
    n = len(chain_instance.vnfs)
    return column(chain_instance, (node,) * n, ((),) * (n - 1))


def pool(model: RmpModel, chain_instance: ChainInstance, col: Column) -> int:
    """`master.add_column` of `col`."""
    return add_column(model, chain_instance, col.locations, col.segments)


def pooled(model: RmpModel, p: int) -> tuple[ChainInstance, Column]:
    """The chain instance and `Column` of pool position p, read back off the
    pool's arrays and routes."""
    ci = model.chain_instances[model.z_ci[p]]
    nfv = model.instance.topology.nfv_nodes
    return ci, column(ci, (nfv[v] for v in model.z_loc[p, : len(ci.vnfs)]), model.pool[p])


def fits(instance: ProblemInstance, chain_instance: ChainInstance, locations) -> bool:
    """Whether the chain instance at `locations` fits every node's cores
    on its own, its core use summed per position."""
    use: dict = {}
    for v, rate in zip(locations, instance.chain_cores_per_gbps(chain_instance.chain)):
        use[v] = use.get(v, 0.0) + chain_instance.total_gbps * rate
    node = instance.topology.node_by_id
    return all(u <= node[v].cores + FIT_TOL for v, u in use.items())


def enumerate_all_configs(
    instance: ProblemInstance, chain_instance: ChainInstance
) -> list[Column]:
    """Every placement with simple segment paths; raises ValueError past 7
    nodes or 3 positions."""
    topo = instance.topology
    n = len(chain_instance.vnfs)
    if len(topo.nodes) > 7:
        raise ValueError(f"enumeration limited to 7 nodes, got {len(topo.nodes)}")
    if n > 3:
        raise ValueError(f"enumeration limited to 3 positions, got {n}")

    paths_between = {
        (u, w): simple_paths(topo.out_arcs, u, w)
        for u in topo.nfv_nodes
        for w in topo.nfv_nodes
    }

    def expand(locations: tuple, segments: tuple) -> list:
        if len(locations) == n:
            return [column(chain_instance, locations, segments)]
        out = []
        for v in topo.nfv_nodes:
            if not locations:
                out.extend(expand((v,), ()))
            else:
                for seg in paths_between[(locations[-1], v)]:
                    out.extend(expand(locations + (v,), segments + (seg,)))
        return out

    return expand((), ())


def path_node_seq(paths: PathTable, u: str, w: str) -> list:
    """Node sequence of the canonical shortest u->w path, endpoints included,
    read off the hop matrix alone: from each node, the smallest-id
    out-neighbor (one hop away) that is one hop closer to w."""
    hops, names = paths.hops, paths.names
    i, j = paths.index[u], paths.index[w]
    seq = [u]
    while i != j:
        closer = np.flatnonzero((hops[i] == 1) & (hops[:, j] == hops[i, j] - 1))
        i = min(closer.tolist(), key=names.__getitem__)
        seq.append(names[i])
    return seq


def _cover_index(pairs, paths: PathTable) -> dict:
    """Map each ordered node pair (head, tail) to the pairs whose canonical
    path visits head no later than tail."""
    index: dict = {}
    for pair in pairs:
        seq = path_node_seq(paths, *pair)
        for i, head in enumerate(seq):
            for tail in seq[i:]:
                index.setdefault((head, tail), set()).add(pair)
    return index


def _detour(member, anchor, paths: PathTable) -> int:
    s, d = member
    vs, vd = anchor
    return (
        paths.distance(s, vs)
        + paths.distance(vs, vd)
        + paths.distance(vd, d)
        - paths.distance(s, d)
    )


def _split(group: Group, paths: PathTable, index: dict) -> list:
    members = set(group.members)
    best_anchor = None
    best_cluster: set = set()
    for m in sorted(members):
        cluster = index[m] & members
        if len(cluster) < len(members) and len(cluster) > len(best_cluster):
            best_anchor, best_cluster = m, cluster
    if best_anchor is None:
        candidates = sorted(m for m in members if m != group.anchor)
        # max() keeps the first of equal keys: the smallest member
        mover = max(candidates, key=lambda m: _detour(m, group.anchor, paths))
        best_anchor, best_cluster = mover, {mover}
    residual = members - best_cluster
    residual_anchor = group.anchor if group.anchor in residual else min(residual)
    return [
        Group(anchor=residual_anchor, members=tuple(residual)),
        Group(anchor=best_anchor, members=tuple(best_cluster)),
    ]


def reference_partition(instance: ProblemInstance, chain: str, paths: PathTable, nc: int):
    """The grouping of `sptg.partition_chain` over Python sets, one pair at a
    time: greedy largest cluster (ties to the smallest anchor), leftovers to
    the anchor of least detour (ties to the smallest), then splits of the
    biggest group (ties to the smallest anchor)."""
    pairs = instance.pairs_for_chain(chain)
    target = min(nc, len(pairs))
    index = _cover_index(pairs, paths)
    groups: list = []
    left = set(pairs)
    while len(groups) < target and left:
        best_anchor = None
        best_cluster: set = set()
        for anchor in sorted(left):
            cluster = index[anchor] & left
            if len(cluster) > len(best_cluster):
                best_anchor, best_cluster = anchor, cluster
        groups.append(Group(anchor=best_anchor, members=tuple(best_cluster)))
        left -= best_cluster
    if left:
        attach = {g.anchor: list(g.members) for g in groups}
        for pair in sorted(left):
            best = min(groups, key=lambda g: (_detour(pair, g.anchor, paths), g.anchor))
            attach[best.anchor].append(pair)
        groups = [Group(anchor=g.anchor, members=tuple(attach[g.anchor])) for g in groups]
    while len(groups) < target:
        gi = min(
            (i for i, g in enumerate(groups) if len(g.members) > 1),
            key=lambda i: (-len(groups[i].members), groups[i].anchor),
        )
        groups[gi : gi + 1] = _split(groups[gi], paths, index)
    return ChainPartition(chain=chain, groups=groups)


def reduced_cost_of(
    model: RmpModel, duals: DualPrices, ci: ChainInstance, col: Column
) -> float:
    """Recompute a column's reduced cost from its row coefficients; its end
    cost and end-flow rows enter through `duals.end`."""
    rc = col.cost - duals.convexity[ci.index]
    per_gbps = model.instance.chain_cores_per_gbps(ci.chain)
    for pos, v in enumerate(col.locations):
        rc -= duals.core[model.nfv_index[v]] * ci.total_gbps * per_gbps[pos]
        rc -= duals.end[ci.index, pos, model.nfv_index[v]]
    arc_index = model.instance.topology.arc_index
    for seg in col.segments:
        for arc in seg:
            rc -= duals.capacity[arc_index[arc]] * ci.total_gbps
    return rc


def cluster_of(anchor: tuple, remaining, paths: PathTable) -> set:
    """Pairs in `remaining` whose canonical path visits anchor's head no later
    than its tail, read off `sptg`'s cover entries. The anchor pair itself
    always qualifies."""
    members = sorted(remaining)
    _, hit = _cover_entries(node_ends([anchor], paths), node_ends(members, paths), paths)
    return {members[m] for m in hit.tolist()}


def partitions_to_json(partitions: list[ChainPartition]) -> str:
    """Inspection dump: one object per chain with anchors and members."""
    payload = [
        {
            "chain": p.chain,
            "groups": [
                {"anchor": list(g.anchor), "members": [list(m) for m in g.members]}
                for g in p.groups
            ],
        }
        for p in partitions
    ]
    return json.dumps(payload, indent=2) + "\n"


def grouping_free_optimum(instance: ProblemInstance, k: int):
    """The optimum plan value over every grouping of the demand pairs, or
    None when no plan exists, on an instance whose links cannot bind (every
    capacity at least `master.worst_case_load`), so each end runs along a
    hop-shortest path. A capacitated facility-location MIP over location
    tuples, solved by scipy's `milp`. Two chain instances at one tuple merge
    with no change in cost, cores or hosting, so one open flag per tuple
    suffices. Per chain:

    - y[t] binary for each tuple t of NFV nodes, one per position, and at
      most nc of them open;
    - x[pair, t] binary, each pair on one tuple, x[pair, t] <= y[t];
    - y[t] <= h[v] for each node v of t, with at most k flags h set over
      every chain;
    - each NFV node's cores bound the Gbps times cores per Gbps of every
      position placed on it;
    - x[pair, t] costs the pair's Gbps times its hops from its source
      through t to its destination.
    """
    topo = instance.topology
    distance = all_pairs_hops(topo).distance
    nfv = topo.nfv_nodes
    cost = [0.0] * len(nfv)  # the flags h come first
    rows: list = []  # ({variable: coefficient}, lower, upper)
    cores: dict = {v: {} for v in nfv}
    for chain in instance.chains_with_demand():
        rates = instance.chain_cores_per_gbps(chain)
        tuples = list(itertools.product(range(len(nfv)), repeat=len(rates)))
        y = range(len(cost), len(cost) + len(tuples))
        cost += [0.0] * len(tuples)
        rows += [({j: 1.0, v: -1.0}, -np.inf, 0.0) for j, t in zip(y, tuples) for v in set(t)]
        rows.append((dict.fromkeys(y, 1.0), -np.inf, instance.nc.get(chain, 1)))
        for src, dst in instance.pairs_for_chain(chain):
            gbps = instance.demand_gbps(chain, src, dst)
            x = range(len(cost), len(cost) + len(tuples))
            for j, yt, t in zip(x, y, tuples):
                path = [src, *(nfv[v] for v in t), dst]
                cost.append(gbps * sum(map(distance, path, path[1:])))
                rows.append(({j: 1.0, yt: -1.0}, -np.inf, 0.0))
                for v, rate in zip(t, rates):
                    cores[nfv[v]][j] = cores[nfv[v]].get(j, 0.0) + gbps * rate
            rows.append((dict.fromkeys(x, 1.0), 1.0, 1.0))
    rows.append((dict.fromkeys(range(len(nfv)), 1.0), -np.inf, k))
    rows += [(cores[v], -np.inf, topo.node_by_id[v].cores) for v in nfv]
    a = np.zeros((len(rows), len(cost)))
    for i, (coeffs, _, _) in enumerate(rows):
        a[i, list(coeffs)] = list(coeffs.values())
    lower, upper = (np.array([r[f] for r in rows], dtype=float) for f in (1, 2))
    res = milp(
        cost,
        constraints=LinearConstraint(a, lower, upper),
        integrality=np.ones(len(cost)),
        bounds=Bounds(0, 1),
    )
    assert res.status in (0, 2), res.message  # optimal or infeasible
    return res.fun if res.status == 0 else None
