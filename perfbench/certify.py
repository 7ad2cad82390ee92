"""Feasibility certificate for core-bound cells with uncapacitated links.

With the demand partition fixed, a plan exists whenever every (group,
position) core load fits on some node: routes are shortest paths, which
uncapacitated links always carry, and k = |V| never binds. First-fit
decreasing finds such a packing; it returns None when it does not, which
leaves the cell unproven rather than infeasible.
"""

from __future__ import annotations


def group_loads(instance, partitions) -> list[tuple[str, float]]:
    """(label, cores) of every (chain, group, position) of the partition."""
    loads = []
    for part in partitions:
        per_gbps = instance.chain_cores_per_gbps(part.chain)
        for gi, group in enumerate(part.groups):
            gbps = sum(instance.demand_gbps(part.chain, s, d) for s, d in group.members)
            for pos, rate in enumerate(per_gbps):
                loads.append((f"{part.chain}/{gi}/{pos}", gbps * rate))
    return loads


def first_fit(loads: list[tuple[str, float]], cores: dict[str, float]):
    """Label -> node packing of `loads` into node `cores`, or None."""
    free = dict(sorted(cores.items()))
    placed = {}
    for label, load in sorted(loads, key=lambda item: (-item[1], item[0])):
        node = next((v for v, c in free.items() if load <= c + 1e-9), None)
        if node is None:
            return None
        free[node] -= load
        placed[label] = node
    return placed


def certify(instance, partitions):
    """Packing that proves the cell feasible, or None."""
    topo = instance.topology
    # a pair's flow crosses an arc at most once per segment of its chain
    worst = sum(
        r.gbps * (len(instance.chains[r.chain].vnfs) + 1) for r in instance.demands.records
    )
    if any(topo.capacity(arc) < worst for arc in topo.arc_index):
        return None  # a link could bind; the packing alone proves nothing
    if instance.k < len(topo.nfv_nodes):
        return None  # the hosting budget could bind
    cores = {v: float(topo.node_by_id[v].cores) for v in topo.nfv_nodes}
    return first_fit(group_loads(instance, partitions), cores)
