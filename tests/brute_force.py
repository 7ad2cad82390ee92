"""Exhaustive enumerations and reference implementations that tests compare
the solver against, and the grouping's cluster lookup and JSON dump."""

import json

import numpy as np

from scmap.master import (
    ChainInstance,
    Configuration,
    DualPrices,
    RmpModel,
    make_configuration,
)
from scmap.netmodel import ProblemInstance
from scmap.pathcore import PathTable
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


def enumerate_all_configs(
    instance: ProblemInstance, chain_instance: ChainInstance
) -> list[Configuration]:
    """Every configuration with simple segment paths; raises ValueError past
    7 nodes or 3 positions."""
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
            return [make_configuration(chain_instance, locations, segments)]
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


def reduced_cost_of(model: RmpModel, duals: DualPrices, config: Configuration) -> float:
    """Recompute a column's reduced cost from its row coefficients; its end
    cost and end-flow rows enter through `duals.end`."""
    ci = model.by_key[(config.chain, config.group_index)]
    rc = config.cost - duals.convexity[ci.index]
    per_gbps = model.instance.chain_cores_per_gbps(ci.chain)
    for pos, v in enumerate(config.locations):
        rc -= duals.core[model.nfv_index[v]] * ci.total_gbps * per_gbps[pos]
        rc -= duals.end[ci.index, pos, model.nfv_index[v]]
    arc_index = model.instance.topology.arc_index
    for seg in config.segment_paths:
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
