"""Demand grouping: partition each chain's traffic pairs into route-sharing groups.

Pairs whose canonical shortest path traverses a common (head, tail) corridor
are grouped together, so one placed chain instance can serve them with little
detour. Greedy largest-cluster selection runs first; leftovers attach to the
nearest anchor; oversized partitions are refined by splitting until the group
count hits min(requested instances, pair count).

Each chain's pair paths are walked once into a cover index, which maps every
(head, tail) corridor to the pairs that traverse it, so a candidate cluster
is one set intersection.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass

from .netmodel import ProblemInstance
from .pathcore import PathTable, all_pairs_hops

Pair = tuple[str, str]


@dataclass
class Group:
    anchor: Pair
    members: tuple[Pair, ...]  # sorted, nonempty

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("empty group")
        self.members = tuple(sorted(self.members))


@dataclass
class ChainPartition:
    chain: str
    groups: list[Group]


def _cover_index(pairs: Iterable[Pair], paths: PathTable) -> dict[Pair, set[Pair]]:
    """Map each ordered node pair (head, tail) to the pairs whose canonical
    path visits head no later than tail. Each path is walked once."""
    index: dict[Pair, set[Pair]] = {}
    for pair in pairs:
        seq = paths.path_node_seq(*pair)
        for i, head in enumerate(seq):
            for tail in seq[i:]:
                index.setdefault((head, tail), set()).add(pair)
    return index


def cluster_of(anchor: Pair, remaining: set[Pair] | frozenset[Pair], paths: PathTable) -> set[Pair]:
    """Pairs in `remaining` whose canonical path visits anchor's head no later
    than its tail. The anchor pair itself always qualifies."""
    return set(_cover_index(remaining, paths).get(anchor, ()))


def _detour(member: Pair, anchor: Pair, paths: PathTable) -> int:
    s, d = member
    vs, vd = anchor
    return (
        paths.distance(s, vs)
        + paths.distance(vs, vd)
        + paths.distance(vd, d)
        - paths.distance(s, d)
    )


def partition_chain(
    instance: ProblemInstance,
    chain: str,
    paths: PathTable | None = None,
    nc: int | None = None,
) -> ChainPartition:
    """Partition a chain's demand pairs into exactly min(nc, |pairs|) groups."""
    if paths is None:
        paths = all_pairs_hops(instance.topology)
    pairs = instance.pairs_for_chain(chain)
    if not pairs:
        raise ValueError(f"chain {chain!r} has no demand")
    if nc is None:
        nc = instance.nc.get(chain, 1)
    target = min(nc, len(pairs))
    index = _cover_index(pairs, paths)

    groups: list[Group] = []
    left = set(pairs)
    while len(groups) < target and left:
        best_anchor = None
        best_cluster: set[Pair] = set()
        for anchor in sorted(left):
            cluster = index[anchor] & left
            if len(cluster) > len(best_cluster):
                best_anchor, best_cluster = anchor, cluster
        groups.append(Group(anchor=best_anchor, members=tuple(best_cluster)))
        left -= best_cluster

    # more pairs than groups allowed: attach each leftover to the cheapest anchor
    if left:
        attach: dict[Pair, list[Pair]] = {g.anchor: list(g.members) for g in groups}
        order = {g.anchor: i for i, g in enumerate(groups)}
        for pair in sorted(left):
            best = min(groups, key=lambda g: (_detour(pair, g.anchor, paths), g.anchor))
            attach[best.anchor].append(pair)
        groups = [
            Group(anchor=a, members=tuple(attach[a]))
            for a in sorted(attach, key=lambda a: order[a])
        ]

    # fewer groups than allowed: split the biggest until the count is reached
    while len(groups) < target:
        gi = min(
            (i for i, g in enumerate(groups) if len(g.members) > 1),
            key=lambda i: (-len(groups[i].members), groups[i].anchor),
        )
        old = groups[gi]
        groups[gi : gi + 1] = _split(old, paths, index)

    return ChainPartition(chain=chain, groups=groups)


def _split(group: Group, paths: PathTable, index: dict[Pair, set[Pair]]) -> list[Group]:
    """Split one group in two: the largest proper internal cluster leaves, or
    failing that the member with the largest detour via the anchor. `index`
    is the chain's cover index."""
    members = set(group.members)
    best_anchor = None
    best_cluster: set[Pair] = set()
    for m in sorted(members):
        cluster = index[m] & members
        if len(cluster) < len(members) and len(cluster) > len(best_cluster):
            best_anchor, best_cluster = m, cluster
    if best_anchor is None:
        candidates = sorted(m for m in members if m != group.anchor)
        if not candidates:  # anchor-only group cannot reach here (len > 1 checked)
            raise ValueError("cannot split singleton group")
        mover = max(candidates, key=lambda m: (_detour(m, group.anchor, paths),))
        # max() keeps the first of equal keys; candidates are sorted, so ties
        # resolve to the lexicographically smallest member
        best_anchor, best_cluster = mover, {mover}
    residual = members - best_cluster
    residual_anchor = group.anchor if group.anchor in residual else min(residual)
    return [
        Group(anchor=residual_anchor, members=tuple(residual)),
        Group(anchor=best_anchor, members=tuple(best_cluster)),
    ]


def partition_all(
    instance: ProblemInstance, paths: PathTable | None = None
) -> list[ChainPartition]:
    """One partition per chain that has demand, chains in id order."""
    if paths is None:
        paths = all_pairs_hops(instance.topology)
    return [
        partition_chain(instance, chain, paths)
        for chain in instance.chains_with_demand()
    ]


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
