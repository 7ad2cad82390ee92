"""Demand grouping: partition each chain's traffic pairs into route-sharing groups.

Pairs whose canonical shortest path traverses a common (head, tail) corridor
are grouped together, so one placed chain instance can serve them with little
detour. Greedy largest-cluster selection runs first; leftovers attach to the
nearest anchor; oversized partitions are refined by splitting until the group
count hits min(requested instances, pair count).

Each chain's pair paths are walked once into sparse cover entries, one
(anchor, member) entry per demand pair `anchor` whose head the canonical
path of `member` visits no later than its tail. The walk reads the hop
table's next-hop matrix: all paths of one length advance together, one
array lookup per hop, with no walk per pair. Pairs are numbered in
lexicographic order, so a cluster size is a count over the entries
(`np.bincount`), the first argmax is the smallest anchor among the largest,
and a leftover's nearest anchor is the first argmin of one row of detours
read off the hop matrix.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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


class ChainPartition(NamedTuple):
    chain: str
    groups: list[Group]


def node_ends(pairs: list[Pair], paths: PathTable) -> tuple[np.ndarray, np.ndarray]:
    """The node indices (`PathTable.index`) of the pairs' first and second
    nodes, as two arrays."""
    ix = paths.index
    return (
        np.array([ix[s] for s, _ in pairs], dtype=np.int64),
        np.array([ix[d] for _, d in pairs], dtype=np.int64),
    )


def _cover_entries(
    anchors: tuple[np.ndarray, np.ndarray],
    members: tuple[np.ndarray, np.ndarray],
    paths: PathTable,
) -> tuple[np.ndarray, np.ndarray]:
    """(anchor ids, member ids) with one entry for each anchor whose head a
    member's canonical path visits no later than its tail; anchors and
    members are given by `node_ends`, and ids index them. Paths of equal
    length are walked together, one `nxt` lookup per hop, and matched
    against the anchors together."""
    n = len(paths.index)
    anchor_at = np.full((n, n), -1)
    anchor_at[anchors] = np.arange(len(anchors[0]))
    src, dst = members
    length = paths.hops[src, dst] + 1
    anchor_ids, member_ids = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    for size in np.flatnonzero(np.bincount(length)).tolist():
        ids = np.flatnonzero(length == size)
        seq = np.empty((ids.size, size), dtype=np.int64)
        seq[:, 0] = src[ids]
        for hop in range(1, size):
            seq[:, hop] = paths.nxt[seq[:, hop - 1], dst[ids]]
        head, tail = np.triu_indices(size)
        found = anchor_at[seq[:, head], seq[:, tail]]
        hit = found >= 0
        anchor_ids.append(found[hit])
        member_ids.append(np.repeat(ids, hit.sum(axis=1)))
    return np.concatenate(anchor_ids), np.concatenate(member_ids)


def partition_chain(instance: ProblemInstance, chain: str) -> ChainPartition:
    """Partition a chain's demand pairs into exactly min(nc, |pairs|) groups,
    nc the instance's count for the chain."""
    paths = all_pairs_hops(instance.topology)
    pairs = instance.pairs_for_chain(chain)
    if not pairs:
        raise ValueError(f"chain {chain!r} has no demand")
    target = min(instance.nc.get(chain, 1), len(pairs))
    src, dst = ends = node_ends(pairs, paths)
    entries = _cover_entries(ends, ends, paths)
    anchor, member = entries

    # anchors[i] and groups[i] (member ids) of the i-th group, in creation order
    anchors: list[int] = []
    groups: list[np.ndarray] = []
    left = np.ones(len(pairs), dtype=bool)
    while len(groups) < target and left.any():
        live = left[member]
        size = np.bincount(anchor[live], minlength=len(pairs))
        size[~left] = 0
        best = int(np.argmax(size))
        anchors.append(best)
        groups.append(member[live & (anchor == best)])
        left[groups[-1]] = False

    # more pairs than groups allowed: attach each leftover (s, d) to the anchor
    # (vs, vd) of least detour d(s, vs) + d(vs, vd) + d(vd, d) - d(s, d),
    # ties to the smallest
    rest = np.flatnonzero(left)
    if rest.size:
        order = np.array(sorted(range(len(anchors)), key=anchors.__getitem__))
        vs, vd = src[anchors][order], dst[anchors][order]
        s, d, hops = src[rest, None], dst[rest, None], paths.hops
        detour = hops[s, vs] + hops[vs, vd] + hops[vd, d] - hops[s, d]
        nearest = order[np.argmin(detour, axis=1)]
        groups = [np.concatenate([g, rest[nearest == i]]) for i, g in enumerate(groups)]

    # fewer groups than allowed: split the biggest, ties to the smallest
    # anchor, until the count is reached. Anchors are distinct, so they key
    # the groups; a split-off group follows its parent in the output order
    by_anchor = dict(zip(anchors, groups))
    after = dict(zip(anchors, anchors[1:] + [None]))
    heap = [(-len(g), a) for a, g in by_anchor.items() if len(g) > 1]
    heapq.heapify(heap)
    while len(by_anchor) < target:
        _, a = heapq.heappop(heap)
        (_, kept), (b, cluster) = _split(a, by_anchor[a], entries, len(pairs))
        by_anchor[a], by_anchor[b] = kept, cluster
        after[a], after[b] = b, after[a]
        for g in (a, b):
            if len(by_anchor[g]) > 1:
                heapq.heappush(heap, (-len(by_anchor[g]), g))

    out = []
    a = anchors[0]
    while a is not None:
        members = tuple(pairs[m] for m in by_anchor[a].tolist())
        out.append(Group(anchor=pairs[a], members=members))
        a = after[a]
    return ChainPartition(chain=chain, groups=out)


def _split(
    group_anchor: int, group: np.ndarray, entries: tuple[np.ndarray, np.ndarray], n_pairs: int
) -> list[tuple[int, np.ndarray]]:
    """Split one group in two, as (anchor id, member ids): the largest proper
    internal cluster leaves, and the rest keeps the group's anchor.
    `entries` are the cover entries of the chain's `n_pairs` pairs.

    A pair that covers another's corridor runs over a shortest path through
    both its ends, so it is strictly longer. Hence a proper cluster exists
    (the longest member's cluster is that member alone), and the anchor
    never leaves: splits run only once the greedy pass has placed every
    pair, so every member covers its group's anchor, and the anchor covers
    no other member.
    """
    anchor, member = entries
    inside = np.zeros(n_pairs, dtype=bool)
    inside[group] = True
    live = inside[anchor] & inside[member]
    size = np.bincount(anchor[live], minlength=n_pairs)
    best = int(np.argmax(np.where(inside & (size < len(group)), size, 0)))
    cluster = member[live & (anchor == best)]
    inside[cluster] = False
    return [(group_anchor, np.flatnonzero(inside)), (best, cluster)]


def partition_all(instance: ProblemInstance) -> list[ChainPartition]:
    """One partition per chain that has demand, chains in id order."""
    return [partition_chain(instance, chain) for chain in instance.chains_with_demand()]
