"""Shortest-path machinery: one all-pairs least-cost routine.

`shortest_path_weighted` builds a `PathTable` under positive arc weights: a
Dijkstra toward every target, and the next-hop matrix `nxt` that holds
every canonical path in index form. Each `Topology` builds its table once
under unit weights, as integer matrices over a node -> index map: the hop
table, which drives the traffic grouping and the end-segment costs, and
which every stage reads through `all_pairs_hops`. So the grouping and the
master read whole rows and columns of it, and the grouping walks many
paths at once with `PathTable.steps`, one hop per array lookup, instead of
one pair at a time; the plan decode takes each end route as one cached
tuple (`PathTable.route`). No module but this one reads `nxt`. The pricing
subproblem builds one table per round under dual-adjusted weights.
Every table picks its canonical paths deterministically: among all
least-cost paths, the one whose node sequence is lexicographically
smallest.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .netmodel import Topology


class PathError(ValueError):
    """Disconnected query or non-contiguous arc list."""


@dataclass
class PathTable:
    """All-pairs least costs with canonical next hops, by node index.

    hops[i, j] is the cost of the least-cost path from node i to node j,
    its hop count under unit weights. nxt[i, j] is the node after i on the
    canonical i->j path: the smallest-id out-neighbor that still lies on
    some least-cost path, and nxt[j, j] = j. So the canonical path from i
    to j is i, nxt[i, j], nxt[nxt[i, j], j], ... up to j, one lookup per
    hop.
    """

    index: dict[str, int]  # node -> row and column of `hops` and `nxt`
    names: list[str]  # index -> node
    hops: np.ndarray  # cost matrix, integer under integer weights
    nxt: np.ndarray  # integer matrix
    # (u, w) -> arcs of the canonical path, filled as `route` walks them
    _arcs: dict = field(default_factory=dict, repr=False, compare=False)

    def distance(self, u: str, w: str) -> float:
        return self.hops[self.index[u], self.index[w]].item()

    def route(self, u: str, w: str) -> tuple[tuple[str, str], ...]:
        """Arcs of the canonical least-cost path (empty when u == w), walked
        along `nxt` once per pair; every call for a pair returns the same
        tuple."""
        arcs = self._arcs.get((u, w))
        if arcs is None:
            names, i, j = self.names, self.index[u], self.index[w]
            toward = self.nxt[:, j].tolist()
            walk = []
            while i != j:
                walk.append((names[i], names[toward[i]]))
                i = toward[i]
            arcs = self._arcs[(u, w)] = tuple(walk)
        return arcs

    def steps(self, src: np.ndarray, dst: np.ndarray):
        """Walk the canonical paths from node src[i] to node dst[i] (index
        arrays) together, one `nxt` lookup per hop. Each step yields
        (ids, u, w): the ids of the paths not yet at their end, in
        increasing order, and the arc (u[k], w[k]) that path ids[k] takes
        next. A path with src[i] == dst[i] yields nothing."""
        ids = np.flatnonzero(src != dst)
        u, end = src[ids], dst[ids]
        while ids.size:
            w = self.nxt[u, end]
            yield ids, u, w
            on = w != end
            ids, u, end = ids[on], w[on], end[on]


def all_pairs_hops(topology: Topology) -> PathTable:
    """The topology's all-pairs hop table, built with it."""
    return topology.paths


def shortest_path_weighted(topology: Topology, weights) -> PathTable:
    """Least-cost paths between every pair of nodes under positive arc
    weights, one per arc in `topology.arcs` order.

    For each target, a Dijkstra over the reversed arcs gives every node's
    cost to it; the next hop from u is the smallest-id out-neighbor v with
    weight(u, v) + cost(v) equal to cost(u) within `_close`, which lowers
    the cost to go, so every walk along `nxt` ends. Integer weights give an
    integer cost matrix: unit weights give the hop table. Raises PathError
    on a weight that is not positive, on a weight count that is not the arc
    count, and when some node cannot reach a target, so a table exists only
    for a strongly connected topology.
    """
    w = np.asarray(weights)
    if w.shape != (len(topology.arcs),):
        raise PathError(f"{w.size} weights for {len(topology.arcs)} arcs")
    if not (w > 0).all():
        bad = int(np.argmin(w > 0))
        raise PathError(f"weight {w[bad]} on arc {list(topology.arc_index)[bad]!r} is not positive")
    weight = dict(zip(topology.arc_index, w.tolist()))
    into = {v: [(u, weight[(u, v)]) for (u, _) in arcs] for v, arcs in topology.in_arcs.items()}
    names = topology.node_ids
    index = {v: i for i, v in enumerate(names)}
    cost = np.zeros((len(names), len(names)), dtype=w.dtype)
    for t, target in enumerate(names):
        togo = {target: 0}
        heap = [(0, target)]
        while heap:
            c, v = heapq.heappop(heap)
            if c > togo[v]:
                continue
            for u, wu in into[v]:
                cand = c + wu
                if cand < togo.get(u, math.inf) - 1e-15:
                    togo[u] = cand
                    heapq.heappush(heap, (cand, u))
        if len(togo) != len(names):
            missing = sorted(set(names) - set(togo))[:3]
            raise PathError(f"no path to {target!r} from {missing}")
        cost[[index[u] for u in togo], t] = list(togo.values())
    # every next hop at once: arcs by tail, then head, in id order; a
    # tail's first arc on a least-cost path to t gives nxt[tail, t]
    arcs = sorted(topology.arc_index)
    tail = np.array([index[u] for u, _ in arcs], dtype=np.int64)
    head = np.array([index[v] for _, v in arcs], dtype=np.int64)
    via = w[[topology.arc_index[a] for a in arcs], None] + cost[head]
    first = np.where(_close(via, cost[tail]), np.arange(len(arcs))[:, None], len(arcs))
    starts = np.flatnonzero(np.diff(tail, prepend=-1))
    nxt = np.empty(cost.shape, dtype=np.int64)
    nxt[tail[starts]] = np.append(head, 0)[np.minimum.reduceat(first, starts)]
    np.fill_diagonal(nxt, np.arange(len(names)))
    return PathTable(index=index, names=names, hops=cost, nxt=nxt)


def _close(a, b):
    """a == b up to a relative 1e-9, elementwise on arrays."""
    return abs(a - b) <= 1e-9 * (1.0 + abs(a) + abs(b))


def path_nodes(arcs: list[tuple[str, str]]) -> list[str]:
    """Node sequence of a contiguous arc list; [] for an empty path."""
    if not arcs:
        return []
    seq = [arcs[0][0]]
    for (u, v) in arcs:
        if u != seq[-1]:
            raise PathError(f"arc list not contiguous at {u!r}")
        seq.append(v)
    return seq


def route_fault(topology: Topology, arcs, start: str, end: str) -> str | None:
    """Why `arcs` is not a route from `start` to `end`, or None when it is.

    An empty route is the route from a node to itself, and only that.
    """
    if not arcs:
        return None if start == end else f"empty route but {start} != {end}"
    if start == end:
        return "nonempty route on co-located endpoints"
    for arc in arcs:
        if tuple(arc) not in topology.arc_index:
            return f"unknown arc {arc}"
    if any(a[1] != b[0] for a, b in zip(arcs, arcs[1:])):
        return "arcs do not chain"
    if arcs[0][0] != start or arcs[-1][1] != end:
        return f"route runs {arcs[0][0]}->{arcs[-1][1]}, expected {start}->{end}"
    return None
