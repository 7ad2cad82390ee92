"""Shortest-path machinery: hop-count all-pairs table and weighted Dijkstra.

Hop distances drive the traffic grouping and the end-segment costs. Each
`Topology` builds its table once, as integer matrices over a node -> index
map, and every stage reads it through `all_pairs_hops`: the hop matrix, and
the next-hop matrix `nxt` that holds every canonical path in index form. So
the grouping, the master and the plan decode read whole rows and columns of
them, or walk every path at once one hop per array lookup, instead of one
pair at a time. The weighted variant serves the pricing subproblem, where
arcs carry dual-adjusted prices. Both pick a canonical path
deterministically: among all shortest paths, the one whose node sequence is
lexicographically smallest.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .netmodel import Topology


class PathError(ValueError):
    """Disconnected query or non-contiguous arc list."""


@dataclass
class PathTable:
    """All-pairs hop distances with canonical next hops, by node index.

    hops[i, j] is the hop count of the shortest path from node i to node j.
    nxt[i, j] is the node after i on the canonical i->j path: the
    smallest-id out-neighbor that still lies on some shortest path, and
    nxt[j, j] = j. So the canonical path from i to j is i, nxt[i, j],
    nxt[nxt[i, j], j], ... up to j, one lookup per hop.
    """

    index: dict[str, int]  # node -> row and column of `hops` and `nxt`
    names: list[str]  # index -> node
    hops: np.ndarray  # integer matrix
    nxt: np.ndarray  # integer matrix
    # (u, w) -> arcs of the canonical path, filled as `route` walks them
    _arcs: dict = field(default_factory=dict, repr=False, compare=False)

    def distance(self, u: str, w: str) -> int:
        return int(self.hops[self.index[u], self.index[w]])

    def route(self, u: str, w: str) -> tuple[tuple[str, str], ...]:
        """Arcs of the canonical shortest path (empty when u == w), walked
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


def all_pairs_hops(topology: Topology) -> PathTable:
    """The topology's all-pairs hop table, built with it."""
    return topology.paths


def build_hop_table(topology: Topology) -> PathTable:
    """BFS from every target over the directed arcs; raises PathError when
    some node cannot reach a target, so a table exists only for a strongly
    connected topology."""
    names = topology.node_ids
    index = {v: i for i, v in enumerate(names)}
    hops = np.zeros((len(index), len(index)), dtype=np.int64)
    nxt = np.zeros_like(hops)
    for target in names:
        # reverse BFS gives distance-to-target from every node
        d = {target: 0}
        queue = deque([target])
        while queue:
            v = queue.popleft()
            for (u, _) in topology.in_arcs[v]:
                if u not in d:
                    d[u] = d[v] + 1
                    queue.append(u)
        if len(d) != len(topology.node_ids):
            missing = sorted(set(topology.node_ids) - set(d))[:3]
            raise PathError(f"no path to {target!r} from {missing}")
        column = [0] * len(index)
        step = [index[target]] * len(index)
        for u, du in d.items():
            column[index[u]] = du
            if u == target:
                continue
            # smallest next hop that stays on a shortest path
            step[index[u]] = index[min(v for (_, v) in topology.out_arcs[u] if d[v] == du - 1)]
        hops[:, index[target]] = column
        nxt[:, index[target]] = step
    return PathTable(index=index, names=names, hops=hops, nxt=nxt)


def shortest_path_weighted(
    topology: Topology,
    weights: dict[tuple[str, str], float],
    src: str,
    dst: str,
) -> tuple[float, list[tuple[str, str]]]:
    """Min-cost src->dst path under nonnegative arc weights.

    Returns (cost, arc list). Ties resolve to the lexicographically smallest
    node sequence. Raises PathError on negative weights or missing arcs.
    """
    for arc in topology.arc_index:
        w = weights.get(arc)
        if w is None:
            raise PathError(f"missing weight for arc {arc!r}")
        if w < 0 or math.isnan(w):
            raise PathError(f"negative or NaN weight on arc {arc!r}")
    # Dijkstra toward dst on the reverse graph: cost-to-go from every node.
    togo = {dst: 0.0}
    done: set[str] = set()
    heap: list[tuple[float, str]] = [(0.0, dst)]
    while heap:
        c, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        for (u, _) in topology.in_arcs[v]:
            cand = c + weights[(u, v)]
            if cand < togo.get(u, math.inf) - 1e-15:
                togo[u] = cand
                heapq.heappush(heap, (cand, u))
    if src not in togo:
        raise PathError(f"no path {src!r} -> {dst!r}")
    # Greedy forward walk picking the smallest next node still on an optimal path.
    arcs: list[tuple[str, str]] = []
    u = src
    guard = 0
    while u != dst:
        best = None
        for (_, v) in topology.out_arcs[u]:
            if v in togo and _close(weights[(u, v)] + togo[v], togo[u]):
                best = v if best is None else min(best, v)
        if best is None:  # numerical safety net; cannot happen on exact ties
            raise PathError(f"path reconstruction failed at {u!r}")
        arcs.append((u, best))
        u = best
        guard += 1
        if guard > len(topology.node_ids):
            raise PathError("path reconstruction cycled")
    return togo[src], arcs


def _close(a: float, b: float) -> bool:
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
