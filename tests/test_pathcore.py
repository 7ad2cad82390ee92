import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scmap.fixturedata import cost239_files
from scmap.netmodel import load_instance
from scmap.pathcore import (
    PathError,
    all_pairs_hops,
    path_nodes,
    shortest_path_weighted,
)

from brute_force import path_node_seq, simple_paths
from conftest import build_instance, ring_with_chords


def floyd_warshall(nodes, arcs):
    """Independent O(n^3) hop-distance oracle."""
    inf = float("inf")
    dist = {(u, w): 0 if u == w else inf for u in nodes for w in nodes}
    for (a, b) in arcs:
        dist[(a, b)] = 1
    for k in nodes:
        for i in nodes:
            for j in nodes:
                if dist[(i, k)] + dist[(k, j)] < dist[(i, j)]:
                    dist[(i, j)] = dist[(i, k)] + dist[(k, j)]
    return dist


def test_triangle_distances(triangle_paths):
    for u in "abc":
        assert triangle_paths.distance(u, u) == 0
    assert triangle_paths.distance("a", "b") == 1
    assert triangle_paths.distance("b", "a") == 1


def test_path_graph_distances():
    inst = build_instance(list("abcde"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")], [("a", "e")])
    paths = all_pairs_hops(inst.topology)
    assert paths.distance("a", "e") == 4
    assert path_node_seq(paths, "a", "e") == ["a", "b", "c", "d", "e"]
    assert paths.route("a", "a") == ()


def test_canonical_path_prefers_smallest_ids():
    # two parallel 2-hop routes a-b-d and a-c-d: the b route is canonical
    inst = build_instance(list("abcd"), [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")], [("a", "d")])
    paths = all_pairs_hops(inst.topology)
    assert path_node_seq(paths, "a", "d") == ["a", "b", "d"]
    assert path_nodes(paths.route("a", "d")) == ["a", "b", "d"]


def test_nsfnet_against_floyd_warshall(nsfnet_instance, nsfnet_paths):
    topo = nsfnet_instance.topology
    oracle = floyd_warshall(topo.node_ids, list(topo.arc_index))
    for u in topo.node_ids:
        for w in topo.node_ids:
            assert nsfnet_paths.distance(u, w) == oracle[(u, w)]
    total = sum(nsfnet_paths.distance(u, w) for u in topo.node_ids for w in topo.node_ids)
    assert total == 390  # frozen: full-mesh hop sum of the 14-node topology


def test_reconstruction_length_matches_distance(nsfnet_paths, nsfnet_instance):
    topo = nsfnet_instance.topology
    for u in topo.node_ids:
        for w in topo.node_ids:
            arcs = nsfnet_paths.route(u, w)
            assert len(arcs) == nsfnet_paths.distance(u, w)
            assert path_nodes(arcs) == (path_node_seq(nsfnet_paths, u, w) if arcs else [])


@st.composite
def connected_graph(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    nodes = [f"n{i}" for i in range(n)]
    links = {(nodes[i - 1], nodes[i]) for i in range(1, n)}
    extras = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n * 2))
    for i, j in extras:
        if i != j:
            a, b = nodes[min(i, j)], nodes[max(i, j)]
            links.add((a, b))
    return nodes, sorted(links)


@given(connected_graph())
@settings(max_examples=60, deadline=None)
def test_hop_table_matches_oracle_on_random_graphs(graph):
    nodes, links = graph
    inst = build_instance(nodes, links, [(nodes[0], nodes[-1])])
    paths = all_pairs_hops(inst.topology)
    oracle = floyd_warshall(nodes, list(inst.topology.arc_index))
    for u in nodes:
        for w in nodes:
            assert paths.distance(u, w) == oracle[(u, w)]
            # triangle inequality via any midpoint
            for m in nodes:
                assert paths.distance(u, w) <= paths.distance(u, m) + paths.distance(m, w)


def weights_of(topo, weight=1.0, **by_arc):
    """One weight per arc of `topo`, `weight` on each but the arcs
    `by_arc` maps, by "src_dst" name."""
    w = np.full(len(topo.arcs), weight)
    for name, value in by_arc.items():
        w[topo.arc_index[tuple(name.split("_"))]] = value
    return w


def test_weighted_equals_hops_on_unit_weights(nsfnet_instance, nsfnet_paths):
    topo = nsfnet_instance.topology
    table = shortest_path_weighted(topo, weights_of(topo))
    for u, w in [("01", "14"), ("05", "09"), ("13", "02")]:
        assert table.distance(u, w) == nsfnet_paths.distance(u, w)
        assert len(table.route(u, w)) == nsfnet_paths.distance(u, w)


def test_weighted_detour():
    inst = build_instance(list("abcd"), [("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")], [("a", "d")])
    topo = inst.topology
    # push the route through c
    table = shortest_path_weighted(topo, weights_of(topo, a_b=10.0))
    assert table.distance("a", "d") == 2.0
    assert path_nodes(table.route("a", "d")) == ["a", "c", "d"]


def test_weighted_src_equals_dst(triangle_instance):
    topo = triangle_instance.topology
    table = shortest_path_weighted(topo, weights_of(topo, 2.0))
    assert table.distance("b", "b") == 0.0 and table.route("b", "b") == ()


def test_weighted_rejects_negative(triangle_instance):
    topo = triangle_instance.topology
    with pytest.raises(PathError, match="not positive"):
        shortest_path_weighted(topo, weights_of(topo, a_b=-0.5))


def test_weighted_rejects_zero_nan_and_a_wrong_weight_count(triangle_instance):
    # a zero weight would let a next hop keep the cost to go, so a walk
    # along `nxt` could cycle
    topo = triangle_instance.topology
    for bad in (0.0, math.nan):
        with pytest.raises(PathError, match="not positive"):
            shortest_path_weighted(topo, weights_of(topo, a_b=bad))
    for count in (len(topo.arcs) - 1, len(topo.arcs) + 1):
        with pytest.raises(PathError, match=f"{count} weights for {len(topo.arcs)} arcs"):
            shortest_path_weighted(topo, np.ones(count))


def random_topology(rng):
    """A connected random topology on 4 to 8 nodes: a path plus chords."""
    n = rng.randint(4, 8)
    nodes = [f"n{i}" for i in range(n)]
    links = {(nodes[i - 1], nodes[i]) for i in range(1, n)}
    for _ in range(rng.randint(0, n)):
        a, b = rng.sample(nodes, 2)
        links.add((min(a, b), max(a, b)))
    return build_instance(nodes, sorted(links), [(nodes[0], nodes[1])]).topology


def test_weighted_matches_enumeration_on_random_graphs():
    rng = random.Random(20240817)
    checked = 0
    while checked < 1000:
        topo = random_topology(rng)
        weights = [round(rng.uniform(0.001, 5.0), 3) for _ in topo.arcs]
        by_arc = dict(zip(topo.arc_index, weights))
        table = shortest_path_weighted(topo, weights)
        for _ in range(4):
            src, dst = rng.sample(topo.node_ids, 2)
            best = min(
                sum(by_arc[a] for a in p)
                for p in simple_paths(topo.out_arcs, src, dst)
            )
            cost, arcs = table.distance(src, dst), table.route(src, dst)
            assert cost == pytest.approx(best, abs=1e-9)
            assert sum(by_arc[a] for a in arcs) == pytest.approx(cost, abs=1e-9)
            checked += 1


def test_weighted_routes_are_the_smallest_least_cost_paths_under_ties():
    # integer weights 1..3 make equal-cost paths common; the route must be
    # the least-cost simple path whose node sequence is smallest
    rng = random.Random(35)
    for _ in range(150):
        topo = random_topology(rng)
        weights = [rng.randint(1, 3) for _ in topo.arcs]
        by_arc = dict(zip(topo.arc_index, weights))
        table = shortest_path_weighted(topo, weights)
        for src, dst in itertools.permutations(topo.node_ids, 2):
            paths = simple_paths(topo.out_arcs, src, dst)
            best = min(sum(by_arc[a] for a in p) for p in paths)
            canonical = min(path_nodes(p) for p in paths if sum(by_arc[a] for a in p) == best)
            assert table.distance(src, dst) == best
            assert path_nodes(table.route(src, dst)) == canonical


def test_path_nodes_rejects_gap():
    with pytest.raises(PathError, match="contiguous"):
        path_nodes([("a", "b"), ("c", "d")])
    assert path_nodes([]) == []
    assert path_nodes([("a", "b"), ("b", "c")]) == ["a", "b", "c"]


def test_determinism(nsfnet_instance):
    t1 = all_pairs_hops(nsfnet_instance.topology)
    t2 = shortest_path_weighted(nsfnet_instance.topology, [1] * len(nsfnet_instance.topology.arcs))
    assert t1.index == t2.index and t1.names == t2.names
    assert t1.hops.dtype == t2.hops.dtype == np.int64
    assert (t1.hops == t2.hops).all()
    assert (t1.nxt == t2.nxt).all()


def walk_nxt(paths, u, w):
    """The u->w node sequence read off `nxt` alone."""
    i, j = paths.index[u], paths.index[w]
    seq = [i]
    while seq[-1] != j:
        seq.append(int(paths.nxt[seq[-1], j]))
        assert len(seq) <= len(paths.names), "nxt walk cycles"
    return [paths.names[v] for v in seq]


@pytest.mark.parametrize("which", ["nsfnet", "cost239", "ring28"])
def test_nxt_walks_the_canonical_route(which, nsfnet_instance):
    if which == "nsfnet":
        topo = nsfnet_instance.topology
    elif which == "cost239":
        topo = load_instance(*cost239_files(), k=1).topology
    else:
        topo = ring_with_chords().topology
    paths = all_pairs_hops(topo)
    for j, w in enumerate(paths.names):
        assert paths.nxt[j, j] == j
        for u in paths.names:
            seq = walk_nxt(paths, u, w)
            assert seq == path_node_seq(paths, u, w)
            assert (path_nodes(paths.route(u, w)) or [u]) == seq
            assert len(seq) - 1 == paths.distance(u, w)
