import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scmap.fixturedata import cost239_files
from scmap.netmodel import load_instance
from scmap.pathcore import (
    PathError,
    all_pairs_hops,
    build_hop_table,
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


def test_weighted_equals_hops_on_unit_weights(nsfnet_instance, nsfnet_paths):
    topo = nsfnet_instance.topology
    weights = {arc: 1.0 for arc in topo.arc_index}
    for u, w in [("01", "14"), ("05", "09"), ("13", "02")]:
        cost, arcs = shortest_path_weighted(topo, weights, u, w)
        assert cost == nsfnet_paths.distance(u, w)
        assert len(arcs) == nsfnet_paths.distance(u, w)


def test_weighted_detour():
    inst = build_instance(list("abcd"), [("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")], [("a", "d")])
    topo = inst.topology
    weights = {arc: 1.0 for arc in topo.arc_index}
    weights[("a", "b")] = 10.0  # push the route through c
    cost, arcs = shortest_path_weighted(topo, weights, "a", "d")
    assert cost == 2.0
    assert path_nodes(arcs) == ["a", "c", "d"]


def test_weighted_src_equals_dst(triangle_instance):
    topo = triangle_instance.topology
    weights = {arc: 2.0 for arc in topo.arc_index}
    cost, arcs = shortest_path_weighted(topo, weights, "b", "b")
    assert cost == 0.0 and arcs == []


def test_weighted_rejects_negative(triangle_instance):
    topo = triangle_instance.topology
    weights = {arc: 1.0 for arc in topo.arc_index}
    weights[("a", "b")] = -0.5
    with pytest.raises(PathError, match="negative"):
        shortest_path_weighted(topo, weights, "a", "c")


def test_weighted_matches_enumeration_on_random_graphs():
    rng = random.Random(20240817)
    checked = 0
    while checked < 1000:
        n = rng.randint(4, 8)
        nodes = [f"n{i}" for i in range(n)]
        links = {(nodes[i - 1], nodes[i]) for i in range(1, n)}
        for _ in range(rng.randint(0, n)):
            a, b = rng.sample(nodes, 2)
            links.add((min(a, b), max(a, b)))
        inst = build_instance(nodes, sorted(links), [(nodes[0], nodes[1])])
        topo = inst.topology
        weights = {arc: round(rng.uniform(0.0, 5.0), 3) for arc in topo.arc_index}
        for _ in range(4):
            src, dst = rng.sample(nodes, 2)
            best = min(
                sum(weights[a] for a in p)
                for p in simple_paths(topo.out_arcs, src, dst)
            )
            cost, arcs = shortest_path_weighted(topo, weights, src, dst)
            assert cost == pytest.approx(best, abs=1e-9)
            assert sum(weights[a] for a in arcs) == pytest.approx(cost, abs=1e-9)
            checked += 1


def test_path_nodes_rejects_gap():
    with pytest.raises(PathError, match="contiguous"):
        path_nodes([("a", "b"), ("c", "d")])
    assert path_nodes([]) == []
    assert path_nodes([("a", "b"), ("b", "c")]) == ["a", "b", "c"]


def test_determinism(nsfnet_instance):
    t1 = all_pairs_hops(nsfnet_instance.topology)
    t2 = build_hop_table(nsfnet_instance.topology)
    assert t1.index == t2.index and t1.names == t2.names
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
