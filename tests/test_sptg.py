import hashlib
import importlib.util
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scmap.fixturedata import cost239_files, nsfnet_files
from scmap.netmodel import load_instance
from scmap.pathcore import all_pairs_hops
from scmap.sptg import _cover_entries, node_ends, partition_all, partition_chain

from brute_force import (
    _cover_index,
    cluster_of,
    path_node_seq,
    partitions_to_json,
    reference_partition,
)
from conftest import build_instance, random_connected_instance, ring_with_chords, with_nc
from test_end_commodities import draws

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

PATH5 = (list("abcde"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])


def path5_instance(demands, nc=1):
    return build_instance(PATH5[0], PATH5[1], demands, nc=nc)


def scan_cluster(anchor, remaining, seqs):
    """Brute-force oracle for cluster_of: walk every remaining pair's node
    sequence (`seqs`, pair -> `path_node_seq`)."""
    head, tail = anchor
    out = set()
    for (s, d) in remaining:
        pos = {v: i for i, v in enumerate(seqs[s, d])}
        if head in pos and tail in pos and pos[head] <= pos[tail]:
            out.add((s, d))
    return out


def assert_clusters_match_scan(nodes, pairs, paths, rng, draws):
    """cluster_of equals the scan for every ordered node pair as anchor
    (demand pairs and head == tail included) on random subsets of `pairs`."""
    anchors = list(itertools.product(nodes, repeat=2))
    seqs = {pair: path_node_seq(paths, *pair) for pair in pairs}
    for _ in range(draws):
        subset = set(rng.sample(pairs, rng.randint(1, len(pairs))))
        for anchor in anchors:
            assert cluster_of(anchor, subset, paths) == scan_cluster(anchor, subset, seqs), (
                anchor,
                sorted(subset),
            )


def test_cluster_on_path_graph():
    inst = path5_instance([("a", "e"), ("b", "d"), ("a", "c")])
    paths = all_pairs_hops(inst.topology)
    remaining = {("a", "e"), ("b", "d"), ("a", "c")}
    assert cluster_of(("b", "d"), remaining, paths) == {("a", "e"), ("b", "d")}
    assert cluster_of(("a", "c"), remaining, paths) == {("a", "e"), ("a", "c")}
    # anchor always belongs to its own cluster
    assert ("a", "e") in cluster_of(("a", "e"), remaining, paths)


def test_reverse_direction_not_grouped():
    inst = path5_instance([("a", "e"), ("e", "a")])
    paths = all_pairs_hops(inst.topology)
    cluster = cluster_of(("a", "e"), {("a", "e"), ("e", "a")}, paths)
    assert cluster == {("a", "e")}  # (e, a) visits e before a


def test_partition_single_group():
    inst = path5_instance([("a", "e"), ("b", "d"), ("a", "c")], nc=1)
    part = partition_chain(inst, "c")
    assert len(part.groups) == 1
    assert set(part.groups[0].members) == {("a", "e"), ("b", "d"), ("a", "c")}


def test_partition_exact_group_count_and_disjoint_cover():
    inst = path5_instance([("a", "e"), ("b", "d"), ("a", "c"), ("c", "e"), ("e", "a")], nc=3)
    part = partition_chain(inst, "c")
    assert len(part.groups) == 3
    seen = [m for g in part.groups for m in g.members]
    assert sorted(seen) == sorted(set(seen))
    assert set(seen) == set(inst.pairs_for_chain("c"))


def test_partition_nc_capped_by_pair_count():
    inst = path5_instance([("a", "e"), ("b", "d")], nc=99)
    part = partition_chain(inst, "c")
    assert len(part.groups) == 2
    assert all(len(g.members) == 1 for g in part.groups)


def test_partition_property_random_instances():
    rng = random.Random(99)
    for _ in range(200):
        inst = random_connected_instance(rng)
        pairs = inst.pairs_for_chain("c")
        nc = rng.randint(1, len(pairs) + 2)
        part = partition_chain(with_nc(inst, nc), "c")
        members = [m for g in part.groups for m in g.members]
        assert sorted(members) == sorted(set(members)), "overlap"
        assert set(members) == set(pairs), "cover"
        assert len(part.groups) == min(nc, len(pairs))
        for g in part.groups:
            assert g.members


def test_group_count_monotone_in_nc():
    rng = random.Random(5)
    for _ in range(30):
        inst = random_connected_instance(rng)
        pairs = inst.pairs_for_chain("c")
        counts = [
            len(partition_chain(with_nc(inst, nc), "c").groups)
            for nc in range(1, len(pairs) + 2)
        ]
        assert counts == sorted(counts)


def test_partition_deterministic(nsfnet_instance):
    inst = with_nc(nsfnet_instance, 8)
    a = partition_chain(inst, "sc3")
    b = partition_chain(inst, "sc3")
    assert partitions_to_json([a]) == partitions_to_json([b])


def test_nsfnet_34_groups(nsfnet_instance):
    part = partition_chain(with_nc(nsfnet_instance, 34), "sc3")
    assert len(part.groups) == 34
    sizes = sorted((len(g.members) for g in part.groups), reverse=True)
    assert sum(sizes) == 182
    # frozen regression of the grouping heuristic on the reference topology
    assert sizes == [16, 15, 15, 14, 14, 14, 10, 9, 8, 7, 6, 6, 6, 6, 4, 4,
                     3, 3, 3, 3, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]


def test_partition_all_skips_chains_without_demand(triangle_instance):
    parts = partition_all(triangle_instance)
    assert [p.chain for p in parts] == ["c1"]  # c2 exists but has no demand


def test_dump_schema(triangle_instance):
    parts = partition_all(triangle_instance)
    payload = json.loads(partitions_to_json(parts))
    assert isinstance(payload, list)
    assert payload[0]["chain"] == "c1"
    g = payload[0]["groups"][0]
    assert set(g) == {"anchor", "members"}
    assert g["anchor"] in g["members"]


def test_anchor_is_member_at_creation():
    rng = random.Random(321)
    for _ in range(50):
        inst = random_connected_instance(rng)
        part = partition_chain(inst, "c")
        g = part.groups[0]
        assert g.anchor in g.members


@pytest.mark.parametrize("fixture", ["nsfnet_instance", "cost239_instance"])
def test_cluster_of_matches_scan_on_reference_topologies(fixture, request):
    inst = request.getfixturevalue(fixture)
    paths = all_pairs_hops(inst.topology)
    pairs = inst.pairs_for_chain(inst.chains_with_demand()[0])
    assert_clusters_match_scan(inst.topology.node_ids, pairs, paths, random.Random(17), draws=6)


def test_cluster_of_matches_scan_on_random_instances():
    rng = random.Random(2024)
    for _ in range(100):
        inst = random_connected_instance(rng, max_pairs=12)
        paths = all_pairs_hops(inst.topology)
        pairs = inst.pairs_for_chain("c")
        assert_clusters_match_scan(inst.topology.node_ids, pairs, paths, rng, draws=3)


# sha256 of partitions_to_json for the bundled NSFNET instance, as written by
# the per-pair scan that the cover entries replaced; the grouping must not drift
NSFNET_PARTITION_SHA256 = {
    1: "2a3d9826e8e663f7c86ec32fbffdac0eb7ca9be6088489b65a51054fd916df1e",
    4: "d64d1c63d0e7505b828ca828c16ed23615988896dcd6d3bebd354af16d66f271",
    8: "463042208a336b7628457edbfa056c9ea04de2d8de9097d90ac42b62f8fe0904",
    16: "90180809ea9017c7921e8e5e1a0477b5cc0f446f64a47ec77e5a8da2584f3ef5",
    34: "7dab969df1e0c96eb21691fb084b7fcd58ece224f103543c585e043ff2c6243c",
    182: "579e49985710d794e7027a55c5570625d0e59cd429d12297651b607a8ab88b9d",
}


@pytest.mark.parametrize("nc", sorted(NSFNET_PARTITION_SHA256))
def test_nsfnet_partitions_golden(nc):
    inst = load_instance(*nsfnet_files(), k=14, nc=nc)
    dump = partitions_to_json(partition_all(inst))
    assert hashlib.sha256(dump.encode()).hexdigest() == NSFNET_PARTITION_SHA256[nc]


def groups_of(part):
    return [(g.anchor, g.members) for g in part.groups]


def assert_matches_reference(inst, paths, nc):
    for chain in inst.chains_with_demand():
        got = partition_chain(with_nc(inst, nc), chain)
        want = reference_partition(inst, chain, paths, nc)
        assert groups_of(got) == groups_of(want), (chain, nc)


REFERENCE_NC = (1, 2, 3, 4, 5, 8, 16, 34, 60, 182)


@pytest.mark.parametrize("files", [nsfnet_files, cost239_files], ids=["nsfnet", "cost239"])
def test_partition_matches_reference_on_reference_topologies(files):
    inst = load_instance(*files(), k=1, nc=1)
    paths = all_pairs_hops(inst.topology)
    for nc in REFERENCE_NC:
        assert_matches_reference(inst, paths, nc)


def test_partition_matches_reference_on_the_mesh28_bench_topology(tmp_path):
    # 28-node ring plus 16 chords, 756 pairs: the benchmark's mesh28-scale input
    spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    gen.generate("mesh28-scale", 1, tmp_path)
    inst = load_instance(
        tmp_path / "topology.json", tmp_path / "chains.json", tmp_path / "demands.csv", k=28
    )
    paths = all_pairs_hops(inst.topology)
    for nc in (1, 8, 30, 200, 756):
        assert_matches_reference(inst, paths, nc)


@st.composite
def grouping_cases(draw):
    """A connected graph, a subset of its ordered pairs as demand, and nc."""
    n = draw(st.integers(3, 8))
    nodes = [f"n{i}" for i in range(n)]
    links = {(nodes[i - 1], nodes[i]) for i in range(1, n)}
    node = st.integers(0, n - 1)
    for i, j in draw(st.lists(st.tuples(node, node), max_size=2 * n)):
        if i != j:
            links.add((nodes[min(i, j)], nodes[max(i, j)]))
    everything = [(s, d) for s in nodes for d in nodes if s != d]
    pairs = draw(st.lists(st.sampled_from(everything), min_size=1, max_size=30, unique=True))
    nc = draw(st.integers(1, len(pairs) + 2))
    return build_instance(nodes, sorted(links), pairs), nc


@given(grouping_cases())
@settings(max_examples=150, deadline=None)
def test_partition_matches_reference_on_random_graphs(case):
    inst, nc = case
    assert_matches_reference(inst, all_pairs_hops(inst.topology), nc)


def assert_cover_entries_match_the_walk(topology):
    """`_cover_entries` with every ordered node pair as an anchor and every
    demand-like pair as a member equals the reference walk over each pair's
    node sequence, entry for entry."""
    paths = all_pairs_hops(topology)
    nodes = paths.names
    anchors = [(h, t) for h in nodes for t in nodes]
    members = [(s, d) for s in nodes for d in nodes if s != d]
    anchor, member = _cover_entries(node_ends(anchors, paths), node_ends(members, paths), paths)
    entries = list(zip(anchor.tolist(), member.tolist()))
    assert len(set(entries)) == len(entries)
    got: dict = {}
    for a, m in entries:
        got.setdefault(anchors[a], set()).add(members[m])
    assert got == _cover_index(members, paths)


@pytest.mark.parametrize("which", ["nsfnet", "cost239", "ring28"])
def test_cover_entries_match_the_walk(which):
    if which == "ring28":
        topology = ring_with_chords().topology
    else:
        files = nsfnet_files if which == "nsfnet" else cost239_files
        topology = load_instance(*files(), k=1).topology
    assert_cover_entries_match_the_walk(topology)


def test_cover_entries_match_the_walk_on_draws():
    for _, inst in draws():
        assert_cover_entries_match_the_walk(inst.topology)
