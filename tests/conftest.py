import csv
import json
import random
from pathlib import Path

import pytest

from scmap.fixturedata import cost239_files, nsfnet_files, triangle_files
from scmap.netmodel import (
    ArcSpec,
    ChainSpec,
    DemandRecord,
    DemandSet,
    NodeSpec,
    ProblemInstance,
    Topology,
    VnfSpec,
    load_instance,
)
from scmap.pathcore import all_pairs_hops


def build_instance(
    nodes,
    links,
    demands,
    k=None,
    nc=1,
    chain_vnfs=("fw",),
    capacity=1000.0,
    cores=100000,
    nfv=None,
    cores_per_gbps=1.0,
):
    """Assemble a small instance inline. `nodes` is an id list, `links` a list
    of (a, b) pairs, `demands` a list of (src, dst) or (src, dst, gbps)."""
    nfv = set(nodes) if nfv is None else set(nfv)
    node_specs = [NodeSpec(v, v in nfv, cores) for v in nodes]
    arcs = []
    for a, b in links:
        arcs.append(ArcSpec(a, b, capacity))
        arcs.append(ArcSpec(b, a, capacity))
    topo = Topology("inline", node_specs, arcs)
    vnfs = {f: VnfSpec(f, cores_per_gbps) for f in chain_vnfs}
    chains = {"c": ChainSpec("c", tuple(chain_vnfs))}
    records = []
    for dem in demands:
        s, d = dem[0], dem[1]
        gbps = dem[2] if len(dem) > 2 else 1.0
        records.append(DemandRecord(s, d, "c", gbps))
    if k is None:
        k = len(nfv)
    return ProblemInstance(topo, vnfs, chains, DemandSet(records), k=k, nc={"c": nc})


def with_capacity(instance, gbps):
    """The same instance with every arc rated at `gbps`."""
    topo = instance.topology
    arcs = [ArcSpec(a.src, a.dst, gbps) for a in topo.arcs]
    return ProblemInstance(
        Topology(topo.name, list(topo.nodes), arcs),
        instance.vnfs,
        instance.chains,
        instance.demands,
        k=instance.k,
        nc=dict(instance.nc),
    )


def with_k(instance, k):
    """The same instance with hosting budget `k`."""
    return ProblemInstance(
        instance.topology, instance.vnfs, instance.chains, instance.demands,
        k=k, nc=dict(instance.nc),
    )


def with_nc(instance, nc):
    """The same instance asking for `nc` instances of every chain."""
    return ProblemInstance(
        instance.topology, instance.vnfs, instance.chains, instance.demands,
        k=instance.k, nc={c: nc for c in instance.nc},
    )


def random_connected_instance(rng: random.Random, max_nodes=6, **kwargs):
    """Random connected topology with a random demand subset."""
    n = rng.randint(3, max_nodes)
    nodes = [f"n{i}" for i in range(n)]
    links = {(nodes[i - 1], nodes[i]) for i in range(1, n)}  # spine keeps it connected
    extra = rng.randint(0, n)
    for _ in range(extra):
        a, b = rng.sample(nodes, 2)
        links.add((min(a, b), max(a, b)))
    all_pairs = [(s, d) for s in nodes for d in nodes if s != d]
    rng.shuffle(all_pairs)
    n_dem = rng.randint(1, min(len(all_pairs), kwargs.pop("max_pairs", 8)))
    demands = [(s, d, rng.choice([0.5, 1.0, 2.0])) for s, d in all_pairs[:n_dem]]
    return build_instance(nodes, sorted(links), demands, **kwargs)


def ring_with_chords(n=28, chords=16, seed=28, **kwargs):
    """A ring of n nodes plus `chords` seeded chords, demand on every
    ordered pair."""
    rng = random.Random(seed)
    nodes = [f"m{i:02d}" for i in range(n)]
    links = {tuple(sorted((nodes[i], nodes[(i + 1) % n]))) for i in range(n)}
    while len(links) < n + chords:
        a, b = rng.sample(nodes, 2)
        links.add((min(a, b), max(a, b)))
    pairs = [(s, d) for s in nodes for d in nodes if s != d]
    return build_instance(nodes, sorted(links), pairs, **kwargs)


@pytest.fixture(scope="session")
def triangle_instance():
    return load_instance(*triangle_files(), k=3, nc=1)


@pytest.fixture(scope="session")
def capacitated_triangle(triangle_instance):
    """The triangle with 6 Gbps links: below its worst-case arc load of 12
    Gbps, so it gets an arc-flow master, yet no plan needs more."""
    return with_capacity(triangle_instance, 6.0)


def with_cores(instance, cores):
    """The same instance with node id -> cores overriding the nodes named."""
    topo = instance.topology
    nodes = [NodeSpec(n.id, n.nfv, cores.get(n.id, n.cores)) for n in topo.nodes]
    return ProblemInstance(
        Topology(topo.name, nodes, list(topo.arcs)),
        instance.vnfs,
        instance.chains,
        instance.demands,
        k=instance.k,
        nc=dict(instance.nc),
    )


@pytest.fixture(scope="session")
def uncapped_split_triangle():
    """The triangle in two chain instances (4 and 2 Gbps) at k=1: its
    relaxation places them on different nodes, so its point is no integer
    selection within k. Every node costs 8 for both, so the host-set bound
    takes node a."""
    return load_instance(*triangle_files(), k=1, nc=2)


@pytest.fixture(scope="session")
def split_triangle(uncapped_split_triangle):
    """`uncapped_split_triangle` with 5 cores at node a, which holds either
    chain instance but not both: the host-set bound's pick at a breaks a's
    core row, so the selection MIP runs."""
    return with_cores(uncapped_split_triangle, {"a": 5})


@pytest.fixture(scope="session")
def capacitated_split_triangle(uncapped_split_triangle):
    """`uncapped_split_triangle` with 6 Gbps links: an arc-flow master."""
    return with_capacity(uncapped_split_triangle, 6.0)


@pytest.fixture(scope="session")
def nsfnet_instance():
    return load_instance(*nsfnet_files(), k=14, nc=1)


@pytest.fixture(scope="session")
def cost239_instance():
    return load_instance(*cost239_files(), k=11, nc=1)


@pytest.fixture(scope="session")
def triangle_paths(triangle_instance):
    return all_pairs_hops(triangle_instance.topology)


@pytest.fixture(scope="session")
def nsfnet_paths(nsfnet_instance):
    return all_pairs_hops(nsfnet_instance.topology)


def save_instance(instance, directory):
    """Write the instance back out as topology/chains/demands files.

    Returns the paths written. Round-trips: loading the emitted files yields
    an instance equal to the original (same nodes, arcs, records, order).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    topo = instance.topology
    links = []
    for i in range(0, len(topo.arcs), 2):
        a = topo.arcs[i]
        links.append({"a": a.src, "b": a.dst, "capacity_gbps": a.capacity_gbps})
    paths = {
        "topology": directory / "topology.json",
        "chains": directory / "chains.json",
        "demands": directory / "demands.csv",
    }
    with open(paths["topology"], "w") as fh:
        json.dump(
            {
                "name": topo.name,
                "nodes": [{"id": n.id, "nfv": n.nfv, "cores": n.cores} for n in topo.nodes],
                "links": links,
            },
            fh,
            indent=2,
        )
        fh.write("\n")
    with open(paths["chains"], "w") as fh:
        json.dump(
            {
                "vnfs": [
                    {"id": v.id, "cores_per_gbps": v.cores_per_gbps}
                    for v in sorted(instance.vnfs.values(), key=lambda v: v.id)
                ],
                "chains": [
                    {"id": c.id, "vnfs": list(c.vnfs)}
                    for c in sorted(instance.chains.values(), key=lambda c: c.id)
                ],
            },
            fh,
            indent=2,
        )
        fh.write("\n")
    with open(paths["demands"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["src", "dst", "chain", "gbps"])
        for r in instance.demands.records:
            writer.writerow([r.src, r.dst, r.chain, repr(r.gbps)])
    return paths
