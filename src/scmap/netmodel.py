"""Network, VNF catalog, and demand model plus file ingestion.

A problem instance couples four ingredients: a topology whose undirected
links are expanded into directed arcs, a catalog of VNF types with per-Gbps
core requirements, the service chains built from those types, and a set of
demand records (src, dst, chain, gbps). Everything downstream (grouping,
master problem, baselines) works off the types defined here.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .pathcore import PathError, PathTable, shortest_path_weighted

log = logging.getLogger("scmap")


class ParseError(ValueError):
    """Malformed input file (bad JSON, missing field, wrong type)."""


class ValidationError(ValueError):
    """Structurally valid input that violates a model rule."""


class NodeSpec(NamedTuple):
    id: str
    nfv: bool
    cores: int


class ArcSpec(NamedTuple):
    src: str
    dst: str
    capacity_gbps: float


class VnfSpec(NamedTuple):
    id: str
    cores_per_gbps: float


class ChainSpec(NamedTuple):
    id: str
    vnfs: tuple[str, ...]  # ordered VNF ids, length >= 1


class DemandRecord(NamedTuple):
    src: str
    dst: str
    chain: str
    gbps: float


@dataclass
class Topology:
    """Directed-arc view of an undirected topology file.

    Each undirected link {a, b} becomes the two arcs (a, b) and (b, a), each
    carrying the full link capacity. Derived adjacency and the all-pairs hop
    table are precomputed; the table, least-cost paths under unit arc
    weights, is also the check that the topology is strongly connected.
    Treat instances as immutable after construction.
    """

    name: str
    nodes: list[NodeSpec]
    arcs: list[ArcSpec]
    node_by_id: dict[str, NodeSpec] = field(init=False, repr=False)
    arc_index: dict[tuple[str, str], int] = field(init=False, repr=False)
    out_arcs: dict[str, list[tuple[str, str]]] = field(init=False, repr=False)
    in_arcs: dict[str, list[tuple[str, str]]] = field(init=False, repr=False)
    paths: PathTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.node_by_id = {}
        for n in self.nodes:
            if n.id in self.node_by_id:
                raise ValidationError(f"duplicate node id {n.id!r}")
            if n.cores < 0:
                raise ValidationError(f"node {n.id!r} has negative cores")
            self.node_by_id[n.id] = n
        self.arc_index = {}
        self.out_arcs = {n.id: [] for n in self.nodes}
        self.in_arcs = {n.id: [] for n in self.nodes}
        for i, a in enumerate(self.arcs):
            if a.src not in self.node_by_id or a.dst not in self.node_by_id:
                raise ValidationError(f"arc ({a.src!r}, {a.dst!r}) references unknown node")
            if a.src == a.dst:
                raise ValidationError(f"self-loop arc at {a.src!r}")
            if not 0 < a.capacity_gbps < math.inf:
                raise ValidationError(
                    f"arc ({a.src!r}, {a.dst!r}) capacity must be positive and finite"
                )
            key = (a.src, a.dst)
            if key in self.arc_index:
                raise ValidationError(f"duplicate arc {key!r}")
            self.arc_index[key] = i
            self.out_arcs[a.src].append(key)
            self.in_arcs[a.dst].append(key)
        # deterministic neighbor order for traversals
        for adj in (self.out_arcs, self.in_arcs):
            for v in adj:
                adj[v].sort()
        if not self.nodes:
            raise ValidationError("topology has no nodes")
        try:
            self.paths = shortest_path_weighted(self, np.ones(len(self.arcs), dtype=np.int64))
        except PathError as e:
            raise ValidationError(f"topology not strongly connected ({e})") from None

    @property
    def node_ids(self) -> list[str]:
        return [n.id for n in self.nodes]

    @property
    def nfv_nodes(self) -> list[str]:
        """Sorted ids of NFV-capable nodes."""
        return sorted(n.id for n in self.nodes if n.nfv)

    def capacity(self, arc: tuple[str, str]) -> float:
        return self.arcs[self.arc_index[arc]].capacity_gbps


@dataclass
class DemandSet:
    records: list[DemandRecord]
    # (chain, src, dst) -> gbps, derived from records
    gbps: dict[tuple[str, str, str], float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.gbps = {}
        for r in self.records:
            if r.src == r.dst:
                raise ValidationError(f"self-demand {r.src!r} -> {r.dst!r} not allowed")
            if not 0 < r.gbps < math.inf:
                raise ValidationError(
                    f"demand {r.src!r}->{r.dst!r} gbps must be positive and finite"
                )
            key = (r.chain, r.src, r.dst)
            if key in self.gbps:
                raise ValidationError(f"duplicate demand record {(r.src, r.dst, r.chain)!r}")
            self.gbps[key] = r.gbps

    @property
    def chains(self) -> list[str]:
        return sorted({r.chain for r in self.records})


@dataclass
class ProblemInstance:
    """Immutable-by-convention container for one solvable problem."""

    topology: Topology
    vnfs: dict[str, VnfSpec]
    chains: dict[str, ChainSpec]
    demands: DemandSet
    k: int
    nc: dict[str, int]  # requested instance count per chain id
    # chain id -> per-position cores/Gbps, read once from `vnfs`
    cores_per_gbps: dict[str, tuple[float, ...]] = field(
        init=False, repr=False, compare=False
    )
    # chain id -> its demand pairs in lexicographic order, read once from `demands`
    chain_pairs: dict[str, tuple[tuple[str, str], ...]] = field(
        init=False, repr=False, compare=False
    )
    # cores every placement together needs, wherever each chain instance sits
    core_need: float = field(init=False, repr=False, compare=False)
    # node -> Gbps of the demands leaving it, and of those entering it
    out_gbps: dict[str, float] = field(init=False, repr=False, compare=False)
    in_gbps: dict[str, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        nfv = self.topology.nfv_nodes
        if not nfv:
            raise ValidationError("no NFV-capable node in topology")
        if not 1 <= self.k <= len(nfv):
            raise ValidationError(f"k={self.k} outside [1, |V^NFV|={len(nfv)}]")
        if not self.demands.records:
            raise ValidationError("no demand records")
        for c in self.chains.values():
            if not c.vnfs:
                raise ValidationError(f"chain {c.id!r} is empty")
            for f in c.vnfs:
                if f not in self.vnfs:
                    raise ValidationError(f"chain {c.id!r} references unknown VNF {f!r}")
        for f in self.vnfs.values():
            if not 0 <= f.cores_per_gbps < math.inf:
                raise ValidationError(f"vnf {f.id!r} cores_per_gbps must be finite and >= 0")
        self.cores_per_gbps = {
            cid: tuple(self.vnfs[f].cores_per_gbps for f in c.vnfs)
            for cid, c in self.chains.items()
        }
        pairs: dict[str, list[tuple[str, str]]] = {}
        chain_rate = {cid: sum(rates) for cid, rates in self.cores_per_gbps.items()}
        self.core_need = 0.0
        self.out_gbps, self.in_gbps = {}, {}
        for r in self.demands.records:
            for v in (r.src, r.dst):
                if v not in self.topology.node_by_id:
                    raise ValidationError(f"demand references unknown node {v!r}")
            if r.chain not in self.chains:
                raise ValidationError(f"demand references unknown chain {r.chain!r}")
            pairs.setdefault(r.chain, []).append((r.src, r.dst))
            self.core_need += r.gbps * chain_rate[r.chain]
            self.out_gbps[r.src] = self.out_gbps.get(r.src, 0.0) + r.gbps
            self.in_gbps[r.dst] = self.in_gbps.get(r.dst, 0.0) + r.gbps
        self.chain_pairs = {chain: tuple(sorted(p)) for chain, p in pairs.items()}
        clamped = {}
        for chain, n in self.nc.items():
            if chain not in self.chains:
                raise ValidationError(f"nc given for unknown chain {chain!r}")
            if n < 1:
                raise ValidationError(f"nc for chain {chain!r} must be >= 1")
            npairs = len(self.pairs_for_chain(chain))
            if npairs and n > npairs:
                log.warning("nc=%d for chain %s clamped to %d demand pairs", n, chain, npairs)
                n = npairs
            clamped[chain] = n
        self.nc = clamped

    def pairs_for_chain(self, chain: str) -> list[tuple[str, str]]:
        """Demand pairs requesting `chain`, in lexicographic order; a fresh
        list on every call."""
        return list(self.chain_pairs.get(chain, ()))

    def demand_gbps(self, chain: str, src: str, dst: str) -> float:
        """Gbps of the (src, dst) demand on `chain`; KeyError if there is none."""
        return self.demands.gbps[(chain, src, dst)]

    def chains_with_demand(self) -> list[str]:
        return self.demands.chains

    def chain_cores_per_gbps(self, chain: str) -> list[float]:
        """Per-position cores/Gbps for the chain's VNF sequence."""
        return list(self.cores_per_gbps[chain])


# -- file ingestion ----------------------------------------------------------


def _need(obj: dict, key: str, where: str):
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: must be an object, got {obj!r}")
    if key not in obj:
        raise ParseError(f"{where}: missing field {key!r}")
    return obj[key]


def _objects(obj: dict, key: str, where: str) -> list:
    items = _need(obj, key, where)
    if not isinstance(items, list):
        raise ParseError(f"{where}: {key} must be a list, got {items!r}")
    return items


def _number(value, key: str, where: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as e:
        raise ParseError(f"{where}: {key} not a number") from e


def _load_json(path: str | Path) -> dict:
    path = Path(path)
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise ParseError(f"{path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{e.lineno}: {e.msg}") from e
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be an object")
    return data


def load_topology(path: str | Path) -> Topology:
    data = _load_json(path)
    where = str(path)
    nodes = []
    for i, n in enumerate(_objects(data, "nodes", where)):
        spot = f"{where} nodes[{i}]"
        nfv = _need(n, "nfv", spot)
        cores = _number(n.get("cores", 0), "cores", spot)
        if not cores.is_integer():
            raise ParseError(f"{spot}: cores must be a whole number, got {cores:g}")
        if not isinstance(nfv, bool):
            raise ParseError(f"{spot}: nfv must be true or false, got {nfv!r}")
        nodes.append(NodeSpec(id=str(_need(n, "id", spot)), nfv=nfv, cores=int(cores)))
    arcs = []
    for i, l in enumerate(_objects(data, "links", where)):
        spot = f"{where} links[{i}]"
        a = str(_need(l, "a", spot))
        b = str(_need(l, "b", spot))
        cap = _number(_need(l, "capacity_gbps", spot), "capacity_gbps", spot)
        arcs.append(ArcSpec(a, b, cap))
        arcs.append(ArcSpec(b, a, cap))
    return Topology(name=str(data.get("name", Path(path).stem)), nodes=nodes, arcs=arcs)


def load_chains(path: str | Path) -> tuple[dict[str, VnfSpec], dict[str, ChainSpec]]:
    data = _load_json(path)
    where = str(path)
    vnfs: dict[str, VnfSpec] = {}
    for i, v in enumerate(_objects(data, "vnfs", where)):
        spot = f"{where} vnfs[{i}]"
        vid = str(_need(v, "id", spot))
        if vid in vnfs:
            raise ValidationError(f"{spot}: duplicate vnf id {vid!r}")
        rate = _number(_need(v, "cores_per_gbps", spot), "cores_per_gbps", spot)
        vnfs[vid] = VnfSpec(vid, rate)
    chains: dict[str, ChainSpec] = {}
    for i, c in enumerate(_objects(data, "chains", where)):
        spot = f"{where} chains[{i}]"
        cid = str(_need(c, "id", spot))
        if cid in chains:
            raise ValidationError(f"{spot}: duplicate chain id {cid!r}")
        seq = _need(c, "vnfs", spot)
        if not isinstance(seq, list) or not seq:
            raise ParseError(f"{spot}: vnfs must be a nonempty list")
        chains[cid] = ChainSpec(cid, tuple(str(f) for f in seq))
    return vnfs, chains


def load_demands(path: str | Path) -> DemandSet:
    """Demand records from a CSV file with the header src,dst,chain,gbps;
    blank lines are skipped, and an error names the file line it is on."""
    path = Path(path)
    expected = ["src", "dst", "chain", "gbps"]
    records = []
    try:
        fh = open(path, newline="")
    except OSError as e:
        raise ParseError(f"{path}: {e}") from e
    with fh:
        reader = csv.reader(fh)
        if next(reader, None) != expected:
            raise ParseError(f"{path}: header must be {','.join(expected)}")
        for row in reader:
            if not row:
                continue
            if len(row) != 4:
                raise ParseError(
                    f"{path}:{reader.line_num}: row must have 4 fields, {','.join(expected)}"
                )
            src, dst, chain, gbps = row
            try:
                rate = float(gbps)
            except ValueError as e:
                raise ParseError(f"{path}:{reader.line_num}: gbps not a number") from e
            records.append(DemandRecord(src, dst, chain, rate))
    return DemandSet(records)


def load_instance(
    topology_path: str | Path,
    chains_path: str | Path,
    demands_path: str | Path,
    k: int | None,
    nc: int | dict[str, int] = 1,
) -> ProblemInstance:
    """Load the three input files and assemble a validated ProblemInstance.

    `k` None allows every NFV node to host. `nc` may be a single int
    (applied to every chain with demand) or a map from chain id to instance
    count.
    """
    topo = load_topology(topology_path)
    vnfs, chains = load_chains(chains_path)
    demands = load_demands(demands_path)
    if isinstance(nc, int):
        nc_map = {c: nc for c in demands.chains}
    else:
        nc_map = dict(nc)
    if k is None:
        k = len(topo.nfv_nodes)
    return ProblemInstance(topo, vnfs, chains, demands, k=k, nc=nc_map)
