"""Seeded input generator for the benchmark workloads.

Writes the topology / chains / demands files each workload process loads
with `scmap.netmodel.load_instance`. It reads only the bundled NSFNET
fixture files and never imports scmap, so what it writes does not depend on
the code under test. The same (workload, seed) gives byte-identical files.
`run.py` calls `generate` before any scmap process starts.

The seed changes the inputs only in ways scmap must not care about: the row
order of demands.csv (nsfnet-cores, mesh28-scale) and the order of the nc
groups (nsfnet-sweep). The networks, volumes and core counts are fixed.
On the core-bound cells, any change that scmap does see (seeded per-pair
Gbps, or only a relabelling of the NSFNET nodes) flips cells between a plan
and a false "infeasible", so seeded networks would make every quality
metric swing by far more than a regression bound.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "scmap" / "fixtures"
NSFNET_TOPOLOGY = FIXTURES / "nsfnet.topology.json"
CHAIN3 = FIXTURES / "chain3.chains.json"
NSFNET_DEMANDS = FIXTURES / "nsfnet_mesh.demands.csv"

UNCAPACITATED = 100000

# nsfnet-cores: (nc, tightness rho); node cores = ceil(rho * needed / |V|)
CORE_CELLS = ((34, 1.15), (16, 1.5), (8, 1.5))
CORE_K = 14
CORE_GBPS = 1.0

MESH_NODES = 28
MESH_CHORDS = 16
MESH_NC = 8
MESH_K = 28
# the chords are a fixed design choice, not drawn from the run seed
MESH_CHORD_SEED = "mesh28-chords"

SWEEP_NC = (1, 4, 16, 34)
SWEEP_K = (2, 14)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_demands(path: Path, rows: list) -> None:
    lines = ["src,dst,chain,gbps"]
    lines += [f"{s},{d},{chain},{gbps!r}" for s, d, chain, gbps in rows]
    path.write_text("\n".join(lines) + "\n")


def _chain_cores_per_gbps(chains_doc: dict) -> dict:
    rate = {v["id"]: float(v["cores_per_gbps"]) for v in chains_doc["vnfs"]}
    return {c["id"]: sum(rate[f] for f in c["vnfs"]) for c in chains_doc["chains"]}


def _nsfnet_cores(seed: int, out: Path) -> list:
    topo = json.loads(NSFNET_TOPOLOGY.read_text())
    chains = json.loads(CHAIN3.read_text())
    per_gbps = _chain_cores_per_gbps(chains)
    rows = [
        (s, d, c, CORE_GBPS) for s, d, c, _ in
        (line.split(",") for line in NSFNET_DEMANDS.read_text().split()[1:])
    ]
    _rng("nsfnet-cores", seed).shuffle(rows)
    needed = sum(g * per_gbps[c] for _, _, c, g in rows)
    nodes = topo["nodes"]
    _write_json(out / "chains.json", chains)
    _write_demands(out / "demands.csv", rows)
    cells = []
    for nc, rho in CORE_CELLS:
        cores = math.ceil(rho * needed / len(nodes))
        cell_topo = dict(topo, nodes=[dict(n, cores=cores) for n in nodes])
        name = f"topology-nc{nc}.json"
        _write_json(out / name, cell_topo)
        cells.append(
            {"name": f"nc{nc}", "topology": name, "nc": nc, "k": [CORE_K],
             "rho": rho, "node_cores": cores}
        )
    return cells


def _mesh28(seed: int, out: Path) -> list:
    rng = random.Random(MESH_CHORD_SEED)
    ids = [f"m{i:02d}" for i in range(MESH_NODES)]
    links = {tuple(sorted((ids[i], ids[(i + 1) % MESH_NODES]))) for i in range(MESH_NODES)}
    ring = sorted(links)
    chords = []
    while len(chords) < MESH_CHORDS:
        a, b = sorted(rng.sample(ids, 2))
        if (a, b) not in links:
            links.add((a, b))
            chords.append((a, b))
    topo = {
        "name": "mesh28",
        "nodes": [{"id": v, "nfv": True, "cores": UNCAPACITATED} for v in ids],
        "links": [
            {"a": a, "b": b, "capacity_gbps": float(UNCAPACITATED)}
            for a, b in ring + sorted(chords)
        ],
    }
    _write_json(out / "topology.json", topo)
    _write_json(out / "chains.json", json.loads(CHAIN3.read_text()))
    rows = [(s, d, "sc3", 1.0) for s in ids for d in ids if s != d]
    _rng("mesh28-scale", seed).shuffle(rows)
    _write_demands(out / "demands.csv", rows)
    return [{"name": f"nc{MESH_NC}", "topology": "topology.json", "nc": MESH_NC,
             "k": [MESH_K]}]


def _nsfnet_sweep(seed: int, out: Path) -> list:
    # the bundled fixture, copied unchanged; the seed only orders the nc groups
    for src, name in ((NSFNET_TOPOLOGY, "topology.json"), (CHAIN3, "chains.json"),
                      (NSFNET_DEMANDS, "demands.csv")):
        (out / name).write_bytes(src.read_bytes())
    order = list(SWEEP_NC)
    _rng("nsfnet-sweep", seed).shuffle(order)
    return [
        {"name": f"nc{nc}", "topology": "topology.json", "nc": nc, "k": list(SWEEP_K)}
        for nc in order
    ]


GENERATORS = {
    "nsfnet-sweep": _nsfnet_sweep,
    "nsfnet-cores": _nsfnet_cores,
    "mesh28-scale": _mesh28,
}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's input files into `out` and return its manifest.

    The manifest names, per cell, the topology file, nc and the k values;
    file names are relative to `out`.
    """
    out.mkdir(parents=True, exist_ok=True)
    cells = GENERATORS[workload](seed, out)
    manifest = {"workload": workload, "seed": seed, "chains": "chains.json",
                "demands": "demands.csv", "cells": cells}
    _write_json(out / "manifest.json", manifest)
    return manifest
