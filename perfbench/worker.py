"""One workload process: load the generated inputs, solve once, check, report.

    python3 perfbench/worker.py --manifest DIR/manifest.json --setup-only
    python3 perfbench/worker.py --manifest DIR/manifest.json [--trace SPANS]

`--setup-only` imports scmap, loads every cell's instance, prints `ready`
and exits; `run.py` times it from process start. Otherwise the worker makes
one pass over the cells, one after another in this thread, checks every
plan, and prints one JSON object as its last line. With `--trace` the pass
runs under layer spans, which are written to SPANS.

One pass per process keeps every timed pass cold, as a `scmap solve` or
`scmap sweep` invocation is: on mesh28-scale a second pass in the same
process ran 1.2-3.1 s faster than the first (memory the allocator had
already mapped), which mixed two populations in one median.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "scmap" / "__init__.py").is_file():
    sys.exit(f"worker: no scmap sources at {SRC}")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import scmap  # noqa: E402
from scmap import baselines, engine, netmodel, sptg  # noqa: E402

if not Path(scmap.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"worker: imported scmap from {scmap.__file__}, not {SRC}")

TOL = 1e-6

# Values proven for the bundled NSFNET fixture (chain fw->dpi->nat, 1 Gbps
# full mesh): nc=1 k=14 is the single-node optimum, nc=34 k=14 the routing
# lower bound. (cell, k) -> (baseline, its value)
EXACT = {
    "nsfnet-sweep": {
        ("nc1", 14): ("single_node_oracle", 624.0),
        ("nc34", 14): ("shortest_path_lb", 390.0),
    },
}


class CheckFailed(RuntimeError):
    """A plan or an input failed a benchmark check."""


@dataclass
class Cell:
    name: str
    nc: int
    ks: list
    instances: dict  # k -> ProblemInstance
    fresh: dict = field(default_factory=dict)  # k -> second copy, for checks
    lower_bound: float = 0.0
    penalty: float = 0.0
    exact: dict = field(default_factory=dict)  # k -> required objective


def load_cells(manifest_path: Path) -> tuple[dict, list]:
    manifest = json.loads(manifest_path.read_text())
    base = manifest_path.parent
    chains = base / manifest["chains"]
    demands = base / manifest["demands"]
    cells = []
    for spec in manifest["cells"]:
        topo = base / spec["topology"]
        instances = {
            k: netmodel.load_instance(topo, chains, demands, k=k, nc=spec["nc"])
            for k in spec["k"]
        }
        cells.append(Cell(spec["name"], spec["nc"], list(spec["k"]), instances))
    return manifest, cells


def prepare_checks(manifest: dict, cells: list, manifest_path: Path) -> list:
    """Reference values and certificates, all computed before any timing."""
    from certify import certify

    base = manifest_path.parent
    notes = []
    exact = EXACT.get(manifest["workload"], {})
    for cell, spec in zip(cells, manifest["cells"]):
        topo = base / spec["topology"]
        for k in cell.ks:
            cell.fresh[k] = netmodel.load_instance(
                topo, base / manifest["chains"], base / manifest["demands"], k=k, nc=cell.nc
            )
        inst = cell.instances[cell.ks[0]]
        cell.lower_bound = baselines.shortest_path_lb(inst)
        n = len(inst.topology.nodes)
        cell.penalty = sum(
            r.gbps * (len(inst.chains[r.chain].vnfs) + 1) * (n - 1)
            for r in inst.demands.records
        )
        for k in cell.ks:
            if (cell.name, k) not in exact:
                continue
            which, value = exact[(cell.name, k)]
            if which == "single_node_oracle":
                got = baselines.single_node_oracle(cell.instances[k])[1]
            else:
                got = baselines.shortest_path_lb(cell.instances[k])
            if abs(got - value) > TOL:
                raise CheckFailed(f"{cell.name} k={k}: {which} is {got}, expected {value}")
            cell.exact[k] = value
        if manifest["workload"] == "nsfnet-cores":
            packing = certify(inst, sptg.partition_all(inst))
            if packing is None:
                raise CheckFailed(f"{cell.name}: no feasibility certificate")
            notes.append(f"{cell.name}: certified feasible ({len(packing)} core loads packed)")
    return notes


def check_plan(cell: Cell, k: int, plan) -> list:
    """Problems with one returned plan; an empty list means it passed."""
    problems = []
    fresh = cell.fresh[k]
    parsed = engine.plan_from_json(engine.plan_to_json(plan), fresh)
    violations = engine.validate_plan(fresh, parsed)
    if violations:
        problems.append("; ".join(str(v) for v in violations[:3]))
    obj = parsed.objective_gbps_hops
    if abs(obj - plan.objective_gbps_hops) > TOL:
        problems.append(f"objective {plan.objective_gbps_hops} read back as {obj}")
    if obj < cell.lower_bound - TOL:
        problems.append(f"objective {obj} below shortest-path bound {cell.lower_bound}")
    if obj < plan.lp_bound - TOL:
        problems.append(f"objective {obj} below its LP bound {plan.lp_bound}")
    if k in cell.exact and abs(obj - cell.exact[k]) > TOL:
        problems.append(f"objective {obj}, proven optimum {cell.exact[k]}")
    return [f"{cell.name} k={k}: {p}" for p in problems]


def _failure(exc: engine.EngineError) -> str:
    return "infeasible" if isinstance(exc, engine.Infeasible) else "error"


def run_pass(api: str, cells: list, tracer=None) -> tuple[float, list]:
    """Solve every cell once; returns (seconds, [(cell, k, plan or failure)])."""
    out = []
    start = time.perf_counter()
    for cell in cells:
        if tracer is not None:
            tracer.cell = cell.name
        if api == "sweep":
            # as `scmap sweep`: one column generation per nc, one selection per k
            first = cell.instances[cell.ks[0]]
            try:
                model, _ = engine.run_column_generation(first, sptg.partition_all(first))
            except engine.EngineError as exc:
                out += [(cell, k, _failure(exc)) for k in cell.ks]
                continue
            for k in cell.ks:
                try:
                    out.append((cell, k, engine.extract_plan(cell.instances[k], model)))
                except engine.EngineError as exc:
                    out.append((cell, k, _failure(exc)))
            del model
        else:
            for k in cell.ks:
                try:
                    out.append((cell, k, engine.solve(cell.instances[k]).plan))
                except engine.EngineError as exc:
                    out.append((cell, k, _failure(exc)))
    return time.perf_counter() - start, out


def score(outcomes: list) -> dict:
    """Quality of one pass; a failed cell scores its penalty and bound 0."""
    objective = bound = 0.0
    solved = 0
    for cell, _, result in outcomes:
        if isinstance(result, str):
            objective += cell.penalty
        else:
            objective += result.objective_gbps_hops
            bound += result.lp_bound
            solved += 1
    return {
        "objective": objective,
        "bound_ratio": bound / objective,
        "solved_frac": solved / len(outcomes),
        "failed": len(outcomes) - solved,
        "cells": len(outcomes),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--manifest", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", type=Path, metavar="SPANS")
    args = ap.parse_args()

    tick = time.perf_counter()
    manifest, cells = load_cells(args.manifest)
    load_s = time.perf_counter() - tick
    if args.setup_only:
        print("ready", flush=True)
        return 0
    notes = prepare_checks(manifest, cells, args.manifest)
    api = "sweep" if manifest["workload"] == "nsfnet-sweep" else "solve"

    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    seconds, outcomes = run_pass(api, cells, tracer)
    report = {"pass_seconds": seconds}
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.trace)
        report["layers"] = tracer.layer_metrics() | {"netmodel.load_instance_s": load_s}
        report["uncovered_s"] = seconds - tracer.covered()
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    for cell, k, result in outcomes:
        if not isinstance(result, str):
            problems += check_plan(cell, k, result)
    report |= score(outcomes)
    report |= {
        "correct": not problems,
        "problems": problems[:10],
        "notes": notes,
        "outcomes": [
            {"cell": c.name, "k": k, "result": r if isinstance(r, str)
             else {"objective": r.objective_gbps_hops, "lp_bound": r.lp_bound}}
            for c, k, r in outcomes
        ],
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except CheckFailed as exc:
        print(json.dumps({"correct": False, "problems": [str(exc)]}), flush=True)
        sys.exit(1)
