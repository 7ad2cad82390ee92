"""Command-line front end: solve one instance, sweep (nc, k) grids, validate
plans, print reference bounds.

Exit codes: 0 ok, 1 input error, 2 infeasible, 3 validation failure. An
"infeasible" verdict is relative to the demand grouping (`scmap.sptg`): no
plan exists that keeps each group on one chain instance.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import sys
import time

from . import baselines, engine
from .netmodel import ParseError, ProblemInstance, ValidationError, load_instance
from .sptg import partition_all

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_INVALID = 3

# a sweep row leaves blank the columns its cell did not reach
SWEEP_COLUMNS = (
    "nc", "k", "status", "objective", "lp_bound", "gap", "nfv_nodes_used",
    "iterations", "columns_generated", "wall_ms", "lb", "single_node",
)
SWEEP_HEADER = ",".join(SWEEP_COLUMNS)

EXIT_HELP = (
    "exit codes: 0 ok, 1 input error, 2 infeasible relative to the demand "
    "grouping (sptg partition), 3 plan validation failed"
)


class CliError(Exception):
    """Bad flags or unreadable inputs; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on flag errors by default, which this tool
    # reserves for infeasibility
    def error(self, message):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def parse_nc(text: str):
    """Accept a bare count or per-chain overrides like web=4,voip=2."""
    try:
        return int(text)
    except ValueError:
        pass
    out = {}
    for part in text.split(","):
        chain, eq, count = part.partition("=")
        if not eq or not chain:
            raise CliError(
                f"--nc must be an integer or chain=int[,chain=int...], got {text!r}"
            )
        try:
            out[chain] = int(count)
        except ValueError:
            raise CliError(f"--nc: {count!r} is not an integer (in {part!r})") from None
    return out


def _positive(convert):
    """An argparse type: `convert(text)`, which must be finite and > 0."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = 0
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
        return value

    return parse


def _add_file_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--topology", required=True, help="topology JSON file")
    p.add_argument("--chains", required=True, help="VNF/chain JSON file")
    p.add_argument("--demands", required=True, help="demand CSV file")


def _add_instance_flags(p: argparse.ArgumentParser, *, need_k: bool) -> None:
    _add_file_flags(p)
    p.add_argument("--nc", default="1", help="instance count: int or chain=int,...")
    p.add_argument(
        "--k",
        type=int,
        required=need_k,
        default=None,
        help="max number of VNF-hosting nodes"
        + ("" if need_k else " (default: all of them)"),
    )


def _load(args) -> ProblemInstance:
    return load_instance(
        args.topology, args.chains, args.demands, k=args.k, nc=parse_nc(args.nc)
    )


def cmd_solve(args) -> int:
    instance = _load(args)
    result = engine.solve(
        instance,
        max_iters=args.max_iters,
        time_limit=args.time_limit,
    )
    plan = result.plan
    with open(args.out, "w") as fh:
        fh.write(engine.plan_to_json(plan))
    if args.trace:
        with open(args.trace, "w") as fh:
            engine.write_trace_csv(result.trace, fh)
    print(
        f"objective={plan.objective_gbps_hops:.6f} gap={plan.gap:.6f} "
        f"nfv_nodes_used={len(plan.hosting)}"
    )
    return EXIT_OK


def _sweep_group(probe: ProblemInstance, nc: int, k_values, args) -> list:
    """One report row per k for one nc, each a dict of the `SWEEP_COLUMNS`
    its cell has: one column-generation run is shared across k."""
    nc_map = {c: nc for c in probe.demands.chains}
    tick = time.perf_counter()
    try:
        base = dataclasses.replace(probe, k=k_values[0], nc=nc_map)
        model, trace = engine.run_column_generation(
            base,
            partition_all(base),
            max_iters=args.max_iters,
            time_limit=args.time_limit,
        )
    except engine.Infeasible as exc:
        log.error("nc=%d: %s", nc, exc)
        return [{"nc": nc, "k": k, "status": "infeasible"} for k in k_values]
    except Exception as exc:  # noqa: BLE001 - a failed group must not kill the sweep
        log.error("nc=%d: column generation failed: %s", nc, exc)
        return [{"nc": nc, "k": k, "status": "error"} for k in k_values]
    cg_ms = int((time.perf_counter() - tick) * 1e3)
    iterations = len(trace.iterations)
    columns = len(model.pool)
    rows = []
    for k in k_values:
        tick = time.perf_counter()
        row = {"nc": nc, "k": k, "lp_bound": f"{model.lp_bound:.6f}",
               "iterations": iterations, "columns_generated": columns}
        try:
            plan = engine.extract_plan(
                dataclasses.replace(probe, k=k, nc=nc_map), model, time_limit=args.time_limit
            )
            row["status"] = "ok"
            row["objective"] = f"{plan.objective_gbps_hops:.6f}"
            row["gap"] = f"{plan.gap:.6f}"
            row["nfv_nodes_used"] = len(plan.hosting)
        except engine.Infeasible as exc:
            log.error("nc=%d k=%d: %s", nc, k, exc)
            row["status"] = "infeasible"
        except Exception as exc:  # noqa: BLE001
            log.error("nc=%d k=%d: %s", nc, k, exc)
            row["status"] = "error"
        # the group's column generation is timed into its first row
        row["wall_ms"] = int((time.perf_counter() - tick) * 1e3) + cg_ms
        cg_ms = 0
        rows.append(row)
    return rows


def _parse_int_list(text: str, flag: str) -> list:
    try:
        values = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise CliError(f"{flag} must be a comma-separated integer list") from None
    if not values:
        raise CliError(f"{flag} must not be empty")
    return values


def cmd_sweep(args) -> int:
    nc_values = _parse_int_list(args.nc_list, "--nc-list")
    k_values = _parse_int_list(args.k_list, "--k-list")
    probe = load_instance(
        args.topology, args.chains, args.demands, k=1, nc=1
    )
    nfv_count = len(probe.topology.nfv_nodes)
    for k in k_values:
        if not 1 <= k <= nfv_count:
            raise CliError(f"--k-list value {k} outside [1, {nfv_count}]")
    for nc in nc_values:
        if nc < 1:
            raise CliError(f"--nc-list value {nc} must be >= 1")
    reference = {"lb": f"{baselines.shortest_path_lb(probe):.6f}"}
    single = baselines.single_node_oracle(probe)[1]
    if single is not None:
        reference["single_node"] = f"{single:.6f}"
    cells = bad = 0
    # opened before any cell is solved, so a bad path fails at once
    with open(args.out, "w") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for nc in nc_values:
            for row in _sweep_group(probe, nc, k_values, args):
                row.update(reference)
                fh.write(",".join(str(row.get(c, "")) for c in SWEEP_COLUMNS) + "\n")
                cells += 1
                bad += row["status"] != "ok"
    print(f"sweep: {cells} cells, {bad} failed, report {args.out}")
    return EXIT_OK


def cmd_validate(args) -> int:
    instance = _load(args)
    try:
        with open(args.plan) as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read plan: {exc}") from None
    try:
        plan = engine.plan_from_json(text, instance)
    except engine.EngineError as exc:
        raise CliError(f"{args.plan}: {exc}") from None
    violations = engine.validate_plan(instance, plan)
    if not violations:
        print(f"plan ok: objective={plan.objective_gbps_hops:.6f}")
        return EXIT_OK
    for v in violations:
        print(v)
    return EXIT_INVALID


def cmd_lowerbound(args) -> int:
    instance = _load(args)
    # per_pair first, so its warnings precede the single-node one on stderr
    pair_value, from_engine = baselines.per_pair(instance)
    node, value = baselines.single_node_oracle(instance)
    print(f"shortest_path_lb {baselines.shortest_path_lb(instance):.6f}")
    if node is None:
        print("single_node none: no node fits every demand")
    else:
        print(f"single_node {node} {value:.6f}")
    suffix = " engine" if from_engine else ""
    if pair_value is None:
        print(f"per_pair none{suffix}: no plan relative to the demand grouping")
    else:
        print(f"per_pair {pair_value:.6f}{suffix}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="scmap",
        description=__doc__.splitlines()[0],
        epilog=EXIT_HELP,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "solve", help="solve one instance, write the plan JSON", epilog=EXIT_HELP
    )
    _add_instance_flags(p, need_k=True)
    p.add_argument(
        "--time-limit",
        type=_positive(float),
        default=None,
        help="seconds for the whole solve: grouping, column generation and "
        "final selection share one budget; column generation stops with a "
        "quarter of it left for the selection",
    )
    p.add_argument("--max-iters", type=_positive(int), default=200)
    p.add_argument("--out", required=True, help="plan JSON output path")
    p.add_argument("--trace", default=None, help="iteration trace CSV path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="run an (nc, k) grid, write a CSV report")
    _add_file_flags(p)
    p.add_argument("--nc-list", required=True, help="comma-separated counts")
    p.add_argument("--k-list", required=True, help="comma-separated budgets")
    p.add_argument(
        "--time-limit",
        type=_positive(float),
        default=None,
        help="seconds for each nc's column generation, its RMP build included, "
        "and again for each k's selection",
    )
    p.add_argument("--max-iters", type=_positive(int), default=200)
    p.add_argument("--out", required=True, help="report CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="check a plan against an instance")
    _add_instance_flags(p, need_k=True)
    p.add_argument("--plan", required=True, help="plan JSON to check")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("lowerbound", help="print reference bounds")
    _add_instance_flags(p, need_k=False)
    p.set_defaults(func=cmd_lowerbound)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except engine.Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (CliError, ParseError, ValidationError, engine.EngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
