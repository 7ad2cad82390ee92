"""scmap benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload nsfnet-cores --seed 1 --seconds 20 --trace 0

Closed loop with one client: fresh workload processes run one after another
until `--seconds` have passed, each solving every cell once, one after
another in one thread (worker.py). The inputs are generated from the seed
before any scmap process starts (gen.py). Set-up time is timed over several
fresh processes that import scmap and load every cell's instance. Every
returned plan is checked; a failed check exits 1 instead of scoring. With
`--trace 1` the first pass runs untraced, as the overhead baseline, and the
rest under layer spans.

The last stdout line is {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
The lines before it are a readable summary.
"""

from __future__ import annotations

import argparse
import json
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from gen import GENERATORS, generate  # noqa: E402
from layers import LAYER_METRICS  # noqa: E402

WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 7
DEADLINE_S = 170.0  # the whole run, probes and workload process included

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "peak_rss_mb": "MB",
    "objective_gbps_hops": "Gbps.hops",
    "bound_ratio": "ratio",
    "solved_frac": "ratio",
}
TRACE_UNITS = {
    "trace.solve_s": "s",
    "trace.untraced_solve_s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
}


class BenchError(RuntimeError):
    pass


def _worker(manifest: Path, *extra: str) -> list:
    return [sys.executable, str(HERE / "worker.py"), "--manifest", str(manifest), *extra]


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def time_setup(manifest: Path, deadline: float) -> list:
    """Seconds from spawn to 'ready' for fresh set-up processes.

    One unmeasured probe runs first, so byte-compiling a fresh checkout is
    not counted.
    """
    times = []
    for i in range(SETUP_PROBES + 1):
        tick = time.perf_counter()
        proc = subprocess.Popen(
            _worker(manifest, "--setup-only"), stdout=subprocess.PIPE, text=True
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], deadline - time.perf_counter())
            line = proc.stdout.readline() if ready else ""
            elapsed = time.perf_counter() - tick
            proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        finally:
            _stop(proc)
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"set-up probe failed (exit {proc.returncode})")
        if i:
            times.append(elapsed)
    return times


def run_worker(manifest: Path, deadline: float, spans: Path | None = None) -> dict:
    args = ["--trace", str(spans)] if spans else []
    proc = subprocess.Popen(_worker(manifest, *args), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("workload process overran the deadline") from None
    finally:
        _stop(proc)
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"workload process printed nothing (exit {proc.returncode})")
    report = json.loads(lines[-1])
    if proc.returncode != 0 and report.get("correct", True):
        raise BenchError(f"workload process exited {proc.returncode}")
    return report


def run_passes(manifest: Path, seconds: int, trace: bool, deadline: float) -> list:
    """One report per workload process; stops at the first failed check."""
    reports = []
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or (trace and len(reports) < 2):
        traced = trace and len(reports) > 0
        spans = manifest.parent / f"spans-{len(reports)}.jsonl" if traced else None
        reports.append(run_worker(manifest, deadline, spans))
        if not reports[-1]["correct"]:
            break
    return reports


def summarize(workload: str, seed: int, reports: list, attempted: int, failed: int,
              metrics: dict) -> None:
    first = reports[0]
    print(f"workload {workload} seed {seed}: {len(reports)} passes, pass seconds "
          f"{[round(r['pass_seconds'], 3) for r in reports]}")
    for note in first["notes"]:
        print(f"  {note}")
    for cell in first["outcomes"]:
        r = cell["result"]
        shown = r if isinstance(r, str) else (
            f"objective {r['objective']:g} lp_bound {r['lp_bound']:g}")
        print(f"  cell {cell['cell']} k={cell['k']}: {shown}")
    print(f"  failed_frac {failed / attempted:.4f} ({failed} of {attempted} cells)")
    print(f"  gap {1.0 - first['bound_ratio']:.6g} ratio (1 - bound_ratio)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.perf_counter() + DEADLINE_S
    if not (ROOT / "src" / "scmap" / "__init__.py").is_file():
        print(f"run: no scmap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    generate(args.workload, args.seed, work)
    manifest = work / "manifest.json"
    try:
        setup = [] if args.trace else time_setup(manifest, deadline)
        reports = run_passes(manifest, args.seconds, bool(args.trace), deadline)
    except BenchError as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r.get("cells", 0) for r in reports) or 1
    failed = sum(r.get("failed", 0) for r in reports)
    if not all(r["correct"] for r in reports):
        for problem in reports[-1]["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1

    def median(key: str, among: list = reports) -> float:
        return statistics.median(r[key] for r in among)

    if args.trace:
        untraced, traced = reports[0], reports[1:]
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in LAYER_METRICS}
        values["trace.solve_s"] = median("pass_seconds", traced)
        values["trace.untraced_solve_s"] = untraced["pass_seconds"]
        values["trace.overhead_s"] = values["trace.solve_s"] - untraced["pass_seconds"]
        values["trace.uncovered_s"] = median("uncovered_s", traced)
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()} | TRACE_UNITS
    else:
        values = {
            "setup_s": statistics.median(setup),
            "solve_s": median("pass_seconds"),
            "peak_rss_mb": median("peak_rss_mb"),
            "objective_gbps_hops": median("objective"),
            "bound_ratio": median("bound_ratio"),
            "solved_frac": median("solved_frac"),
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    summarize(args.workload, args.seed, reports, attempted, failed, metrics)
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
