"""Self-check of the benchmark's own machinery; exits 1 on any failure.

    python3 perfbench/selfcheck.py

1. One seed gives byte-identical input files twice, for every workload.
2. The feasibility certificate packs every nsfnet-cores cell as generated,
   and rejects the nc=8 cell once node cores sit below its largest group's
   single-VNF load.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from certify import certify, group_loads  # noqa: E402
from gen import GENERATORS, generate  # noqa: E402
from scmap import netmodel, sptg  # noqa: E402

WORK = HERE.parent / ".perfbench_work" / "selfcheck"


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def check_inputs_repeat(seed: int) -> list:
    problems = []
    for workload in sorted(GENERATORS):
        first, second = WORK / f"{workload}-a", WORK / f"{workload}-b"
        generate(workload, seed, first)
        generate(workload, seed, second)
        if _files(first) != _files(second):
            problems.append(f"{workload}: seed {seed} gave different files")
    return problems


def _load(directory: Path, cell: dict):
    return netmodel.load_instance(
        directory / cell["topology"], directory / "chains.json",
        directory / "demands.csv", k=cell["k"][0], nc=cell["nc"],
    )


def check_certificate(seed: int) -> list:
    problems = []
    directory = WORK / "nsfnet-cores-a"
    manifest = generate("nsfnet-cores", seed, directory)
    for cell in manifest["cells"]:
        inst = _load(directory, cell)
        if certify(inst, sptg.partition_all(inst)) is None:
            problems.append(f"{cell['name']}: generated cell not certified")
    cell = next(c for c in manifest["cells"] if c["nc"] == 8)
    inst = _load(directory, cell)
    largest = max(load for _, load in group_loads(inst, sptg.partition_all(inst)))
    path = directory / cell["topology"]
    topo = json.loads(path.read_text())
    for node in topo["nodes"]:
        node["cores"] = int(largest) - 1
    path.write_text(json.dumps(topo))
    starved = _load(directory, cell)
    if certify(starved, sptg.partition_all(starved)) is not None:
        problems.append(f"nc8: certified with {int(largest) - 1} cores per node, "
                        f"below the largest single-VNF load {largest}")
    return problems


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        problems = check_inputs_repeat(seed=1) + check_certificate(seed=1)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for problem in problems:
        print(f"selfcheck FAILED: {problem}")
    if not problems:
        print("selfcheck ok: inputs repeat per seed; certificate rejects starved cores")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
