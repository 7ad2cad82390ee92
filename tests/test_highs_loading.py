"""How scmap loads scipy's HiGHS binding: from its extension file, at the
first program a process solves, with no `scipy.optimize` import at start-up
and none during a solve, sharing one module with `scipy.optimize` in either
import order. Each case runs in a fresh interpreter, since the module table
of this one is already set."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import scmap

SRC = Path(scmap.__file__).resolve().parents[1]


def run_python(script, *path_first):
    """Run `script` in a fresh interpreter with `path_first` and then scmap's
    source tree ahead of PYTHONPATH; returns its stdout, failing the test on
    a nonzero exit."""
    path = [*map(str, path_first), str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_startup_imports_neither_scipy_optimize_nor_f2py():
    out = run_python(
        """
        import sys
        import scmap.cli
        print(sorted(m for m in ("scipy.optimize", "numpy.f2py", "numpy.ma") if m in sys.modules))
        """
    )
    assert out.strip() == "[]"


BINDING = [
    "scipy.optimize._highspy._core",
    "scipy.optimize._highspy._core.cb",
    "scipy.optimize._highspy._core.simplex_constants",
]

# Each stage loads and solves bundled NSFNET instances after reading the
# module table, and reports the modules it added, its HiGHS runs and the
# program that chose each plan:
# - closed: nc=4, one column generation selected at k=2 (the host-set
#   bound's plan) and k=14 (the relaxation point), every relaxation in
#   closed form;
# - mip: nc=16, every relaxation in closed form, selected at k=5 by the
#   selection program (a MIP);
# - lp: at 45 cores per node, nc=16, k=14, core rows bind, so column
#   generation solves LPs and the selection a MIP; then, with every link at
#   30 Gbps (an arc-flow master), nc=4 selected at k=2 (the full program)
#   and k=14 (the relaxation point)
STAGES = """
    import json, logging, sys, tempfile
    from pathlib import Path

    from scmap import engine
    from scmap.fixturedata import nsfnet_files
    from scmap.netmodel import load_instance
    from scmap.simplexkit import highs
    from scmap.sptg import partition_all

    topo, chains, demands = nsfnet_files()
    tmp = Path(tempfile.mkdtemp())

    def edited(name, key, field, value):
        doc = json.loads(topo.read_text())
        for entry in doc[key]:
            entry[field] = value
        path = tmp / name
        path.write_text(json.dumps(doc))
        return path

    cores45 = edited("cores45.topology.json", "nodes", "cores", 45)
    links30 = edited("links30.topology.json", "links", "capacity_gbps", 30)
    calls = {{}}

    def counted(name, run):
        def wrapped(*args):
            calls[name] += 1
            return run(*args)
        return wrapped

    highs.linprog = counted("linprog", highs.linprog)
    highs.milp = counted("milp", highs.milp)
    chosen = []

    class Chosen(logging.Handler):
        def emit(self, record):
            if record.getMessage().startswith("plan chosen"):
                chosen.append(record.getMessage().split(" by the ")[1])

    logging.getLogger("scmap").addHandler(Chosen())
    logging.getLogger("scmap").setLevel(logging.INFO)

    def sweep(path, nc, ks):
        cells = {{k: load_instance(path, chains, demands, k=k, nc=nc) for k in ks}}
        model, _ = engine.run_column_generation(cells[ks[0]], partition_all(cells[ks[0]]))
        for k in ks:
            engine.extract_plan(cells[k], model)
        return model

    def closed():
        sweep(topo, 4, (2, 14))

    def mip():
        sweep(topo, 16, (5,))

    def lp():
        engine.solve(load_instance(cores45, chains, demands, k=14, nc=16))
        sweep(cores45, 16, (14,))
        assert not sweep(links30, 4, (2, 14)).compact

    report = []
    for stage in {order}:
        before = set(sys.modules)
        calls.update(linprog=0, milp=0)
        chosen.clear()
        stage()
        added = sorted(set(sys.modules) - before)
        report.append({{"added": added, "chosen": list(chosen), **calls}})
    report.append("scipy.optimize" in sys.modules)
    print(json.dumps(report))
"""


def test_solve_imports_no_module():
    # closed-form solves add no module, the binding included; the first LP
    # or MIP adds the binding's own modules and nothing else, in either
    # order, and no stage imports scipy.optimize
    chosen = {
        "closed": ["host-set bound at k=2", "relaxation point at k=14"],
        "mip": ["selection program at k=5"],
        "lp": [
            "selection program at k=14",
            "selection program at k=14",
            "full program at k=2",
            "relaxation point at k=14",
        ],
    }
    for order in (["closed", "mip", "lp"], ["closed", "lp", "mip"]):
        *stages, optimize = json.loads(
            run_python(STAGES.format(order=f"({', '.join(order)})"))
        )
        assert optimize is False
        got = dict(zip(order, stages))
        assert [got[name]["chosen"] for name in order] == [chosen[name] for name in order]
        assert got["closed"] == {**got["closed"], "added": [], "linprog": 0, "milp": 0}
        assert got["mip"]["linprog"] == 0 and got["mip"]["milp"] == 1
        assert got["lp"]["linprog"] >= 1 and got["lp"]["milp"] >= 1
        assert got[order[1]]["added"] == BINDING
        assert got[order[2]]["added"] == []


def test_cli_validate_and_lowerbound_leave_the_binding_unloaded(tmp_path):
    # in-process `scmap solve`, `validate` and `lowerbound` on bundled NSFNET
    # at nc=4, k=14: every relaxation is in closed form and the relaxation
    # point is the plan, so no program reaches HiGHS
    out = run_python(
        f"""
        import sys
        from scmap import cli
        from scmap.fixturedata import nsfnet_files

        topo, chains, demands = nsfnet_files()
        flags = ["--topology", str(topo), "--chains", str(chains), "--demands", str(demands)]
        plan = {str(tmp_path / "plan.json")!r}
        codes = [
            cli.main(["solve", *flags, "--nc", "4", "--k", "14", "--out", plan]),
            cli.main(["validate", *flags, "--nc", "4", "--k", "14", "--plan", plan]),
            cli.main(["lowerbound", *flags]),
        ]
        print(codes, sorted(m for m in sys.modules if m.startswith("scipy.optimize")))
        """
    )
    lines = out.splitlines()
    assert lines[-1] == "[0, 0, 0] []"
    assert "plan ok: objective=494.000000" in lines


ROUND_TRIP = """
    import importlib.machinery
    import sys

    import numpy as np

    # every extension module created from here on, by name
    created = []
    create = importlib.machinery.ExtensionFileLoader.create_module

    def recorded(loader, spec):
        created.append(spec.name)
        return create(loader, spec)

    importlib.machinery.ExtensionFileLoader.create_module = recorded
    {first}
    from scmap.simplexkit import LE, LinearProgram, highs

    print("scipy.optimize" in sys.modules)
    {between}
    print("scipy.optimize._highspy._core" in created)
    lp = LinearProgram()
    lp.add_columns([-1.0, -2.0, 0.5], ub=4.0)
    entries = ([0, 0, 0, 1, 1], [0, 1, 2, 0, 1], [1.0, 1.0, 1.0, 1.0, 3.0])
    lp.add_rows(LE, [5.0, 9.0], entries)

    def scmap_answer():
        s = highs.solve_lp(lp)
        return s.status, s.x, s.objective, s.duals

    before = scmap_answer()
    import scipy.optimize
    ref = scipy.optimize.linprog(
        [-1.0, -2.0, 0.5], A_ub=[[1, 1, 1], [1, 3, 0]], b_ub=[5, 9], bounds=(0, 4)
    )
    after = scmap_answer()
    assert before == after, (before, after)
    assert created.count("scipy.optimize._highspy._core") == 1, created
    assert before[0] == "optimal" and ref.status == 0
    assert np.array_equal(before[1], ref.x) and before[2] == ref.fun
    assert np.array_equal(before[3], ref.ineqlin.marginals)
    from scipy.optimize._highspy import _core, _highs_wrapper
    assert sys.modules["scipy.optimize._highspy._core"] is highs._binding().core
    assert _core is highs._binding().core and _highs_wrapper._h is _core
    print("ok")
"""


@pytest.mark.parametrize(
    "first, between",
    [("", ""), ("import scipy.optimize", ""), ("", "import scipy.optimize")],
    ids=["scmap_first", "scipy_optimize_first", "scipy_optimize_before_first_solve"],
)
def test_one_binding_in_either_import_order(first, between):
    # the binding is created once: by scmap's first solve, or by
    # scipy.optimize where that is imported before it, scmap at import or not
    out = run_python(ROUND_TRIP.format(first=first, between=between)).split()
    assert out == [str(bool(first)), str(bool(first or between)), "ok"]


def test_missing_binding_names_the_scipy_floor(tmp_path):
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    out = run_python(
        """
        try:
            import scmap.simplexkit.highs
        except ImportError as exc:
            print(exc)
        """,
        tmp_path,
    )
    assert "scipy>=1.17" in out
