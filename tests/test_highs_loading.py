"""How scmap loads scipy's HiGHS binding: from its extension file, with no
`scipy.optimize` import at start-up and none during a solve, sharing one
module with `scipy.optimize` in either import order. Each case runs in a
fresh interpreter, since the module table of this one is already set."""

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


def test_solve_imports_no_module():
    # three instances, loaded and solved after the module table is read:
    # - NSFNET at 45 cores per node, nc=16, k=14: core rows bind, so column
    #   generation solves LPs and the final selection a MIP on HiGHS;
    # - bundled NSFNET, nc=4, one column generation selected at k=2 (the
    #   host-set bound's plan) and k=14 (the relaxation point);
    # - bundled NSFNET with every link at 30 Gbps, an arc-flow master, the
    #   same two selections (the full program's plan, the relaxation point)
    out = run_python(
        """
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

        calls = {"linprog": 0, "milp": 0}

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
                    chosen.append(record.getMessage())

        logging.getLogger("scmap").addHandler(Chosen())
        logging.getLogger("scmap").setLevel(logging.INFO)
        before = set(sys.modules)
        instance = load_instance(cores45, chains, demands, k=14, nc=16)
        engine.solve(instance)
        model, _ = engine.run_column_generation(instance, partition_all(instance))
        engine.extract_plan(instance, model)
        for path in (topo, links30):
            sweep = {k: load_instance(path, chains, demands, k=k, nc=4) for k in (2, 14)}
            model, _ = engine.run_column_generation(sweep[2], partition_all(sweep[2]))
            for k in (2, 14):
                engine.extract_plan(sweep[k], model)
        added = sorted(set(sys.modules) - before)
        print(json.dumps({"added": added, "chosen": chosen, "compact": model.compact, **calls}))
        """
    )
    got = json.loads(out)
    assert got["added"] == []
    assert got["linprog"] >= 1 and got["milp"] >= 1
    assert not got["compact"]
    assert [line.split(" by the ")[1] for line in got["chosen"]] == [
        "selection program at k=14",
        "selection program at k=14",
        "host-set bound at k=2",
        "relaxation point at k=14",
        "full program at k=2",
        "relaxation point at k=14",
    ]


ROUND_TRIP = """
    import importlib.machinery
    import sys

    import numpy as np

    {first}
    from scmap.simplexkit import LE, LinearProgram, highs

    print("scipy.optimize" in sys.modules)
    lp = LinearProgram()
    lp.add_columns([-1.0, -2.0, 0.5], ub=4.0)
    entries = ([0, 0, 0, 1, 1], [0, 1, 2, 0, 1], [1.0, 1.0, 1.0, 1.0, 3.0])
    lp.add_rows(LE, [5.0, 9.0], entries)

    def scmap_answer():
        s = highs.solve_lp(lp)
        return s.status, s.x, s.objective, s.duals

    before = scmap_answer()
    # every extension module created from here on, by name
    created = []
    create = importlib.machinery.ExtensionFileLoader.create_module

    def recorded(loader, spec):
        created.append(spec.name)
        return create(loader, spec)

    importlib.machinery.ExtensionFileLoader.create_module = recorded
    import scipy.optimize
    ref = scipy.optimize.linprog(
        [-1.0, -2.0, 0.5], A_ub=[[1, 1, 1], [1, 3, 0]], b_ub=[5, 9], bounds=(0, 4)
    )
    after = scmap_answer()
    assert before == after, (before, after)
    assert "scipy.optimize._highspy._core" not in created, created
    assert before[0] == "optimal" and ref.status == 0
    assert np.array_equal(before[1], ref.x) and before[2] == ref.fun
    assert np.array_equal(before[3], ref.ineqlin.marginals)
    from scipy.optimize._highspy import _core, _highs_wrapper
    assert sys.modules["scipy.optimize._highspy._core"] is highs._core
    assert _core is highs._core and _highs_wrapper._h is highs._core
    print("ok")
"""


@pytest.mark.parametrize(
    "first", ["", "import scipy.optimize"], ids=["scmap_first", "scipy_optimize_first"]
)
def test_one_binding_in_either_import_order(first):
    out = run_python(ROUND_TRIP.format(first=first)).split()
    assert out == [str(bool(first)), "ok"]


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
