"""Acceptance battery: one test per criterion, each printing a PASS line
with the measured numbers once its assertions hold.

NSFNET column generation is budget-independent (the relaxation carries no
hosting budget), so each nc value is generated once and every k reuses the
converged model; per-cell wall time charged below includes that shared
generation cost.
"""

import json
import random
import time

import pytest
from brute_force import enumerate_all_configs
from conftest import random_connected_instance, save_instance
from test_engine import separable_optimum, solved_square
from test_pricer import brute_force_total, random_duals
from test_simplexkit import (
    assert_duality_gap,
    binary_enumeration_optimum,
    lp_from_arrays,
    random_lp,
    vertex_enumeration_optimum,
)

from scmap import baselines, cli, engine
from scmap.simplexkit import LE, highs
from scmap.simplexkit.model import GE
from scmap.fixturedata import cost239_files, nsfnet_files
from scmap.master import chain_instances
from scmap.netmodel import ProblemInstance, load_instance
from scmap.pricer import best_configuration, price_round, segment_cost_table
from scmap.sptg import partition_all

NSF_LB = 390.0
COST239_LB = 194.0


class Lab:
    """Shared NSFNET solves with honest per-cell wall accounting."""

    def __init__(self):
        base = load_instance(*nsfnet_files(), k=14, nc=1)
        self.parts = (base.topology, base.vnfs, base.chains, base.demands)
        self.models = {}
        self.plans = {}
        self.emitted = []

    def instance(self, nc, k):
        topo, vnfs, chains, demands = self.parts
        return ProblemInstance(
            topo, vnfs, chains, demands, k=k, nc={c: nc for c in demands.chains}
        )

    def model(self, nc):
        if nc not in self.models:
            inst = self.instance(nc, 14)
            tick = time.perf_counter()
            model, trace = engine.run_column_generation(inst, partition_all(inst))
            assert trace.converged, f"nc={nc}: column generation truncated"
            self.models[nc] = (model, time.perf_counter() - tick)
        return self.models[nc]

    def solve(self, nc, k):
        if (nc, k) not in self.plans:
            model, cg_wall = self.model(nc)
            inst = self.instance(nc, k)
            tick = time.perf_counter()
            plan = engine.extract_plan(inst, model)
            wall = time.perf_counter() - tick + cg_wall
            self.plans[(nc, k)] = (plan, wall)
            self.emitted.append((nc, k, plan))
        return self.plans[(nc, k)]


@pytest.fixture(scope="module")
def lab():
    return Lab()


cost239_emitted = []


def test_criterion_1_k1_exactness(lab):
    tick = time.perf_counter()
    plan, _ = lab.solve(nc=1, k=1)
    node, oracle = baselines.single_node_oracle(lab.instance(1, 1))
    wall = time.perf_counter() - tick
    assert plan.objective_gbps_hops == pytest.approx(oracle, abs=1e-6)
    assert len(plan.hosting) == 1
    assert wall < 60.0
    print(
        f"\ncriterion 1 PASS: nc=1 k=1 objective {plan.objective_gbps_hops:.6f} "
        f"== single-node oracle at {node} ({oracle:.6f}), {wall:.1f}s"
    )


def test_criterion_2_per_pair_exactness(lab):
    plan, _ = lab.solve(nc=182, k=14)
    lb = baselines.shortest_path_lb(lab.instance(182, 14))
    assert lb == pytest.approx(NSF_LB, abs=1e-9)
    assert plan.objective_gbps_hops == pytest.approx(lb, abs=1e-6)
    print(
        f"\ncriterion 2 PASS: nc=182 k=14 objective "
        f"{plan.objective_gbps_hops:.6f} == shortest-path bound {lb:.6f}"
    )


def test_criterion_3_k1_instance_invariance(lab):
    values = {nc: lab.solve(nc, 1)[0].objective_gbps_hops for nc in (1, 2, 4, 8)}
    spread = max(values.values()) - min(values.values())
    assert spread <= 1e-6, values
    print(
        f"\ncriterion 3 PASS: k=1 objectives identical across nc 1,2,4,8 "
        f"({values[1]:.6f}, spread {spread:.2e})"
    )


def test_criterion_4_trend_reproduction(lab):
    ncs = (1, 2, 4, 8, 16, 34)
    objs = {}
    wall = 0.0
    for nc in ncs:
        plan, cell_wall = lab.solve(nc, 14)
        objs[nc] = plan.objective_gbps_hops
        wall += cell_wall
    for prev, cur in zip(ncs, ncs[1:]):
        assert objs[cur] <= objs[prev] + 0.01 * NSF_LB, (prev, cur, objs)
    assert objs[34] <= objs[1]
    assert objs[34] <= 1.10 * NSF_LB
    assert wall < 1800.0
    trend = " ".join(f"{nc}:{objs[nc]:.0f}" for nc in ncs)
    print(
        f"\ncriterion 4 PASS: k=14 sweep {trend}, final within "
        f"{(objs[34] / NSF_LB - 1) * 100:.2f}% of bound, {wall:.1f}s total"
    )


def test_criterion_5_k_constrained_trend(lab):
    plan316, _ = lab.solve(nc=16, k=3)
    plan536, _ = lab.solve(nc=36, k=5)
    r316 = plan316.objective_gbps_hops / NSF_LB
    r536 = plan536.objective_gbps_hops / NSF_LB
    assert r316 <= 1.20, r316
    assert r536 <= 1.10, r536

    base = load_instance(*cost239_files(), k=1, nc=8)
    lb = baselines.shortest_path_lb(base)
    assert lb == pytest.approx(COST239_LB, abs=1e-9)
    objs = {}
    for k in (1, 2, 3, 5):
        inst = ProblemInstance(
            base.topology, base.vnfs, base.chains, base.demands, k=k, nc=dict(base.nc)
        )
        result = engine.solve(inst)
        objs[k] = result.plan.objective_gbps_hops
        cost239_emitted.append((k, result.plan))
    ks = sorted(objs)
    assert all(objs[b] <= objs[a] + 1e-9 for a, b in zip(ks, ks[1:])), objs
    assert objs[ks[-1]] < objs[ks[0]] - 1e-6, objs
    print(
        f"\ncriterion 5 PASS: NSFNET k=3/nc=16 at {r316:.4f}x bound, "
        f"k=5/nc=36 at {r536:.4f}x bound; COST239 nc=8 objectives "
        + " ".join(f"k{k}:{objs[k]:.0f}" for k in ks)
    )


def test_criterion_6_pricing_exactness():
    rng = random.Random(0xC6)
    failures = 0
    for case in range(500):
        inst = random_connected_instance(
            rng, max_nodes=5, chain_vnfs=("fw", "nat")[: rng.randint(1, 2)]
        )
        ci = chain_instances(inst, partition_all(inst))[0]
        duals = random_duals(rng, inst, ci)
        pricing = price_round(inst, [ci], duals, segment_cost_table(inst, duals))
        *_, reduced = best_configuration(inst, ci, pricing)
        best = min(
            brute_force_total(inst, ci, duals, c)
            for c in enumerate_all_configs(inst, ci)
        )
        if abs(reduced - best) > 1e-6:
            failures += 1
    assert failures == 0
    print("\ncriterion 6 PASS: 500/500 pricing calls match brute-force enumeration")


def test_criterion_7_end_to_end_oracle():
    rng = random.Random(0xC7)
    for case in range(100):
        inst = random_connected_instance(
            rng,
            max_nodes=6,
            max_pairs=4,
            chain_vnfs=("fw", "nat")[: rng.randint(1, 2)],
            nc=rng.randint(1, 4),
        )
        result = engine.solve(inst)
        want = separable_optimum(inst)
        assert result.plan.objective_gbps_hops == pytest.approx(want, abs=1e-6), (
            case,
            want,
            result.plan.objective_gbps_hops,
        )
    print("\ncriterion 7 PASS: 100/100 small instances match exhaustive search")


def test_criterion_8_lp_kernel():
    rng = random.Random(0xC8)
    lp_feasible = 0
    for case in range(50):
        c, rows, lb, ub = random_lp(rng)
        lp = lp_from_arrays(c, rows, lb=lb, ub=ub)
        oracle = vertex_enumeration_optimum(c, rows, lb, ub)
        sol = highs.solve_lp(lp)
        if oracle is None:
            assert sol.status == "infeasible", (case, sol.status)
        else:
            assert sol.optimal, (case, sol.status)
            assert sol.objective == pytest.approx(oracle, abs=1e-6), case
            assert_duality_gap(lp, sol)
        if oracle is not None:
            lp_feasible += 1
    assert lp_feasible >= 25
    for case in range(30):
        n = rng.randint(2, 12)
        c = [round(rng.uniform(-5, 5), 3) for _ in range(n)]
        rows = []
        for _ in range(rng.randint(1, 6)):
            coeffs = [rng.choice([-2, -1, 0, 1, 2, 3]) for _ in range(n)]
            rel = rng.choice([LE, LE, GE])
            rows.append((coeffs, rel, float(rng.randint(-2, max(2, n // 2 + 2)))))
        prog = lp_from_arrays(c, rows, ub=[1.0] * n, integer=[True] * n)
        oracle = binary_enumeration_optimum(c, rows, n)
        got = highs.solve_mip(prog)
        if oracle is None:
            assert got.status == "infeasible", case
        else:
            assert got.status == "optimal", case
            assert got.objective == pytest.approx(oracle, abs=1e-6), case
    print(
        f"\ncriterion 8 PASS: 50 LPs ({lp_feasible} feasible) vs vertex "
        f"enumeration and 30 binary programs vs 2^n, HiGHS, zero mismatches"
    )


def test_criterion_9_validator_soundness(lab, tmp_path, capsys):
    if not lab.emitted:
        lab.solve(1, 1)
    nsf = [str(p) for p in nsfnet_files()]
    checked = 0
    for nc, k, plan in lab.emitted:
        out = tmp_path / f"nsf_{nc}_{k}.json"
        out.write_text(engine.plan_to_json(plan))
        code = cli.main(
            ["validate", "--topology", nsf[0], "--chains", nsf[1],
             "--demands", nsf[2], "--nc", str(nc), "--k", str(k),
             "--plan", str(out)]
        )
        assert code == 0, f"nsfnet plan nc={nc} k={k} failed validation"
        checked += 1
    c239 = [str(p) for p in cost239_files()]
    for k, plan in cost239_emitted:
        out = tmp_path / f"c239_{k}.json"
        out.write_text(engine.plan_to_json(plan))
        code = cli.main(
            ["validate", "--topology", c239[0], "--chains", c239[1],
             "--demands", c239[2], "--nc", "8", "--k", str(k),
             "--plan", str(out)]
        )
        assert code == 0, f"cost239 plan k={k} failed validation"
        checked += 1
    capsys.readouterr()

    # three corruptions, each must surface its own named violation; the
    # square's per-node cores force two hosts, so --k 1 is always exceeded
    inst, plan = solved_square()
    files = save_instance(inst, tmp_path / "small")
    flags = ["--topology", str(files["topology"]), "--chains", str(files["chains"]),
             "--demands", str(files["demands"]), "--nc", "2"]
    assert len(plan.hosting) >= 2, "square instance forces two hosts"
    clean = tmp_path / "clean.json"
    clean.write_text(engine.plan_to_json(plan))
    assert cli.main(["validate", *flags, "--k", "2", "--plan", str(clean)]) == 0
    capsys.readouterr()

    doc = json.loads(clean.read_text())
    arc = sorted(doc["arc_loads"])[0]
    doc["arc_loads"][arc] = 10_000.0
    bad = tmp_path / "bad_capacity.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["validate", *flags, "--k", "2", "--plan", str(bad)]) == 3
    assert "capacity" in capsys.readouterr().out

    assert cli.main(["validate", *flags, "--k", "1", "--plan", str(clean)]) == 3
    assert "k_exceeded" in capsys.readouterr().out

    doc = json.loads(clean.read_text())
    broke = False
    for entry in doc["instances"]:
        for pair in entry["pairs"]:
            for field in ("first_route", "last_route"):
                if len(pair[field]) >= 2:
                    pair[field].insert(1, pair[field][-1])
                    broke = True
                    break
            if broke:
                break
        if broke:
            break
    assert broke, "no multi-hop route to corrupt"
    bad = tmp_path / "bad_contiguity.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["validate", *flags, "--k", "2", "--plan", str(bad)]) == 3
    assert "contiguity" in capsys.readouterr().out

    print(
        f"\ncriterion 9 PASS: {checked} emitted plans validate clean; "
        f"capacity, k_exceeded, contiguity corruptions each caught"
    )
