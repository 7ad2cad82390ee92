import dataclasses
import io
import itertools
import json
import logging
import math
import random

import pytest
from brute_force import enumerate_all_configs, reduced_cost_of
from conftest import build_instance, random_connected_instance, with_capacity, with_k

from scmap import baselines, engine
from scmap.fixturedata import cost239_files, nsfnet_files
from scmap.master import (
    add_column,
    build_rmp,
    chain_instances,
    fits,
    make_configuration,
    solve_relaxation,
)
from scmap.netmodel import (
    ChainSpec,
    NodeSpec,
    ProblemInstance,
    Topology,
    VnfSpec,
    load_instance,
)
from scmap.pathcore import all_pairs_hops
from scmap.pricer import price_chain_instance, segment_cost_table
from scmap.simplexkit import MipSolution, highs
from scmap.sptg import partition_all


def separable_optimum(instance):
    """Exhaustive optimum for the given partition on all-NFV uncapacitated
    instances: per chain instance, best configuration plus shortest end runs."""
    paths = all_pairs_hops(instance.topology)
    total = 0.0
    for ci in chain_instances(instance, partition_all(instance)):
        best = None
        for config in enumerate_all_configs(instance, ci):
            ends = sum(
                instance.demand_gbps(ci.chain, s, d)
                * (
                    paths.distance(s, config.locations[0])
                    + paths.distance(config.locations[-1], d)
                )
                for s, d in ci.pairs
            )
            cand = config.cost + ends
            if best is None or cand < best:
                best = cand
        total += best
    return total


class TestColumnGeneration:
    def test_single_pair_converges_to_shortest_path(self):
        inst = build_instance(
            ["a", "b", "c", "d", "e"],
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")],
            [("a", "e", 2.0)],
        )
        model, trace = engine.run_column_generation(inst, partition_all(inst))
        assert trace.converged
        assert model.last_relaxation.objective == pytest.approx(8.0, abs=1e-8)

    def test_converged_duals_are_a_fixed_point(self, triangle_instance):
        model, trace = engine.run_column_generation(
            triangle_instance, partition_all(triangle_instance)
        )
        assert trace.converged
        duals = model.last_duals
        seg = segment_cost_table(triangle_instance, duals, model.paths)
        for ci in model.chain_instances:
            assert price_chain_instance(triangle_instance, ci, duals, seg) is None

    def test_trace_objective_monotone(self):
        rng = random.Random(5)
        for _ in range(10):
            inst = random_connected_instance(rng, chain_vnfs=("fw", "nat"))
            model, trace = engine.run_column_generation(inst, partition_all(inst))
            objs = [it.objective for it in trace.iterations]
            assert all(b <= a + 1e-8 for a, b in zip(objs, objs[1:]))
            assert trace.converged

    def test_bound_no_worse_than_single_node(self, nsfnet_instance):
        model, trace = engine.run_column_generation(
            nsfnet_instance, partition_all(nsfnet_instance)
        )
        _, oracle = baselines.single_node_oracle(nsfnet_instance)
        assert model.last_relaxation.objective <= oracle + 1e-6

    def test_trace_csv_format(self, triangle_instance):
        _, trace = engine.run_column_generation(
            triangle_instance, partition_all(triangle_instance)
        )
        buf = io.StringIO()
        engine.write_trace_csv(trace, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "iter,objective,columns_added,best_rc,wall_ms"
        assert len(lines) == 1 + len(trace.iterations)


class TestExtractPlan:
    def test_k1_equals_single_node_oracle(self):
        inst = build_instance(
            ["a", "b", "c", "d"],
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")],
            [("a", "c"), ("b", "d"), ("c", "a", 2.0)],
            k=1,
            nc=2,
        )
        result = engine.solve(inst)
        _, oracle = baselines.single_node_oracle(inst)
        assert result.plan.objective_gbps_hops == pytest.approx(oracle, abs=1e-6)
        assert len(result.plan.hosting) == 1

    def test_per_pair_attains_lower_bound(self):
        inst = build_instance(
            ["a", "b", "c", "d"],
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")],
            [("a", "c"), ("b", "d"), ("d", "b", 0.5)],
            nc=3,
        )
        result = engine.solve(inst)
        lb = baselines.shortest_path_lb(inst)
        assert result.plan.objective_gbps_hops == pytest.approx(lb, abs=1e-6)

    def test_budget_override_reuses_converged_model(self):
        inst_k2 = build_instance(
            ["a", "b", "c", "d"],
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")],
            [("a", "c"), ("b", "d")],
            k=2,
            nc=2,
        )
        model, _ = engine.run_column_generation(inst_k2, partition_all(inst_k2))
        inst_k1 = ProblemInstance(
            inst_k2.topology,
            inst_k2.vnfs,
            inst_k2.chains,
            inst_k2.demands,
            k=1,
            nc=dict(inst_k2.nc),
        )
        patched = engine.extract_plan(inst_k1, model)
        fresh = engine.solve(inst_k1)
        assert patched.objective_gbps_hops == pytest.approx(
            fresh.plan.objective_gbps_hops, abs=1e-9
        )
        assert len(patched.hosting) <= 1
        assert not engine.validate_plan(inst_k1, patched)

    @pytest.mark.parametrize("mode", ["auto", "fast", "full"])
    def test_column_added_after_last_solve(self, mode, monkeypatch):
        # path a-b-c, demand a->b: the seed at c costs 3, the column at a 1;
        # the relaxation solved before the column was added is stale, and
        # its point, all on c, must not be taken as the plan. auto runs on
        # the compact master, fast on the arc-flow one (2 Gbps links, below
        # W = 3), full on the arc-flow one with the relaxation point declined
        # and the selection program made to fail, so the plan comes from the
        # full program
        capacity = 1000.0 if mode == "auto" else 2.0
        inst = build_instance(
            ["a", "b", "c"],
            [("a", "b"), ("b", "c")],
            [("a", "b")],
            chain_vnfs=("fw", "nat"),
            capacity=capacity,
        )
        parts = partition_all(inst)
        (ci,) = chain_instances(inst, parts)
        model = build_rmp(inst, parts)
        add_column(model, make_configuration(ci, ("c", "c"), ((),)))
        assert model.compact == (mode == "auto")
        assert solve_relaxation(model)[0].objective == pytest.approx(3.0)
        add_column(model, make_configuration(ci, ("a", "a"), ((),)))
        if mode == "full":
            extract = engine._extract
            programs = []

            def no_selection(instance, model, time_limit=None, *, full=False):
                programs.append(full)
                if not full:
                    raise engine.EngineError("selection made to fail")
                return extract(instance, model, time_limit, full=full)

            monkeypatch.setattr(engine, "_extract", no_selection)
            monkeypatch.setattr(engine, "_relaxation_plan", lambda instance, model: None)
        plan = engine.extract_plan(inst, model)
        if mode == "full":
            assert programs == [False, True]
        assert plan.objective_gbps_hops == pytest.approx(1.0)
        assert plan.lp_bound == pytest.approx(1.0)

    def test_tight_capacity_reports_the_cut(self):
        inst = build_instance(
            ["a", "b", "c"], [("a", "b"), ("b", "c")], [("a", "c", 1.0)], capacity=0.5
        )
        with pytest.raises(engine.Infeasible) as err:
            engine.solve(inst)
        assert "a->b" in str(err.value) or "b->c" in str(err.value)

    def test_gap_nonnegative_and_bound_consistent(self):
        rng = random.Random(11)
        for _ in range(5):
            inst = random_connected_instance(rng)
            result = engine.solve(inst)
            assert result.plan.gap >= 0.0
            assert (
                result.plan.objective_gbps_hops
                >= result.plan.lp_bound - 1e-6
            )


def record_mips(monkeypatch, stall_first=False):
    """The name of every MIP solved from here on; the first one stalls
    when asked to."""
    calls = []
    real_mip = highs.solve_mip

    def mip(lp, time_limit=None):
        calls.append(lp.name)
        if stall_first and len(calls) == 1:
            return MipSolution(status="stalled", message="stalled")
        return real_mip(lp, time_limit=time_limit)

    monkeypatch.setattr(highs, "solve_mip", mip)
    return calls


class TestRelaxationPoint:
    @pytest.mark.parametrize(
        "nc, at_14, at_2, mips_at_2",
        [(1, 624.0, 624.0, 0), (4, 494.0, 544.0, 0), (16, 407.0, 533.0, 0), (34, 390.0, 526.0, 0)],
    )
    def test_nsfnet_sweep_cells(self, monkeypatch, nc, at_14, at_2, mips_at_2):
        # every k=14 cell and nc1 at k=2 are integer selections within k
        # as the LP leaves them; the other k=2 cells host on more than 2,
        # and the host-set bound's pick is their plan
        inst = load_instance(*nsfnet_files(), k=14, nc=nc)
        model, _ = engine.run_column_generation(inst, partition_all(inst))
        calls = record_mips(monkeypatch)
        for k, objective, mips in ((14, at_14, 0), (2, at_2, mips_at_2)):
            calls.clear()
            plan = engine.extract_plan(with_k(inst, k), model)
            assert engine.validate_plan(with_k(inst, k), plan) == []
            assert plan.objective_gbps_hops == pytest.approx(objective)
            assert len(calls) == mips, (k, calls)
            # the bound is k-blind, and the k=14 plan attains it
            assert plan.lp_bound == pytest.approx(at_14)

    @staticmethod
    def nsfnet_at_30_gbps(nc):
        """NSFNET with every link below the worst-case load: arc-flow."""
        inst = with_capacity(load_instance(*nsfnet_files(), k=14, nc=nc), 30.0)
        model, _ = engine.run_column_generation(inst, partition_all(inst))
        assert not model.compact
        return inst, model

    @pytest.mark.parametrize("nc, objective", [(4, 494.0), (16, 407.0)])
    def test_arc_flow_point_routes_its_end_flows(self, monkeypatch, nc, objective):
        inst, model = self.nsfnet_at_30_gbps(nc)
        calls = record_mips(monkeypatch)
        plan = engine.extract_plan(inst, model)
        assert engine.validate_plan(inst, plan) == []
        assert plan.objective_gbps_hops == pytest.approx(objective)
        assert calls == []

    def test_fractional_arc_flow_point_runs_the_mip(self, monkeypatch):
        inst, model = self.nsfnet_at_30_gbps(1)
        x = model.last_relaxation.x
        assert any(abs(v - round(v)) > engine.INTEGRAL_TOL for v in x)
        calls = record_mips(monkeypatch)
        try:
            engine.extract_plan(inst, model)
        except engine.Infeasible:
            pass  # the verdict is the MIP's; only that it ran matters here
        assert calls[0] == "selection"

    def test_declined_unless_an_integer_selection(self, triangle_instance):
        model, _ = engine.run_column_generation(
            triangle_instance, partition_all(triangle_instance)
        )
        assert engine._relaxation_plan(triangle_instance, model) is not None
        x = model.last_relaxation.x
        (chosen,) = [p for p, var in enumerate(model.zvar) if x[var] > 0.5]
        other = 1 if chosen == 0 else 0
        (art,) = model.artificial.values()
        half = list(x)
        half[model.zvar[chosen]] = half[model.zvar[other]] = 0.5
        unserved = list(x)
        unserved[model.zvar[chosen]], unserved[art] = 0.0, 1.0
        for point in (half, unserved):
            model.last_relaxation = dataclasses.replace(model.last_relaxation, x=point)
            assert engine._relaxation_plan(triangle_instance, model) is None

    def test_declined_beyond_k(self, split_triangle):
        # an integral point on two hosts: the plan at k=2, not at k=1
        model, _ = engine.run_column_generation(split_triangle, partition_all(split_triangle))
        x = model.last_relaxation.x
        assert all(x[var] == 0.0 for var in model.artificial.values())
        assert all(abs(v - round(v)) <= engine.INTEGRAL_TOL for v in x)
        assert engine._relaxation_plan(split_triangle, model) is None
        plan = engine._relaxation_plan(with_k(split_triangle, 2), model)
        assert len(plan.hosting) == 2

    @pytest.mark.parametrize(
        "name, program, mips",
        [
            ("triangle_instance", "relaxation point", []),
            ("split_triangle", "selection program", ["selection"]),
            ("capacitated_split_triangle", "full program", ["selection", "rmp"]),
            ("uncapped_split_triangle", "host-set bound", []),
        ],
    )
    def test_log_names_the_program_that_chose(
        self, monkeypatch, caplog, request, name, program, mips
    ):
        inst = request.getfixturevalue(name)
        model, _ = engine.run_column_generation(inst, partition_all(inst))
        calls = record_mips(monkeypatch, stall_first=program == "full program")
        with caplog.at_level(logging.INFO, logger=engine.log.name):
            plan = engine.extract_plan(inst, model)
        assert engine.validate_plan(inst, plan) == []
        assert calls == mips
        chosen = [r.message for r in caplog.records if r.message.startswith("plan chosen by")]
        assert len(chosen) == 1 and chosen[0].startswith(f"plan chosen by the {program}")


class TestHostSetBound:
    @staticmethod
    def converged(inst):
        model, _ = engine.run_column_generation(inst, partition_all(inst))
        return model

    def test_first_least_host_set_is_the_plan(self, uncapped_split_triangle):
        # every node costs 8 for both chain instances, so {a}, the first
        # host set, holds the plan; at k=2 {a, c} is first among the 7s
        inst = uncapped_split_triangle
        model = self.converged(inst)
        for k, hosting, objective in ((1, ("a",), 8.0), (2, ("a", "c"), 7.0)):
            plan = engine._host_set_plan(with_k(inst, k), model)
            assert engine.validate_plan(with_k(inst, k), plan) == []
            assert plan.hosting == hosting
            assert plan.objective_gbps_hops == pytest.approx(objective)
            assert plan.lp_bound == pytest.approx(model.lp_bound)

    def test_declined_when_the_pick_breaks_a_core_row(self, monkeypatch, split_triangle):
        # both chain instances at a need 6 of its 5 cores; the MIP places
        # them together on another node at the same 8
        model = self.converged(split_triangle)
        assert engine._host_set_plan(split_triangle, model) is None
        calls = record_mips(monkeypatch)
        plan = engine.extract_plan(split_triangle, model)
        assert calls == ["selection"]
        assert plan.objective_gbps_hops == pytest.approx(8.0)
        assert plan.hosting != ("a",)

    def test_declined_above_the_cap(self, monkeypatch, uncapped_split_triangle):
        # C(3, 1) host sets over 6 pooled columns
        model = self.converged(uncapped_split_triangle)
        assert len(model.pool) == 6
        monkeypatch.setattr(engine, "HOST_SET_CAP", 17)
        assert engine._host_set_plan(uncapped_split_triangle, model) is None
        monkeypatch.setattr(engine, "HOST_SET_CAP", 18)
        assert engine._host_set_plan(uncapped_split_triangle, model) is not None

    def test_declined_on_an_arc_flow_master(self, capacitated_split_triangle):
        model = self.converged(capacitated_split_triangle)
        assert not model.compact
        assert engine._host_set_plan(capacitated_split_triangle, model) is None


def test_core_cut_at_k_refuses_before_any_mip(monkeypatch):
    # three nodes of 2 cores and 3 cores of need in two groups: every node
    # fits either group and all three hold the need, so column generation
    # runs, but no single node holds it: k=1 is refused with no MIP solved
    inst = build_instance(
        ["a", "b", "c"], [("a", "b"), ("b", "c")], [("a", "c", 2.0), ("b", "a", 1.0)],
        k=1, nc=2, cores=2,
    )
    model, _ = engine.run_column_generation(inst, partition_all(inst))
    calls = record_mips(monkeypatch)
    with pytest.raises(
        engine.Infeasible,
        match="at k=1: placements require 3 cores but k=1 hosting nodes hold at most 2",
    ):
        engine.extract_plan(inst, model)
    assert calls == []
    plan = engine.extract_plan(with_k(inst, 2), model)
    assert engine.validate_plan(with_k(inst, 2), plan) == []
    assert len(plan.hosting) == 2


def square_instance():
    return build_instance(
        ["a", "b", "c", "d"],
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")],
        [("a", "c"), ("b", "d"), ("c", "a", 2.0)],
        k=2,
        nc=2,
        chain_vnfs=("fw", "nat"),
        cores=6,
    )


def solved_square():
    """Square a-b-c-d and its plan, which must use at least two hosting nodes.

    The demands need 4 Gbps x 2 VNFs x 1 core/Gbps = 8 cores in all and each
    node has 6, so no single node can host every VNF. Without the core cap,
    co-locating everything at `a` is an optimum too, and which of the tied
    optima comes back would be up to the solver. The two groups ({a->c} and
    {b->d, c->a}) cannot both start at their own sources, so some pair always
    has a multi-hop first route."""
    inst = square_instance()
    core_demand = sum(
        r.gbps * sum(inst.chain_cores_per_gbps(r.chain))
        for r in inst.demands.records
    )
    assert core_demand == 8.0
    assert all(n.cores < core_demand for n in inst.topology.nodes)
    plan = engine.solve(inst).plan
    # oracle: the plan meets the shortest-path bound, so it is a true optimum
    assert plan.objective_gbps_hops == pytest.approx(baselines.shortest_path_lb(inst))
    return inst, plan


def tight_square(cores):
    """solved_square's instance with `cores` per node: 4 or 5 cores leave
    room for fw of both groups on one node and nat of both on another."""
    return build_instance(
        ["a", "b", "c", "d"],
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")],
        [("a", "c"), ("b", "d"), ("c", "a", 2.0)],
        k=2,
        nc=2,
        chain_vnfs=("fw", "nat"),
        cores=cores,
    )


@pytest.mark.parametrize("cores", [4, 5])
def test_tight_square_has_a_split_plan(cores):
    # oracle for the xfail below: with fw@a, nat@b pooled for both groups
    # the same instance yields a validated plan
    inst = tight_square(cores)
    model, _ = engine.run_column_generation(inst, partition_all(inst))
    for ci in model.chain_instances:
        add_column(model, make_configuration(ci, ("a", "b"), ((("a", "b"),),)))
    plan = engine.extract_plan(inst, model)
    assert engine.validate_plan(inst, plan) == []
    assert plan.hosting == ("a", "b")


@pytest.mark.parametrize(
    "cores",
    [
        pytest.param(
            4,
            marks=pytest.mark.xfail(
                strict=True,
                raises=engine.Infeasible,
                reason="ROADMAP item 2: the final selection over a restricted column "
                "pool reports a false 'infeasible'",
            ),
        ),
        5,
    ],
)
def test_tight_square_solves(cores):
    inst = tight_square(cores)
    plan = engine.solve(inst).plan
    assert engine.validate_plan(inst, plan) == []


@pytest.mark.parametrize(
    "files, cores, nc, objective, lp_bound, rounds, added",
    [
        (nsfnet_files, 70, 4, 842.0, 825.30303, 3, 5),
        (nsfnet_files, 70, 8, 647.0, 592.435293, 3, 4),
        (cost239_files, 50, 4, 378.0, 374.483333, 4, 11),
        (cost239_files, 50, 8, 261.0, 254.819048, 5, 9),
    ],
)
def test_core_bound_cells_keep_their_cg_path(
    files, cores, nc, objective, lp_bound, rounds, added
):
    # every node at `cores`, k = every NFV node: column generation iterates
    # and ends on split placements, so the pricer's choices shape the result
    base = load_instance(*files(), k=1, nc=nc)
    topo = base.topology
    nodes = [dataclasses.replace(n, cores=cores) for n in topo.nodes]
    inst = ProblemInstance(
        Topology(topo.name, nodes, list(topo.arcs)),
        base.vnfs,
        base.chains,
        base.demands,
        k=len(topo.nfv_nodes),
        nc=dict(base.nc),
    )
    result = engine.solve(inst)
    assert result.plan.objective_gbps_hops == pytest.approx(objective, abs=1e-6)
    assert result.plan.lp_bound == pytest.approx(lp_bound, abs=1e-6)
    assert len(result.trace.iterations) == rounds
    assert sum(it.columns_added for it in result.trace.iterations) == added
    assert engine.validate_plan(inst, result.plan) == []
    # the master has no variable upper bounds, so its duals are dual
    # feasible: no pooled column prices out at convergence
    model = result.model
    assert min(reduced_cost_of(model, model.last_duals, c) for c in model.pool) >= -1e-9
    # a run cut short reports a Lagrangian bound, never its RMP value,
    # which bounds the LP from above
    for max_iters in range(1, rounds):
        try:
            truncated = engine.solve(inst, max_iters=max_iters).plan
        except engine.Infeasible:
            continue  # a truncated pool may hold no integer selection
        assert truncated.lp_bound <= lp_bound + 1e-6, max_iters


@pytest.mark.parametrize("capacity", [4.0, 1000.0])
def test_long_chain_under_tight_cores_matches_every_tuple(capacity):
    # a six-VNF chain on a six-node ring whose nodes hold two positions
    # each: the plan must equal the cheapest of all 6^6 location tuples
    # that fit, with hop-shortest segments (4 Gbps links are below the
    # worst-case arc load of 7, so that case is arc-flow)
    nodes = [f"n{i}" for i in range(6)]
    inst = build_instance(
        nodes,
        [(nodes[i], nodes[(i + 1) % 6]) for i in range(6)],
        [("n0", "n2")],
        chain_vnfs=tuple(f"f{i}" for i in range(6)),
        cores=2,
        capacity=capacity,
    )
    hops = all_pairs_hops(inst.topology)
    best = min(
        hops.distance("n0", tup[0])
        + sum(hops.distance(tup[i], tup[i + 1]) for i in range(5))
        + hops.distance(tup[-1], "n2")
        for tup in itertools.product(nodes, repeat=6)
        if max(tup.count(v) for v in nodes) <= 2
    )
    result = engine.solve(inst)
    assert result.model.compact == (capacity == 1000.0)
    assert engine.validate_plan(inst, result.plan) == []
    assert result.plan.objective_gbps_hops == pytest.approx(best)


def test_long_chain_on_nsfnet_solves(nsfnet_instance):
    # 14^6 location tuples, and no node holds more than one of the six
    # positions of the single 182 Gbps chain instance
    topo = nsfnet_instance.topology
    vnfs = tuple(f"f{i}" for i in range(6))
    inst = ProblemInstance(
        Topology(topo.name, [NodeSpec(v.id, v.nfv, 200) for v in topo.nodes], list(topo.arcs)),
        {f: VnfSpec(f, 1.0) for f in vnfs},
        {c: ChainSpec(c, vnfs) for c in nsfnet_instance.chains},
        nsfnet_instance.demands,
        k=14,
        nc=dict(nsfnet_instance.nc),
    )
    result = engine.solve(inst)
    assert engine.validate_plan(inst, result.plan) == []
    assert len(result.plan.hosting) == 6
    assert result.plan.objective_gbps_hops >= result.plan.lp_bound - 1e-6


def test_group_too_large_for_any_node_is_a_named_certificate():
    # one 3 Gbps group of a one-VNF chain needs 3 cores on one node; the
    # largest node has 2
    inst = build_instance(
        ["a", "b", "c"], [("a", "b"), ("b", "c")], [("a", "c", 2.0), ("b", "c", 1.0)],
        cores=2,
    )
    with pytest.raises(engine.Infeasible) as err:
        engine.solve(inst)
    msg = str(err.value)
    assert "c/0 fits on no placement" in msg
    assert "need [3.0] cores" in msg and "the most cores, a, has 2" in msg


def test_core_cut_refuses_before_any_lp_solve(monkeypatch):
    # two 1 Gbps groups of a one-VNF chain each fit the one NFV node's
    # single core, but together they need 2: the necessary core cut proves
    # that no plan exists, so no LP is solved
    inst = build_instance(
        ["a", "b", "c"], [("a", "b"), ("b", "c")], [("a", "c"), ("c", "b")],
        nc=2, cores=1, nfv=["a"],
    )
    lps = []
    real_lp = highs.solve_lp

    def lp(model):
        lps.append(model.name)
        return real_lp(model)

    monkeypatch.setattr(highs, "solve_lp", lp)
    with pytest.raises(engine.Infeasible, match="placements require 2 cores but NFV nodes provide 1"):
        engine.solve(inst)
    assert lps == []


def test_pool_holds_only_columns_that_fit():
    # core-bound instances of both master shapes: no pooled configuration
    # may use more cores on a node than it has, whatever the LP mixes
    rng = random.Random(31)
    checked = 0
    for case in range(80):
        inst = random_connected_instance(
            rng,
            max_nodes=5,
            max_pairs=6,
            chain_vnfs=("fw", "nat"),
            nc=rng.randint(1, 2),
            cores=rng.choice([3, 4, 6]),
            capacity=rng.choice([3.0, 1000.0]),
        )
        try:
            model, _ = engine.run_column_generation(inst, partition_all(inst))
        except engine.Infeasible:
            continue
        for config in model.pool:
            ci = model.by_key[(config.chain, config.group_index)]
            assert fits(inst, ci, config.locations), (case, config.locations)
        checked += 1
    assert checked >= 40, checked


def test_fast_infeasible_is_final_without_the_full_program(monkeypatch):
    # arc-flow master whose two chain instances are pooled only on different
    # nodes: at k=1 the selection program is infeasible, and so must be the
    # full one it relaxes, so the selection reports it after one MIP
    inst = build_instance(
        ["a", "b", "c"],
        [("a", "b"), ("b", "c"), ("a", "c")],
        [("a", "b"), ("b", "c"), ("a", "c"), ("c", "a")],
        k=1,
        nc=2,
        capacity=5.0,
    )
    parts = partition_all(inst)
    cis = chain_instances(inst, parts)
    model = build_rmp(inst, parts)
    add_column(model, make_configuration(cis[0], ("a",), ()))
    add_column(model, make_configuration(cis[1], ("b",), ()))
    assert not model.compact
    calls = []
    real_mip = highs.solve_mip

    def mip(lp, time_limit=None):
        calls.append(lp.name)
        return real_mip(lp, time_limit=time_limit)

    monkeypatch.setattr(highs, "solve_mip", mip)
    with pytest.raises(engine.Infeasible):
        engine.extract_plan(inst, model)
    assert calls == ["selection"]
    with pytest.raises(engine.Infeasible):
        engine._extract(inst, model, full=True)


class FakeClock:
    """Stands in for the engine's `time` module; time moves only when a
    wrapped LP or MIP solve says it does."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now


def several_round_instance():
    """Six core-bound nodes whose column generation needs several pricing
    rounds (four at the time of writing) before it converges."""
    return build_instance(
        [f"n{i}" for i in range(6)],
        [
            ("n0", "n1"), ("n0", "n5"), ("n1", "n2"), ("n1", "n3"), ("n1", "n4"),
            ("n2", "n3"), ("n3", "n4"), ("n3", "n5"), ("n4", "n5"),
        ],
        [
            ("n0", "n2", 0.5), ("n4", "n2", 2.0), ("n3", "n0", 1.0),
            ("n3", "n4", 1.0), ("n4", "n0", 2.0), ("n5", "n1", 0.5),
            ("n0", "n3", 1.0), ("n0", "n5", 2.0),
        ],
        nc=4,
        chain_vnfs=("fw", "nat"),
        cores=5,
    )


class TestTimeBudget:
    LP_SECONDS = 10.0
    MIP_SECONDS = 5.0

    def instrument(self, monkeypatch, stall_first_mip=False, build_seconds=0.0):
        """Fake clock plus wrappers that advance it: each LP solve takes
        LP_SECONDS, each MIP solve MIP_SECONDS, the RMP build
        `build_seconds`. Returns the clock and the (clock at call,
        time_limit) of every MIP solve."""
        clock = FakeClock()
        calls = []
        real_relax = engine.solve_relaxation
        real_mip = highs.solve_mip
        real_build = engine.build_rmp

        def relax(model):
            clock.now += self.LP_SECONDS
            return real_relax(model)

        def mip(lp, time_limit=None):
            calls.append((clock.now, time_limit))
            clock.now += self.MIP_SECONDS
            if stall_first_mip and len(calls) == 1:
                return MipSolution(status="stalled", message="stalled")
            return real_mip(lp, time_limit=time_limit)

        def build(*args, **kwargs):
            clock.now += build_seconds
            return real_build(*args, **kwargs)

        monkeypatch.setattr(engine, "time", clock)
        monkeypatch.setattr(engine, "solve_relaxation", relax)
        monkeypatch.setattr(engine, "build_rmp", build)
        monkeypatch.setattr(highs, "solve_mip", mip)
        return clock, calls

    def test_limits_stay_within_one_budget(self, monkeypatch, capacitated_split_triangle):
        # the fast-then-full fallback exists only on an arc-flow master, and
        # the selection MIP runs only when the relaxation point is no
        # integer selection within k
        triangle_instance = capacitated_split_triangle
        clock, calls = self.instrument(monkeypatch, stall_first_mip=True)
        _, trace = engine.run_column_generation(
            triangle_instance, partition_all(triangle_instance)
        )
        assert trace.converged
        cg_seconds = clock.now
        clock.now = 0.0
        # ample for column generation to converge inside its share and for
        # both MIPs after it, however many rounds the triangle takes
        budget = 2 * (cg_seconds + self.LP_SECONDS + 2 * self.MIP_SECONDS)
        # the fast attempt stalls, so auto falls back to the full program:
        # column generation and both MIPs draw on the same budget
        result = engine.solve(triangle_instance, time_limit=budget)
        assert engine.validate_plan(triangle_instance, result.plan) == []
        assert result.trace.converged
        assert len(calls) == 2
        assert calls[0][0] == cg_seconds  # column generation spent part of the budget
        for spent, limit in calls:
            assert limit > 0
            assert spent + limit <= budget
        assert calls[1][1] == calls[0][1] - self.MIP_SECONDS

    def test_cut_short_column_generation_still_selects(self, monkeypatch, split_triangle):
        # the RMP build runs past column generation's share (75 of 100 s):
        # no pricing round starts, the refreshed relaxation ends at 90 s, and
        # the selection gets the 10 s left
        budget = 100.0
        assert budget * (1 - engine.SELECTION_SHARE) == 75.0
        clock, calls = self.instrument(monkeypatch, build_seconds=80.0)
        result = engine.solve(split_triangle, time_limit=budget)
        assert not result.trace.converged
        assert result.trace.iterations == []
        assert engine.validate_plan(split_triangle, result.plan) == []
        assert result.plan.lp_bound == 0.0  # no round was priced
        assert calls == [(90.0, 10.0)]

    @pytest.mark.parametrize("name", ["triangle_instance", "capacitated_triangle"])
    def test_integral_relaxation_point_selects_without_a_mip(self, monkeypatch, request, name):
        # as above, but the triangle's relaxation point is already an
        # integer selection within k: it is the plan, and no MIP runs
        inst = request.getfixturevalue(name)
        clock, calls = self.instrument(monkeypatch, build_seconds=80.0)
        result = engine.solve(inst, time_limit=100.0)
        assert result.trace.iterations == []
        assert engine.validate_plan(inst, result.plan) == []
        assert result.plan.lp_bound == 0.0
        assert calls == []
        assert clock.now == 90.0

    @pytest.mark.parametrize("limit", [math.inf, math.nan, 0.0, -1.0])
    def test_time_limit_must_be_finite_and_positive(self, limit, triangle_instance):
        # an infinite limit would leave column generation max(0, nan) = 0
        # seconds, so no pricing round would run
        with pytest.raises(engine.EngineError, match="finite positive"):
            engine.solve(triangle_instance, time_limit=limit)

    def test_spent_budget_still_selects_without_a_limit(
        self, monkeypatch, caplog, split_triangle
    ):
        # the refreshed relaxation ends at 90 s, past the 85 s budget: the
        # selection runs from the pool so far with no limit, never a
        # non-positive one, and the overrun is logged
        clock, calls = self.instrument(monkeypatch, build_seconds=80.0)
        with caplog.at_level(logging.WARNING, logger=engine.log.name):
            result = engine.solve(split_triangle, time_limit=85.0)
        assert engine.validate_plan(split_triangle, result.plan) == []
        assert calls == [(90.0, None)]
        assert "time limit overrun by 5 s" in caplog.text

    def test_round_that_would_overrun_is_not_started(self, monkeypatch):
        inst = several_round_instance()
        parts = partition_all(inst)
        clock, _ = self.instrument(monkeypatch)
        _, trace = engine.run_column_generation(inst, parts)
        rounds = len(trace.iterations)
        assert trace.converged and rounds >= 3, "the instance must need several rounds"
        # one round short of convergence: a round starts only if it and the
        # closing refresh fit, so rounds - 2 run and the refresh ends on the limit
        limit = (rounds - 1) * self.LP_SECONDS
        clock.now = 0.0
        _, trace = engine.run_column_generation(inst, parts, time_limit=limit)
        assert not trace.converged
        assert len(trace.iterations) == rounds - 2
        assert clock.now <= limit

    def test_fallback_gets_what_the_fast_attempt_left(
        self, monkeypatch, capacitated_split_triangle
    ):
        triangle_instance = capacitated_split_triangle
        model, _ = engine.run_column_generation(
            triangle_instance, partition_all(triangle_instance)
        )
        assert not model.compact
        _, calls = self.instrument(monkeypatch, stall_first_mip=True)
        engine.extract_plan(triangle_instance, model, time_limit=100.0)
        assert calls == [(0.0, 100.0), (self.MIP_SECONDS, 100.0 - self.MIP_SECONDS)]

    def test_budget_spent_before_the_selection_raises_once(
        self, monkeypatch, caplog, capacitated_split_triangle
    ):
        # on an arc-flow master, where a failed fast attempt could fall back,
        # whose relaxation point does not spare the selection MIP
        triangle_instance = capacitated_split_triangle
        model, _ = engine.run_column_generation(
            triangle_instance, partition_all(triangle_instance)
        )
        model.last_relaxation = None  # the re-solve spends the whole budget
        _, calls = self.instrument(monkeypatch)
        with caplog.at_level(logging.INFO, logger=engine.log.name):
            with pytest.raises(engine.EngineError, match="before the final selection"):
                engine.extract_plan(triangle_instance, model, time_limit=self.LP_SECONDS / 2)
        assert calls == []
        # no program chose a plan, and no fallback was tried
        assert "plan chosen by" not in caplog.text
        assert "solving the full program" not in caplog.text


class TestValidatePlan:
    def test_emitted_plan_is_clean(self):
        inst, plan = solved_square()
        assert engine.validate_plan(inst, plan) == []

    def test_capacity_violation_names_the_arc(self):
        inst, plan = solved_square()
        arc = next(iter(plan.arc_loads))
        plan.arc_loads[arc] = inst.topology.capacity(arc) + 7.0
        kinds = {v.kind for v in engine.validate_plan(inst, plan)}
        assert "capacity" in kinds
        assert any(
            f"{arc[0]}->{arc[1]}" in v.detail
            for v in engine.validate_plan(inst, plan)
            if v.kind == "capacity"
        )

    def test_stored_load_drift_detected(self):
        inst, plan = solved_square()
        arc = next(iter(plan.arc_loads))
        plan.arc_loads[arc] += 0.25
        kinds = {v.kind for v in engine.validate_plan(inst, plan)}
        assert "arc_load_mismatch" in kinds

    def test_k_exceeded(self):
        inst, plan = solved_square()
        one_host = ProblemInstance(
            inst.topology, inst.vnfs, inst.chains, inst.demands, k=1, nc=dict(inst.nc)
        )
        assert len(plan.hosting) >= 2
        kinds = {v.kind for v in engine.validate_plan(one_host, plan)}
        assert "k_exceeded" in kinds

    def test_contiguity_break(self):
        inst, plan = solved_square()
        doc = json.loads(engine.plan_to_json(plan))
        for entry in doc["instances"]:
            for pair in entry["pairs"]:
                if len(pair["first_route"]) >= 2:
                    pair["first_route"][-1] = (
                        "a" if pair["first_route"][-1] != "a" else "c"
                    )
                    broken = engine.plan_from_json(json.dumps(doc), inst)
                    kinds = {v.kind for v in engine.validate_plan(inst, broken)}
                    assert "contiguity" in kinds
                    return
        pytest.fail("no multi-hop first route to corrupt")

    def test_coverage_gap_detected(self):
        inst, plan = solved_square()
        doc = json.loads(engine.plan_to_json(plan))
        removed = None
        for entry in doc["instances"]:
            if entry["pairs"]:
                removed = entry["pairs"].pop()
                break
        assert removed is not None
        broken = engine.plan_from_json(json.dumps(doc), inst)
        kinds = {v.kind for v in engine.validate_plan(inst, broken)}
        assert "coverage" in kinds

    def test_route_without_demand_record_flagged(self):
        inst, plan = solved_square()
        doc = json.loads(engine.plan_to_json(plan))
        doc["instances"][0]["pairs"].append(
            {"src": "d", "dst": "b", "first_route": [], "last_route": []}
        )
        broken = engine.plan_from_json(json.dumps(doc), inst)
        found = [v for v in engine.validate_plan(inst, broken) if v.kind == "coverage"]
        assert any("d->b: no such demand record" in v.detail for v in found)

    def test_stray_route_is_one_coverage_fault(self):
        # a routed d->b pair with no demand record loads nothing, so it is
        # the only fault: no load or objective mismatch follows from it
        inst, plan = solved_square()
        asg = plan.assignments[0]
        paths = all_pairs_hops(inst.topology)
        stray = engine.PairRoute(
            "d",
            "b",
            tuple(paths.path_arcs("d", asg.locations[0])),
            tuple(paths.path_arcs(asg.locations[-1], "b")),
        )
        assert stray.first_arcs or stray.last_arcs
        broken = dataclasses.replace(asg, routes=asg.routes + (stray,))
        plan.assignments = (broken,) + plan.assignments[1:]
        violations = engine.validate_plan(inst, plan)
        assert [v.kind for v in violations] == ["coverage"]
        assert "d->b: no such demand record" in violations[0].detail

    def test_non_nfv_location_flagged(self):
        inst = build_instance(
            ["a", "b", "c"],
            [("a", "b"), ("b", "c"), ("a", "c")],
            [("a", "b"), ("b", "c")],
            nfv=["a", "b"],
        )
        plan = engine.solve(inst).plan
        doc = json.loads(engine.plan_to_json(plan))
        doc["instances"][0]["locations"] = ["c"] * len(
            doc["instances"][0]["locations"]
        )
        broken = engine.plan_from_json(json.dumps(doc), inst)
        kinds = {v.kind for v in engine.validate_plan(inst, broken)}
        assert "location_not_nfv" in kinds

    def test_objective_drift_detected(self):
        inst, plan = solved_square()
        plan.objective_gbps_hops += 1.0
        kinds = {v.kind for v in engine.validate_plan(inst, plan)}
        assert "objective_mismatch" in kinds

    def test_fault_texts_are_pinned(self):
        # one of the square's optimal plans, written out so that the pinned
        # texts do not depend on which tied optimum the solver returns
        inst = square_instance()
        to_c = engine.PairRoute("a", "c", (), (("a", "b"), ("b", "c")))
        asg0 = engine.InstanceAssignment("c", 0, ("a", "a"), ((),), (to_c,))
        asg1 = engine.InstanceAssignment(
            "c",
            1,
            ("b", "b"),
            ((),),
            (
                engine.PairRoute("b", "d", (), (("b", "a"), ("a", "d"))),
                engine.PairRoute("c", "a", (("c", "b"),), (("b", "a"),)),
            ),
        )
        loads = {
            ("a", "b"): 1.0, ("b", "c"): 1.0, ("b", "a"): 3.0, ("a", "d"): 1.0, ("c", "b"): 2.0
        }

        def check(*assignments):
            plan = engine.MappingPlan(
                assignments, dict(loads), {"a": 2.0, "b": 6.0}, ("a", "b"), 8.0, 8.0, 0.0
            )
            return [str(v) for v in engine.validate_plan(inst, plan)]

        def rerouted(asg, i, **arcs):
            routes = list(asg.routes)
            routes[i] = dataclasses.replace(routes[i], **arcs)
            return dataclasses.replace(asg, routes=tuple(routes))

        fix = dataclasses.replace
        cases = {
            "clean": (asg0, asg1),
            "location count": (fix(asg0, locations=("a",)), asg1),
            "segment count": (fix(asg0, segment_paths=((), ())), asg1),
            "unknown node": (asg0, fix(asg1, locations=("zz", "zz"))),
            "empty segment": (fix(asg0, locations=("a", "b")), asg1),
            "co-located segment": (asg0, fix(asg1, segment_paths=((("b", "a"), ("a", "b")),))),
            "unchained": (rerouted(asg0, 0, last_arcs=(("a", "b"), ("c", "d"))), asg1),
            "unknown arc": (asg0, rerouted(asg1, 1, first_arcs=(("c", "a"),))),
            "wrong ends": (asg0, rerouted(asg1, 1, first_arcs=(("d", "c"), ("c", "b")))),
        }
        uncovered_ac = (
            "coverage: chain c: demand pairs not covered exactly once "
            "(missing [('a', 'c')], surplus [])"
        )
        assert {name: check(*asgs) for name, asgs in cases.items()} == {
            "clean": [],
            "location count": [
                "contiguity: c/0: 1 locations for a 2-position chain",
                uncovered_ac,
                "arc_load_mismatch: arc a->b: stored 1.0, recomputed 0.0",
                "arc_load_mismatch: arc b->c: stored 1.0, recomputed 0.0",
                "objective_mismatch: stored 8.0, recomputed 6.0",
            ],
            "segment count": [
                "contiguity: c/0: 2 segments for a 2-position chain",
                uncovered_ac,
            ],
            "unknown node": [
                "location_not_nfv: c/1: unknown node zz",
                "location_not_nfv: c/1: unknown node zz",
                "contiguity: c/1 b->d lead-in: empty route but b != zz",
                "contiguity: c/1 b->d lead-out: route runs b->d, expected zz->d",
                "contiguity: c/1 c->a lead-in: route runs c->b, expected c->zz",
                "contiguity: c/1 c->a lead-out: route runs b->a, expected zz->a",
                "arc_load_mismatch: arc a->d: stored 1.0, recomputed 0.0",
                "arc_load_mismatch: arc b->a: stored 3.0, recomputed 0.0",
                "arc_load_mismatch: arc c->b: stored 2.0, recomputed 0.0",
                "objective_mismatch: stored 8.0, recomputed 2.0",
            ],
            "empty segment": [
                "contiguity: c/0 segment 0: empty route but a != b",
                "contiguity: c/0 a->c lead-out: route runs a->c, expected b->c",
                "cores: node b uses 7.0 cores of 6",
            ],
            "co-located segment": [
                "contiguity: c/1 segment 0: nonempty route on co-located endpoints",
                "arc_load_mismatch: arc a->b: stored 1.0, recomputed 4.0",
                "arc_load_mismatch: arc b->a: stored 3.0, recomputed 6.0",
                "objective_mismatch: stored 8.0, recomputed 14.0",
            ],
            "unchained": [
                "contiguity: c/0 a->c lead-out: arcs do not chain",
                "arc_load_mismatch: arc b->c: stored 1.0, recomputed 0.0",
                "arc_load_mismatch: arc c->d loaded but not stored",
            ],
            "unknown arc": [
                "contiguity: c/1 c->a lead-in: unknown arc ('c', 'a')",
                "arc_load_mismatch: arc c->b: stored 2.0, recomputed 0.0",
            ],
            "wrong ends": [
                "contiguity: c/1 c->a lead-in: route runs d->b, expected c->b",
                "arc_load_mismatch: arc d->c loaded but not stored",
                "objective_mismatch: stored 8.0, recomputed 10.0",
            ],
        }


class TestPlanJson:
    def test_roundtrip_preserves_everything(self):
        inst, plan = solved_square()
        back = engine.plan_from_json(engine.plan_to_json(plan), inst)
        assert back.assignments == plan.assignments
        assert back.arc_loads == pytest.approx(plan.arc_loads)
        assert back.objective_gbps_hops == plan.objective_gbps_hops
        assert engine.validate_plan(inst, back) == []

    def test_unknown_node_is_an_input_error(self):
        inst, plan = solved_square()
        doc = json.loads(engine.plan_to_json(plan))
        doc["instances"][0]["locations"][0] = "mars"
        with pytest.raises(engine.EngineError):
            engine.plan_from_json(json.dumps(doc), inst)

    def test_garbage_rejected(self, triangle_instance):
        with pytest.raises(engine.EngineError):
            engine.plan_from_json("{not json", triangle_instance)
        with pytest.raises(engine.EngineError):
            engine.plan_from_json('{"instances": 3}', triangle_instance)


class TestEndToEndOracle:
    def test_matches_exhaustive_on_random_instances(self):
        rng = random.Random(424242)
        done = 0
        while done < 25:
            inst = random_connected_instance(
                rng,
                max_nodes=5,
                max_pairs=4,
                chain_vnfs=("fw", "nat")[: rng.randint(1, 2)],
                nc=rng.randint(1, 4),
            )
            result = engine.solve(inst)
            want = separable_optimum(inst)
            assert result.plan.objective_gbps_hops == pytest.approx(want, abs=1e-6)
            assert engine.validate_plan(inst, result.plan) == []
            done += 1
