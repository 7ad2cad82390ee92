"""Exactness of the end commodities: pairs of one chain instance that share a
source (or a destination) and a rate are routed as one integer flow, and the
full selection must still find every plan the per-pair routing could."""

import functools
import math
import random

import numpy as np
import pytest
from brute_force import enumerate_all_configs, fits, grouping_free_optimum, pool, simple_paths
from conftest import (
    build_instance,
    random_connected_instance,
    with_capacity,
    with_cores,
    with_k,
)

from scmap import engine
from scmap.fixturedata import cost239_files, nsfnet_files, triangle_files
from scmap.netmodel import load_instance
from scmap.pathcore import all_pairs_hops
from scmap.master import build_rmp, chain_instances, solve_relaxation, worst_case_load
from scmap.sptg import partition_all


def test_shared_source_splits_over_two_paths():
    # s reaches the one NFV node h only over s-a-h and s-b-h; with 1 Gbps
    # links the two 1 Gbps lead-ins out of s cannot share a path
    inst = build_instance(
        ["s", "a", "b", "h", "d1", "d2"],
        [("s", "a"), ("s", "b"), ("a", "h"), ("b", "h"), ("h", "d1"), ("h", "d2")],
        [("s", "d1"), ("s", "d2")],
        capacity=1.0,
        nfv=["h"],
    )
    model, _ = engine.run_column_generation(inst, partition_all(inst))
    (ci,) = model.chain_instances
    lead_ins = [(e.i, e.point, e.gbps, e.pairs) for e in model.ends if e.lead_in]
    assert lead_ins == [(ci.index, "s", 1.0, (("s", "d1"), ("s", "d2")))]
    plan = engine._extract(inst, model, full=True)
    assert engine.validate_plan(inst, plan) == []
    (asg,) = plan.assignments
    first = {(r.src, r.dst): r.first_arcs for r in asg.routes}
    assert first[("s", "d1")] != first[("s", "d2")]
    assert plan.objective_gbps_hops == pytest.approx(6.0)


def test_peel_cuts_loops_and_hands_out_units_in_order():
    # two units a->d over a-b-d and a-c-d; the first walk takes b->c->b
    # first (smallest arcs) and must come back without that loop
    flow = {
        ("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1, ("c", "b"): 1,
        ("b", "d"): 1, ("c", "d"): 1, ("d", "a"): 0,
    }
    walks = engine._peel_walks(flow, "a", "d", 2, "test")
    assert walks == [[("a", "b"), ("b", "d")], [("a", "c"), ("c", "d")]]
    assert engine._peel_walks({}, "a", "a", 2, "test") == [[], []]
    with pytest.raises(engine.EngineError, match="breaks at c"):
        engine._peel_walks({("a", "c"): 1}, "a", "d", 1, "test")


def oracle(instance, chain_instances):
    """Optimum per hosting budget over every configuration per chain
    instance and every simple lead-in and lead-out path per pair, under
    link capacity and node cores: {k: objective, or None if infeasible}."""
    topo = instance.topology
    n_nfv = len(topo.nfv_nodes)
    # best[h]: cheapest complete assignment using exactly h hosting nodes
    best = [math.inf] * (n_nfv + 1)
    options = []
    for ci in chain_instances:
        configs = sorted(enumerate_all_configs(instance, ci), key=lambda c: c.cost)
        options.append((ci, configs))
    load: dict = {}
    cores: dict = {}
    paths: dict = {}

    def between(u, w):
        if (u, w) not in paths:
            paths[(u, w)] = simple_paths(topo.out_arcs, u, w)
        return paths[(u, w)]

    def answer(h):
        return min(best[: h + 1])

    def push(arcs, gbps):
        for arc in arcs:
            load[arc] = load.get(arc, 0.0) + gbps
        return all(load[arc] <= topo.capacity(arc) + 1e-9 for arc in arcs)

    def pop(arcs, gbps):
        for arc in arcs:
            load[arc] -= gbps

    def place(i, cost, hosts):
        # hosting only grows, and a budget's answer only falls as it grows,
        # so nothing below here beats answer(len(hosts))
        if cost >= answer(len(hosts)) - 1e-9:
            return
        if i == len(options):
            best[len(hosts)] = cost
            return
        ci, configs = options[i]
        per_gbps = instance.chain_cores_per_gbps(ci.chain)
        for config in configs:
            use = {}
            for pos, v in enumerate(config.locations):
                use[v] = use.get(v, 0.0) + ci.total_gbps * per_gbps[pos]
            for v, u in use.items():
                cores[v] = cores.get(v, 0.0) + u
            arcs = [arc for seg in config.segments for arc in seg]
            fits = push(arcs, ci.total_gbps) and all(
                cores[v] <= topo.node_by_id[v].cores + 1e-9 for v in use
            )
            if fits:
                route(i, 0, cost + config.cost, hosts | set(config.locations), config)
            pop(arcs, ci.total_gbps)
            for v, u in use.items():
                cores[v] -= u

    def route(i, j, cost, hosts, config):
        ci = options[i][0]
        if j == len(ci.pairs):
            place(i + 1, cost, hosts)
            return
        s, d = ci.pairs[j]
        gbps = ci.demand[(s, d)]
        for first in between(s, config.locations[0]):
            for last in between(config.locations[-1], d):
                arcs = first + last
                if push(arcs, gbps):
                    route(i, j + 1, cost + gbps * len(arcs), hosts, config)
                pop(arcs, gbps)

    place(0, 0.0, frozenset())
    return {k: (None if answer(k) == math.inf else answer(k)) for k in range(1, n_nfv + 1)}


def full_pool_verdicts(instance, ks):
    """{k: full-selection objective, or None for an infeasible verdict}
    with every self-feasible configuration of every chain instance in the
    pool, and the model (None when some chain instance has no such
    configuration: no plan exists then)."""
    parts = partition_all(instance)
    cis = chain_instances(instance, parts)
    columns = [
        (ci, c) for ci in cis for c in enumerate_all_configs(instance, ci)
        if fits(instance, ci, c.locations)
    ]
    if {ci.index for ci, _ in columns} != set(range(len(cis))):
        return None, {k: None for k in ks}
    model = build_rmp(instance, parts)
    for ci, col in columns:
        pool(model, ci, col)
    solve_relaxation(model)
    out = {}
    for k in ks:
        try:
            plan = engine._extract(with_k(instance, k), model, full=not model.compact)
        except engine.Infeasible:
            out[k] = None
            continue
        assert engine.validate_plan(with_k(instance, k), plan) == []
        out[k] = plan.objective_gbps_hops
    return model, out


def draw(rng, bind=None):
    """A tiny instance with capacitated links, scarce cores or both, and one
    or two NFV nodes, so that most pairs need a lead-in or a lead-out.
    Core-bound draws keep 1000 Gbps links, at or above the worst-case arc
    load, so they get a compact master; "cores-at-w" puts every link at
    exactly that load."""
    capacity, cores = 1000.0, 100000
    if bind is None:
        bind = rng.choice(["capacity", "capacity", "both", "cores"])
    if bind in ("capacity", "both"):
        capacity = rng.choice([1.0, 1.5, 2.0, 3.0])
    if bind != "capacity":
        cores = rng.choice([1, 2, 3, 4, 6])
    inst = random_connected_instance(
        rng,
        max_nodes=5,
        max_pairs=5,
        chain_vnfs=("fw", "nat")[: rng.randint(1, 2)],
        nc=rng.randint(1, 2),
        capacity=capacity,
        cores=cores,
        nfv=rng.sample(["n0", "n1", "n2"], rng.randint(1, 2)),
    )
    return with_capacity(inst, worst_case_load(inst)) if bind == "cores-at-w" else inst


def draws():
    """The battery: 300 mixed draws, then 80 core-bound draws with every
    link at exactly the worst-case arc load."""
    rng = random.Random(2017)
    for case in range(380):
        yield case, draw(rng, None if case < 300 else "cores-at-w")


def budgets(instance):
    n_nfv = len(instance.topology.nfv_nodes)
    return sorted({1, min(2, n_nfv), n_nfv})


def test_full_selection_matches_exhaustive_oracle():
    # with every configuration pooled, the full selection is exact over the
    # partition; a commodity routed as one path (all members together)
    # would lose the plans that split a shared source over several paths
    merged = feasible = infeasible = compact = 0
    for case, inst in draws():
        ks = budgets(inst)
        model, got = full_pool_verdicts(inst, ks)
        want = oracle(inst, chain_instances(inst, partition_all(inst)))
        for k in ks:
            if want[k] is None:
                assert got[k] is None, f"case {case} k={k}: plan {got[k]}, oracle infeasible"
                infeasible += 1
            else:
                assert got[k] == pytest.approx(want[k], abs=1e-6), f"case {case} k={k}"
                feasible += 1
        if model is not None:
            compact += model.compact
            merged += any(len(e.pairs) > 1 for e in model.ends)
    # the battery must exercise shared commodities, plans, verdicts and
    # both master shapes
    assert merged >= 50 and feasible >= 100 and infeasible >= 100, (merged, feasible, infeasible)
    assert compact >= 100, compact


# compact (draw, k) cells whose `engine.solve` plan is above the
# grouping-free optimum, as (plan, optimum), and those it calls infeasible
# though a plan exists, with the optimum; both come from the sptg grouping
ABOVE_OPTIMUM = {
    (48, 2): (9.0, 7.5), (185, 2): (5.5, 5.0), (308, 2): (6.5, 5.5), (310, 2): (7.0, 6.0)
}
FALSE_INFEASIBLE = {(139, 2): 6.5, (307, 2): 18.0}


def test_plans_against_the_grouping_free_optimum():
    # on every draw whose links cannot bind, at each budget: no plan is
    # below the optimum over every grouping, no verdict is "infeasible"
    # where a plan exists but at the pinned cells, and every plan above the
    # optimum is pinned
    above, false_infeasible, tally = {}, {}, {"equal": 0, "infeasible": 0}
    for case, inst in draws():
        if any(a.capacity_gbps < worst_case_load(inst) for a in inst.topology.arcs):
            continue
        for k in budgets(inst):
            optimum = grouping_free_optimum(inst, k)
            optimum = None if optimum is None else round(optimum, 6)
            try:
                plan = engine.solve(with_k(inst, k)).plan.objective_gbps_hops
            except engine.Infeasible:
                plan = None
            if plan is None:
                if optimum is None:
                    tally["infeasible"] += 1
                else:
                    false_infeasible[case, k] = optimum
                continue
            assert optimum is not None, f"case {case} k={k}: plan {plan}, oracle infeasible"
            assert plan >= optimum - 1e-6, f"case {case} k={k}: plan {plan} < {optimum}"
            if plan > optimum + 1e-6:
                above[case, k] = (plan, optimum)
            else:
                tally["equal"] += 1
    assert above == ABOVE_OPTIMUM
    assert false_infeasible == FALSE_INFEASIBLE
    assert tally == {"equal": 136, "infeasible": 130}


def test_colocation_cut_refuses_only_cells_without_a_plan():
    refused = 0
    for case, inst in draws():
        cis = chain_instances(inst, partition_all(inst))
        if engine._colocation_cut(inst, cis) is None:
            continue
        refused += 1
        want = oracle(inst, cis)
        assert all(want[k] is None for k in budgets(inst)), f"case {case}: {want}"
    # 77 refused at the time of writing
    assert refused >= 50, refused


def test_auto_matches_full_on_capacitated_draws():
    # on an arc-flow master the selection program relaxes the full one, so
    # extract_plan (the selection, then full only for a plan that fails
    # validation) must reach full's objective or full's "infeasible" over
    # the same column pool
    compared = fallbacks = 0
    for case, inst in draws():
        if worst_case_load(inst) <= min(a.capacity_gbps for a in inst.topology.arcs):
            continue
        try:
            model, _ = engine.run_column_generation(inst, partition_all(inst))
        except engine.Infeasible:
            continue
        assert not model.compact
        for k in budgets(inst):
            verdicts = []
            for extract in (engine.extract_plan, functools.partial(engine._extract, full=True)):
                try:
                    plan = extract(with_k(inst, k), model)
                except engine.Infeasible:
                    verdicts.append(None)
                    continue
                assert engine.validate_plan(with_k(inst, k), plan) == []
                verdicts.append(plan.objective_gbps_hops)
            if verdicts[0] is None:
                assert verdicts[1] is None, f"case {case} k={k}: full gave {verdicts[1]}"
            else:
                assert verdicts[0] == pytest.approx(verdicts[1], abs=1e-6), f"case {case} k={k}"
            compared += 1
    assert compared >= 100, compared


def test_relaxation_point_matches_the_forced_selection():
    # wherever the relaxation's own point is taken as the plan, the MIP it
    # spares (the selection program on a compact master, the full program
    # on an arc-flow one) reaches the same objective over the same pool
    fired = {True: 0, False: 0}  # by master shape: compact or not
    declined = 0
    for case, inst in draws():
        try:
            model, _ = engine.run_column_generation(inst, partition_all(inst))
        except engine.Infeasible:
            continue
        for k in budgets(inst):
            plan = engine._relaxation_plan(with_k(inst, k), model)
            if plan is None:
                declined += 1
                continue
            fired[model.compact] += 1
            assert engine.validate_plan(with_k(inst, k), plan) == []
            assert plan.objective_gbps_hops >= model.lp_bound - 1e-6, f"case {case} k={k}"
            forced = engine._extract(with_k(inst, k), model, full=not model.compact)
            assert plan.objective_gbps_hops == pytest.approx(
                forced.objective_gbps_hops, abs=1e-6
            ), f"case {case} k={k}"
    # 134 compact and 105 arc-flow selections taken, 95 declined, at the
    # time of writing
    assert min(fired.values()) >= 80 and declined >= 50, (fired, declined)


def host_set_verdicts(inst, model, ks, tally, label):
    """Tally `_host_set_plan` at each budget of `ks` past the core cut,
    whether or not the relaxation point would take the cell first: "fired"
    where its plan validates and equals the forced selection program's
    objective over the same pool, "declined" where it returns None."""
    for k in ks:
        at_k = with_k(inst, k)
        if engine._core_cut(at_k, k):
            continue
        plan = engine._host_set_plan(at_k, model)
        if plan is None:
            tally["declined"] += 1
            continue
        tally["fired"] += 1
        assert engine.validate_plan(at_k, plan) == []
        forced = engine._extract(at_k, model)
        assert plan.objective_gbps_hops == pytest.approx(
            forced.objective_gbps_hops, abs=1e-6
        ), f"{label} k={k}"


def test_host_set_bound_matches_the_forced_selection_on_draws():
    # only a compact master's selection is the bound's to take
    tally = {"fired": 0, "declined": 0}
    for case, inst in draws():
        try:
            model, _ = engine.run_column_generation(inst, partition_all(inst))
        except engine.Infeasible:
            continue
        if not model.compact:
            assert all(
                engine._host_set_plan(with_k(inst, k), model) is None for k in budgets(inst)
            ), case
            continue
        host_set_verdicts(inst, model, budgets(inst), tally, f"case {case}")
    # fired 138, declined 3 at the time of writing (fired 4 while cells the
    # relaxation point takes first were skipped)
    assert tally["fired"] >= 4 and tally["declined"] >= 3, tally


@pytest.mark.parametrize(
    "scale, fired, declined", [(None, 18, 2), (6, 8, 6)], ids=["uncapped", "cores-6"]
)
def test_host_set_bound_matches_the_forced_selection_on_fixtures(scale, fired, declined):
    # NSFNET and COST239 at nc in {2, 4, 16, 34} and k in {1, 2, 3, 5},
    # uncapped or with ceil(scale * need / |V|) cores per node, need the
    # cores all placements take (the floors; 30/2 and 11/9 at the time of
    # writing). The declines at `uncapped` are NSFNET nc16 and nc34 at k=5,
    # C(14, 5) host sets over 224 and 476 columns, above HOST_SET_CAP; the
    # others are picks that break a core row
    tally = {"fired": 0, "declined": 0}
    for files in (nsfnet_files, cost239_files):
        for nc in (2, 4, 16, 34):
            inst = load_instance(*files(), k=1, nc=nc)
            if scale is not None:
                need = sum(
                    r.gbps * sum(inst.chain_cores_per_gbps(r.chain))
                    for r in inst.demands.records
                )
                cores = math.ceil(scale * need / len(inst.topology.nodes))
                inst = with_cores(inst, {v.id: cores for v in inst.topology.nodes})
            model, _ = engine.run_column_generation(inst, partition_all(inst))
            assert model.compact
            host_set_verdicts(inst, model, (1, 2, 3, 5), tally, f"{files.__name__} nc={nc}")
    assert tally["fired"] >= fired and tally["declined"] >= declined, tally


def test_path_plans_need_no_seed():
    # path n0-n4 with 3 Gbps links and 3 cores per node: the three chain
    # instances fit side by side only on split placements whose end flows
    # the capacities allow, and the master must be feasible before pricing
    # has found any of them
    nodes = [f"n{i}" for i in range(5)]
    inst = build_instance(
        nodes,
        list(zip(nodes, nodes[1:])),
        [("n2", "n0", 2.0), ("n0", "n4", 2.0), ("n2", "n4", 1.0), ("n4", "n1", 0.5)],
        nc=3,
        chain_vnfs=("fw", "nat"),
        cores=3,
        capacity=3.0,
    )
    want = oracle(inst, chain_instances(inst, partition_all(inst)))
    assert want == {1: None, 2: None, 3: None, 4: 15.5, 5: 15.5}
    for k, objective in want.items():
        if objective is None:
            with pytest.raises(engine.Infeasible):
                engine.solve(with_k(inst, k))
            continue
        result = engine.solve(with_k(inst, k))
        assert not result.model.compact
        assert engine.validate_plan(with_k(inst, k), result.plan) == []
        assert result.plan.objective_gbps_hops == pytest.approx(objective)
        assert result.plan.lp_bound == pytest.approx(15.5)


@pytest.mark.parametrize("capacity", [10.0, 1000.0])
def test_split_only_instances_share_seed_nodes_yet_solve(capacity):
    # two 2 Gbps fw->nat instances on 3-core nodes: neither fits on one
    # node, so no co-located column enters the pool; the restricted LP
    # stays feasible on its artificial columns until pricing finds pairs
    # that fit side by side (10 Gbps links are below the worst-case arc
    # load of 12, so that case is arc-flow)
    inst = build_instance(
        ["a", "b", "c", "d", "e"],
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")],
        [("a", "c"), ("a", "d"), ("c", "e"), ("d", "b")],
        nc=2,
        chain_vnfs=("fw", "nat"),
        cores=3,
        capacity=capacity,
    )
    parts = partition_all(inst)
    cis = chain_instances(inst, parts)
    assert [ci.total_gbps for ci in cis] == [2.0, 2.0]
    assert not any(fits(inst, ci, (v, v)) for ci in cis for v in inst.topology.nfv_nodes)
    want = oracle(inst, cis)
    assert want[3] is None and want[4] is not None
    for k in (3, 4, 5):
        if want[k] is None:
            with pytest.raises(engine.Infeasible):
                engine.solve(with_k(inst, k))
            continue
        result = engine.solve(with_k(inst, k))
        assert result.model.compact == (capacity >= worst_case_load(inst))
        assert engine.validate_plan(with_k(inst, k), result.plan) == []
        assert result.plan.objective_gbps_hops == pytest.approx(want[k])


def assert_end_cost_is_the_per_pair_sum(instance):
    """`end_cost` of every chain instance, position and NFV node equals
    sum g * d(s, v) for the first position and sum g * d(v, t) for the last,
    and 0 at every other position."""
    paths = all_pairs_hops(instance.topology)
    model = build_rmp(instance, partition_all(instance))
    want = np.zeros(model.end_cost.shape)
    for ci in model.chain_instances:
        last = len(ci.vnfs) - 1
        for j, v in enumerate(instance.topology.nfv_nodes):
            for (s, d), g in ci.demand.items():
                want[ci.index, 0, j] += g * paths.distance(s, v)
                want[ci.index, last, j] += g * paths.distance(v, d)
    assert model.end_cost.shape == (
        len(model.chain_instances),
        max(len(ci.vnfs) for ci in model.chain_instances),
        len(instance.topology.nfv_nodes),
    )
    assert (np.abs(model.end_cost - want) <= 1e-9 * np.maximum(1.0, want)).all()


@pytest.mark.parametrize("nc", [1, 4, 34])
@pytest.mark.parametrize(
    "files", [triangle_files, nsfnet_files, cost239_files], ids=["triangle", "nsfnet", "cost239"]
)
def test_end_cost_is_the_per_pair_sum_on_fixtures(files, nc):
    assert_end_cost_is_the_per_pair_sum(load_instance(*files(), k=1, nc=nc))


def test_end_cost_is_the_per_pair_sum_on_draws():
    # per-pair rates of 0.5, 1 and 2 Gbps, one or two positions
    for _, inst in draws():
        assert_end_cost_is_the_per_pair_sum(inst)


# case -> (CG rounds, columns added, LP bound, plan objective per budget or
# None for "infeasible"), as the per-pair end-cost loop gave them: the eight
# draws whose column generation adds a column, and five with fractional
# bounds or plans
DRAW_CG_PATHS = {
    24: (1, 0, 23.666666666666664, [None]),
    46: (2, 1, 7.0, [None, 7.0]),
    55: (1, 0, 2.5, [3.0, 2.5]),
    83: (2, 1, 8.0, [None, 8.0]),
    108: (1, 0, 9.0, [10.5, 10.5]),
    190: (1, 0, 10.5, [10.5]),
    253: (1, 0, 6.5, [7.5, 6.5]),
    262: (2, 1, 19.0, [None, 19.0]),
    306: (2, 1, 10.0, [None, 10.0]),
    307: (2, 1, 16.0, [None, None]),
    318: (2, 1, 10.0, [None, 10.0]),
    347: (2, 1, 10.5, [None, 10.5]),
    350: (2, 1, 12.0, [None, 12.0]),
}


def test_cg_paths_on_sampled_draws(monkeypatch):
    # the co-location cut refuses case 24 before any LP solve; the paths
    # pinned here are column generation's own
    monkeypatch.setattr(engine, "_colocation_cut", lambda *args: None)
    seen = {}
    for case, inst in draws():
        if case not in DRAW_CG_PATHS:
            continue
        model, trace = engine.run_column_generation(inst, partition_all(inst))
        objectives = []
        for k in budgets(inst):
            try:
                objectives.append(engine.extract_plan(with_k(inst, k), model).objective_gbps_hops)
            except engine.Infeasible:
                objectives.append(None)
        added = sum(it.columns_added for it in trace.iterations)
        seen[case] = (len(trace.iterations), added, model.lp_bound, objectives)
    assert seen.keys() == DRAW_CG_PATHS.keys()
    for case, (rounds, added, bound, objectives) in DRAW_CG_PATHS.items():
        assert seen[case][:2] == (rounds, added), case
        assert seen[case][2] == pytest.approx(bound, abs=1e-9), case
        assert seen[case][3] == pytest.approx(objectives, abs=1e-9), case
