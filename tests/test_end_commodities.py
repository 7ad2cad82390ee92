"""Exactness of the end commodities: pairs of one chain instance that share a
source (or a destination) and a rate are routed as one integer flow, and the
full selection must still find every plan the per-pair routing could."""

import math
import random

import pytest
from conftest import build_instance, random_connected_instance

from scmap import engine
from scmap.master import MasterInfeasible, build_rmp, chain_instances, solve_relaxation
from scmap.netmodel import ProblemInstance
from scmap.pricer import enumerate_all_configs
from scmap.sptg import partition_all


def with_k(instance, k):
    return ProblemInstance(
        instance.topology, instance.vnfs, instance.chains, instance.demands,
        k=k, nc=dict(instance.nc),
    )


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
    assert model.lead_in == {(ci.key, ("s", 1.0)): (("s", "d1"), ("s", "d2"))}
    plan = engine.extract_plan(inst, model, mode="full")
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


def simple_paths(topo, src, dst):
    """Every simple src->dst arc path; the empty path when src == dst."""
    if src == dst:
        return [()]
    out = []
    stack = [(src, (), {src})]
    while stack:
        node, arcs, seen = stack.pop()
        if node == dst:
            out.append(arcs)
            continue
        for arc in topo.out_arcs[node]:
            if arc[1] not in seen:
                stack.append((arc[1], arcs + (arc,), seen | {arc[1]}))
    return sorted(out, key=lambda p: (len(p), p))


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
            paths[(u, w)] = simple_paths(topo, u, w)
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
            arcs = [arc for seg in config.segment_paths for arc in seg]
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
    with every configuration of every chain instance in the pool."""
    parts = partition_all(instance)
    pool = [
        c for ci in chain_instances(instance, parts) for c in enumerate_all_configs(instance, ci)
    ]
    model = build_rmp(instance, parts, pool)
    try:
        solve_relaxation(model)
    except MasterInfeasible:
        return model, {k: None for k in ks}
    out = {}
    for k in ks:
        try:
            plan = engine.extract_plan(with_k(instance, k), model, mode="full")
        except engine.Infeasible:
            out[k] = None
            continue
        assert engine.validate_plan(with_k(instance, k), plan) == []
        out[k] = plan.objective_gbps_hops
    return model, out


def draw(rng):
    """A tiny instance with capacitated links, scarce cores or both, and one
    or two NFV nodes, so that most pairs need a lead-in or a lead-out."""
    capacity, cores = 1000.0, 100000
    bind = rng.choice(["capacity", "capacity", "both", "cores"])
    if bind != "cores":
        capacity = rng.choice([1.0, 1.5, 2.0, 3.0])
    if bind != "capacity":
        cores = rng.choice([1, 2, 3, 4, 6])
    return random_connected_instance(
        rng,
        max_nodes=5,
        max_pairs=5,
        chain_vnfs=("fw", "nat")[: rng.randint(1, 2)],
        nc=rng.randint(1, 2),
        capacity=capacity,
        cores=cores,
        nfv=rng.sample(["n0", "n1", "n2"], rng.randint(1, 2)),
    )


def test_full_selection_matches_exhaustive_oracle():
    # with every configuration pooled, the full selection is exact over the
    # partition; a commodity routed as one path (all members together)
    # would lose the plans that split a shared source over several paths
    rng = random.Random(2017)
    merged = feasible = infeasible = 0
    for case in range(300):
        inst = draw(rng)
        n_nfv = len(inst.topology.nfv_nodes)
        ks = sorted({1, min(2, n_nfv), n_nfv})
        model, got = full_pool_verdicts(inst, ks)
        want = oracle(inst, model.chain_instances)
        for k in ks:
            if want[k] is None:
                assert got[k] is None, f"case {case} k={k}: plan {got[k]}, oracle infeasible"
                infeasible += 1
            else:
                assert got[k] == pytest.approx(want[k], abs=1e-6), f"case {case} k={k}"
                feasible += 1
        merged += any(len(p) > 1 for p in {**model.lead_in, **model.lead_out}.values())
    # the battery must exercise shared commodities, plans and verdicts
    assert merged >= 50 and feasible >= 100 and infeasible >= 100, (merged, feasible, infeasible)
