import math

import numpy as np
import pytest
from brute_force import (
    colocated,
    column,
    enumerate_all_configs,
    fits,
    pool,
    pooled,
    reduced_cost_of,
)
from conftest import build_instance, with_capacity, with_cores, with_k
from test_relaxation import core_bound

from scmap import baselines, engine
from scmap.master import (
    MasterError,
    add_colocated_columns,
    add_column,
    build_final_ilp,
    build_rmp,
    chain_instances,
    column_terms,
    solve_relaxation,
    worst_case_load,
)
from scmap.netmodel import load_instance
from scmap.pathcore import all_pairs_hops
from scmap.pricer import best_configuration, price_round, segment_cost_table
from scmap.fixturedata import nsfnet_files, triangle_files
from scmap.simplexkit import EQ, LE, highs
from scmap.simplexkit.model import Row
from scmap.sptg import partition_all


def seeded_model(instance, seed_nodes=("a",)):
    parts = partition_all(instance)
    model = build_rmp(instance, parts)
    for i, ci in enumerate(model.chain_instances):
        pool(model, ci, colocated(ci, seed_nodes[i % len(seed_nodes)]))
    return model


@pytest.fixture()
def triangle():
    return load_instance(*triangle_files(), k=3, nc=1)


def terms(model, ci, col):
    """`column_terms` of `col` alone."""
    row = [model.nfv_index[v] for v in col.locations]
    loc = np.array([row + row[-1:] * (model.z_loc.shape[1] - len(row))])
    return column_terms(model, np.array([ci.index]), loc, [col.segments])


def column_cost(model, ci, col):
    return terms(model, ci, col)[0][0]


def column_coefficients(model, ci, col):
    rows, _, coefs = terms(model, ci, col)[1]
    return dict(zip(rows.tolist(), coefs.tolist()))


def master_rows(model):
    """How many rows the master's layout holds: convexity, core and
    capacity rows, then one flow row per node for each end commodity."""
    kept = len(model.conv_row) + len(model.core_row) + len(model.cap_row)
    return kept + len(model.ends) * len(model.instance.topology.nodes)


def two_ended_path():
    """Path a-b-c-d-e with demands a->b and e->d in two groups. Two hosts
    serve each group at its own end for 2 Gbps.hops; k=1 forces a detour."""
    nodes = ["a", "b", "c", "d", "e"]
    return build_instance(
        nodes,
        list(zip(nodes, nodes[1:])),
        [("a", "b"), ("e", "d")],
        nc=2,
        chain_vnfs=("fw", "nat"),
    )


class TestBuildRmp:
    def test_triangle_row_counts(self, capacitated_triangle):
        model = seeded_model(capacitated_triangle)
        assert not model.compact
        assert len(model.conv_row) == 1
        assert len(model.core_row) == 3
        assert len(model.cap_row) == 6

    def test_no_reach_rows(self, capacitated_triangle):
        # the flow rows and y >= 0 already make a node's inflow cover what it
        # absorbs: one flow row per node for each lead-in and lead-out, no more
        model = seeded_model(capacitated_triangle)
        assert {e.lead_in for e in model.ends} == {True, False}
        assert model.lp.n_rows == master_rows(model)

    def test_shape_follows_worst_case_load(self, triangle):
        worst = worst_case_load(triangle)
        assert worst == 12.0  # six 1 Gbps pairs of a one-VNF chain, two segments each
        assert seeded_model(with_capacity(triangle, worst)).compact
        assert not seeded_model(with_capacity(triangle, worst - 0.5)).compact

    def test_nsfnet_compact_rows(self):
        # convexity and core rows only: no end flows or cap rows
        inst = load_instance(*nsfnet_files(), k=14, nc=34)
        model, _ = engine.run_column_generation(inst, partition_all(inst))
        assert model.compact
        n_ci, n_nfv = len(model.chain_instances), len(inst.topology.nfv_nodes)
        assert n_ci == 34
        assert model.lp.n_rows == n_ci + n_nfv
        assert model.lp.n_vars == len(model.pool) + n_ci  # z plus one artificial each
        assert model.last_relaxation.objective == pytest.approx(390.0)
        assert all(model.last_relaxation.x[j] == 0.0 for j in range(n_ci))  # the artificials

    def test_artificials_alone_are_a_feasible_master(self):
        # each artificial stands for its chain instance left unserved, so an
        # arc-flow master with no configuration column solves, every
        # artificial at 1 and every end flow at 0
        inst = with_capacity(load_instance(*triangle_files(), k=3, nc=2), 6.0)
        model = build_rmp(inst, partition_all(inst))
        assert not model.compact and not model.pool
        assert len(model.chain_instances) == 2 and model.z0 == model.lp.n_vars
        sol, _ = solve_relaxation(model)
        assert sol.optimal
        # columns 0 and 1 are the artificials, the rest end flows
        assert sol.x[:2] == pytest.approx([1.0, 1.0])
        assert sol.x[2:] == pytest.approx([0.0] * (model.z0 - 2))

    def test_relaxation_ignores_hosting_budget(self):
        inst = two_ended_path()
        bounds = []
        for k in (1, len(inst.topology.nfv_nodes)):
            model, _ = engine.run_column_generation(with_k(inst, k), partition_all(inst))
            # no hosting flag or row: the master's layout and nothing else
            assert not model.lp.integer.any()
            assert model.lp.n_vars == model.z0 + len(model.pool)
            assert model.lp.n_rows == master_rows(model)
            bounds.append(model.last_relaxation.objective)
        assert bounds[0] == bounds[1] == 2.0

    def test_seed_at_source_kills_first_segment_flow(self):
        inst = build_instance(
            ["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")], [("a", "b")], capacity=1.5
        )
        parts = partition_all(inst)
        (ci,) = chain_instances(inst, parts)
        model = build_rmp(inst, parts)
        pool(model, ci, colocated(ci, "a"))
        assert not model.compact and model.ends
        sol, _ = solve_relaxation(model)
        n_arcs = len(inst.topology.arcs)
        first_flow = sum(
            sol.x[e.y0 + a] for e in model.ends if e.i == ci.index and e.lead_in
            for a in range(n_arcs)
        )
        assert first_flow == pytest.approx(0.0, abs=1e-9)

    def test_single_seed_relaxation_closed_form(self, triangle):
        # one configuration per instance: everything at node a, so the
        # objective is the detour sum through a
        model = seeded_model(triangle, seed_nodes=("a",))
        sol, _ = solve_relaxation(model)
        paths = all_pairs_hops(triangle.topology)
        expected = sum(
            r.gbps * (paths.distance(r.src, "a") + paths.distance("a", r.dst))
            for r in triangle.demands.records
        )
        assert sol.objective == pytest.approx(expected, abs=1e-8)


class TestAddColumn:
    def test_column_that_does_not_fit_is_refused(self):
        # one 2 Gbps group of fw, nat at 1 core/Gbps: co-location needs 4 cores
        inst = build_instance(
            ["a", "b"], [("a", "b")], [("a", "b", 2.0)], chain_vnfs=("fw", "nat"), cores=3
        )
        parts = partition_all(inst)
        (ci,) = chain_instances(inst, parts)
        model = build_rmp(inst, parts)
        pool(model, ci, column(ci, ("a", "b"), ((("a", "b"),),)))
        with pytest.raises(MasterError, match="does not fit"):
            pool(model, ci, colocated(ci, "a"))
        assert len(model.pool) == 1
        assert model.lp.n_vars == model.z0 + 1 and len(model.z_obj) == len(model.z_ci) == 1

    def test_chain_instance_of_another_model_is_refused(self, triangle):
        model = seeded_model(triangle)
        (ci,) = model.chain_instances
        for other in (ci._replace(total_gbps=2.0), ci._replace(index=1)):
            with pytest.raises(MasterError, match=f"no chain instance {ci.label} in this model"):
                pool(model, other, colocated(other, "b"))
        assert len(model.pool) == 1

    def test_duplicate_is_idempotent(self, triangle):
        model = seeded_model(triangle)
        (ci,) = model.chain_instances
        before_pool = len(model.pool)
        before_vars = model.lp.n_vars
        var1 = pool(model, ci, colocated(ci, "a"))
        assert len(model.pool) == before_pool
        assert model.lp.n_vars == before_vars
        assert var1 == model.z0

    def test_columns_that_differ_only_in_routes_pool_apart(self):
        # a two-position chain on a triangle at 1.5 Gbps links, below the
        # worst-case load of 3: an arc-flow master, where a segment's route
        # sets the column's capacity entries, so two routes between the
        # same locations are two columns; an exact repeat, given as lists
        # or as tuples, returns the pooled variable and appends nothing
        inst = build_instance(
            ["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")], [("a", "b")],
            chain_vnfs=("fw", "nat"), capacity=1.5,
        )
        parts = partition_all(inst)
        (ci,) = chain_instances(inst, parts)
        model = build_rmp(inst, parts)
        assert not model.compact
        direct, around = ((("a", "b"),),), ((("a", "c"), ("c", "b")),)
        assert add_column(model, ci, ("a", "b"), direct) == model.z0
        assert add_column(model, ci, ("a", "b"), around) == model.z0 + 1
        assert model.pool == [direct, around]
        assert model.z_loc[0].tolist() == model.z_loc[1].tolist()
        assert model.z_obj.tolist() == [column_cost(model, ci, column(ci, ("a", "b"), r))
                                        for r in (direct, around)]
        size = (model.lp.n_vars, model.lp.nnz)
        assert add_column(model, ci, ("a", "b"), around) == model.z0 + 1
        assert add_column(model, ci, ["a", "b"], [[("a", "b")]]) == model.z0
        assert (model.lp.n_vars, model.lp.nnz) == size
        assert len(model.pool) == len(model.z_obj) == len(model.z_ci) == len(model.z_loc) == 2

    def test_objective_never_increases(self, triangle):
        model = seeded_model(triangle, seed_nodes=("c",))
        base, _ = solve_relaxation(model)
        (ci,) = model.chain_instances
        pool(model, ci, colocated(ci, "a"))
        better, _ = solve_relaxation(model)
        assert better.objective <= base.objective + 1e-9

    @pytest.mark.parametrize(
        "locations, segments, fault",
        [
            (("a",), (), "1 locations for a 2-position chain"),
            (("a", "d"), ((("a", "b"), ("b", "c"), ("c", "d")),), "d is not an NFV node"),
            (("a", "a"), ((), ()), "2 segments for a 2-position chain"),
            (("a", "b"), ((),), "empty route but a != b"),
            (("a", "a"), ((("a", "b"), ("b", "a")),), "nonempty route on co-located"),
            (("a", "c"), ((("a", "c"),),), "unknown arc"),
            (("a", "c"), ((("a", "b"), ("c", "b")),), "arcs do not chain"),
            (("a", "c"), ((("a", "b"),),), "route runs a->b, expected a->c"),
        ],
        ids=[
            "location_count",
            "non_nfv_location",
            "segment_count",
            "empty_segment",
            "co_located_segment",
            "unknown_arc",
            "unchained_arcs",
            "wrong_endpoints",
        ],
    )
    def test_structural_fault_is_refused(self, locations, segments, fault):
        inst = build_instance(
            ["a", "b", "c", "d"],
            [("a", "b"), ("b", "c"), ("c", "d")],
            [("a", "d")],
            chain_vnfs=("fw", "nat"),
            nfv=["a", "b", "c"],
        )
        parts = partition_all(inst)
        (ci,) = chain_instances(inst, parts)
        model = build_rmp(inst, parts)
        pool(model, ci, colocated(ci, "a"))
        with pytest.raises(MasterError, match=fault):
            add_column(model, ci, locations, segments)
        assert len(model.pool) == 1

    def test_column_coefficient_audit(self, triangle):
        model = seeded_model(triangle)
        (ci,) = model.chain_instances
        for node in ("b", "c"):
            pool(model, ci, colocated(ci, node))
        for pos in range(len(model.pool)):
            var = model.z0 + pos
            stored = {}
            for i, row in enumerate(model.lp.rows):
                for j, a in row.coeffs:
                    if j == var:
                        stored[i] = stored.get(i, 0.0) + a
            derived = column_coefficients(model, *pooled(model, pos))
            assert stored == pytest.approx(derived)

    def test_z_meets_end_flows_only_at_end_positions(self):
        # z columns read the end-flow rows directly, with no position
        # variables or consistency rows, and only at the first and last of
        # a 3-VNF chain's positions (3 Gbps links are below the worst-case
        # load of 8: an arc-flow master)
        inst = build_instance(
            ["a", "b", "c"],
            [("a", "b"), ("b", "c"), ("a", "c")],
            [("a", "b"), ("b", "c")],
            chain_vnfs=("fw", "nat", "ids"),
            capacity=3.0,
        )
        model, _ = engine.run_column_generation(inst, partition_all(inst))
        assert not model.compact
        assert {len(ci.vnfs) for ci in model.chain_instances} == {3}
        # artificials, end flows and z columns; the layout's rows alone
        n_arcs = len(inst.topology.arcs)
        assert model.z0 == len(model.chain_instances) + len(model.ends) * n_arcs
        assert model.lp.n_rows == master_rows(model)
        _, width, m = model.end_cost.shape
        assert set((model.end_entries[0] // m % width).tolist()) == {0, 2}
        assert len(model.pool) > 1
        for pos in range(len(model.pool)):
            var = model.z0 + pos
            stored = {i: a for i, row in enumerate(model.lp.rows) for j, a in row.coeffs if j == var}
            assert stored == pytest.approx(column_coefficients(model, *pooled(model, pos)))

    def test_z_costs_the_same_on_both_shapes(self, triangle, capacitated_triangle):
        # an arc-flow end flow pays only its detour, so a z column carries
        # its hop-shortest end cost there too
        compact = seeded_model(triangle)
        arc_flow = seeded_model(capacitated_triangle)
        assert compact.compact and not arc_flow.compact
        (ci,) = compact.chain_instances
        for col in enumerate_all_configs(triangle, ci):
            assert column_cost(arc_flow, ci, col) == column_cost(compact, ci, col)
            assert column_cost(compact, ci, col) > col.cost


@pytest.mark.parametrize("shape", ["compact", "arc-flow"])
def test_pool_position_p_is_variable_z0_plus_p(shape):
    # NSFNET nc4 at twice the cores it needs, and a 3 Gbps pair set where
    # only c takes a one-host column, at 4 Gbps links: each master gets
    # one-host columns, then priced ones, and pool position p is variable
    # z0 + p throughout, after only artificials and end flows
    if shape == "compact":
        inst = core_bound(load_instance(*nsfnet_files(), k=14, nc=4), 2)
    else:
        inst = build_instance(
            ["a", "b", "c"],
            [("a", "b"), ("b", "c"), ("a", "c")],
            [("a", "b", 2.0), ("b", "c", 1.0)],
            chain_vnfs=("fw", "nat"),
            cores=3,
            capacity=4.0,
        )
        inst = with_cores(inst, {"c": 6})
    block = build_rmp(inst, partition_all(inst))
    add_colocated_columns(block)
    model, _ = engine.run_column_generation(inst, partition_all(inst))
    assert model.compact == (shape == "compact")
    assert 0 < len(block.pool) < len(model.pool)
    assert model.pool[: len(block.pool)] == block.pool
    assert model.lp.n_vars == model.z0 + len(model.pool)
    n_arcs = len(inst.topology.arcs)
    assert model.z0 == len(model.chain_instances) + len(model.ends) * n_arcs
    stored = {}
    for i, row in enumerate(model.lp.rows):
        for j, a in row.coeffs:
            stored.setdefault(j, {})[i] = a
    for p in range(len(model.pool)):
        ci, col = pooled(model, p)
        assert pool(model, ci, col) == model.z0 + p  # a repeat finds its position
        assert model.lp.obj[model.z0 + p] == model.z_obj[p] == column_cost(model, ci, col)
        assert stored[model.z0 + p] == column_coefficients(model, ci, col)
    assert model.lp.n_vars == model.z0 + len(model.pool)


@pytest.mark.parametrize("shape", ["compact", "arc-flow"])
def test_master_layout(shape):
    # NSFNET nc4 at twice the cores it needs, and two chain instances on a
    # triangle at 5 Gbps links; each master after column generation
    if shape == "compact":
        inst = core_bound(load_instance(*nsfnet_files(), k=14, nc=4), 2)
    else:
        inst = build_instance(
            ["a", "b", "c"],
            [("a", "b"), ("b", "c"), ("a", "c")],
            [("a", "b"), ("b", "c"), ("a", "c"), ("c", "a")],
            nc=2,
            capacity=5.0,
        )
    model, _ = engine.run_column_generation(inst, partition_all(inst))
    assert model.compact == (shape == "compact")
    topo, lp, cis = inst.topology, model.lp, model.chain_instances
    arcs, nfv = [(a.src, a.dst) for a in topo.arcs], topo.nfv_nodes
    n_ci, n_nfv, n_arcs = len(cis), len(nfv), 0 if model.compact else len(topo.arcs)
    assert n_ci == (4 if model.compact else 2)
    rows = lp.rows
    column: dict = {}  # column -> {row: coefficient}
    for i, row in enumerate(rows):
        for j, a in row.coeffs:
            column.setdefault(j, {})[i] = a
    # the convexity, core and capacity rows, contiguous from row 0 in that order
    assert model.conv_row == range(0, n_ci)
    assert model.core_row == range(n_ci, n_ci + n_nfv)
    assert model.cap_row == range(n_ci + n_nfv, n_ci + n_nfv + n_arcs)
    assert [(r.relation, r.rhs) for r in rows[: n_ci + n_nfv + n_arcs]] == (
        [(EQ, 1.0)] * n_ci
        + [(LE, float(topo.node_by_id[v].cores)) for v in nfv]
        + [(LE, topo.capacity(arc)) for arc in arcs[:n_arcs]]
    )
    # end commodities in instance order, each instance's lead-ins before
    # its lead-outs, a block of one column per arc each; the flow of
    # commodity e on arc a is column e.y0 + a, which carries e.gbps in arc
    # a's capacity row and costs e.gbps times the hops arc a adds
    order = [(e.i, not e.lead_in) for e in model.ends]
    assert order == sorted(order)
    assert {e.i for e in model.ends} == (set() if model.compact else set(range(n_ci)))
    d = all_pairs_hops(topo).distance
    y0 = n_ci
    for e in model.ends:
        assert e.y0 == y0
        y0 += n_arcs
        ci = cis[e.i]
        assert e.pairs == tuple(sorted(p for p in ci.pairs if p[0 if e.lead_in else 1] == e.point))
        assert {ci.demand[p] for p in e.pairs} == {e.gbps}
        pot = (lambda v: d(e.point, v)) if e.lead_in else (lambda v: -d(v, e.point))
        for a, (u, w) in enumerate(arcs):
            assert column[e.y0 + a][model.cap_row[a]] == e.gbps
            assert lp.obj[e.y0 + a] == e.gbps * (1 + pot(u) - pot(w))
    # after the capacity rows, one flow row per node for each commodity,
    # every lead-in's before any lead-out's, the endpoint's row first
    source_row, at = {}, n_ci + n_nfv + n_arcs
    for e in sorted(model.ends, key=lambda e: not e.lead_in):
        source_row[e] = at
        at += len(topo.nodes)
    assert at == lp.n_rows
    # the artificial of chain instance i is column i, at the Phase-I
    # penalty: 1 in convexity row i, which holds only it and the z columns
    # of instance i, and n in the endpoint row of each of its commodities
    # of n pairs
    for ci in cis:
        i = ci.index
        assert lp.obj[i] == ci.total_gbps * (len(ci.vnfs) + 1) * (len(topo.nodes) - 1) + 1.0
        assert column[i] == {
            model.conv_row[i]: 1.0,
            **{source_row[e]: len(e.pairs) for e in model.ends if e.i == i},
        }
        z = [model.z0 + p for p, owner in enumerate(model.z_ci.tolist()) if owner == i]
        assert [j for j, _ in rows[model.conv_row[i]].coeffs] == [i] + z
    # the z columns start at z0, after every artificial and end flow
    assert model.z0 == y0 and lp.n_vars == model.z0 + len(model.pool)
    assert lp.obj[model.z0 :].tolist() == model.z_obj.tolist()


class TestDuals:
    def test_le_row_duals_nonpositive(self):
        # tight capacity makes the capacity duals meaningful
        inst = build_instance(
            ["a", "b", "c"], [("a", "b"), ("b", "c")], [("a", "c", 1.0)], capacity=1.0
        )
        parts = partition_all(inst)
        (ci,) = chain_instances(inst, parts)
        model = build_rmp(inst, parts)
        pool(model, ci, colocated(ci, "a"))
        _, duals = solve_relaxation(model)
        assert all(d <= 1e-9 for d in duals.core)
        assert all(d <= 1e-9 for d in duals.capacity)

    def test_reduced_cost_matches_pricer_breakdown(self, capacitated_triangle):
        triangle = capacitated_triangle
        model = seeded_model(triangle, seed_nodes=("b",))
        _, duals = solve_relaxation(model)
        (ci,) = model.chain_instances
        # reduced cost recomputed from the LP's own column and duals must
        # agree with the standalone formula for every candidate column
        for col in enumerate_all_configs(triangle, ci):
            mine = reduced_cost_of(model, duals, ci, col)
            recomputed = column_cost(model, ci, col)
            coeffs = column_coefficients(model, ci, col)
            for row, coef in coeffs.items():
                recomputed -= model.last_relaxation.duals[row] * coef
            assert mine == pytest.approx(recomputed, abs=1e-8)
        pricing = price_round(
            triangle, model.chain_instances, duals, segment_cost_table(triangle, duals)
        )
        *_, reduced = best_configuration(triangle, ci, pricing)
        assert reduced == pytest.approx(
            min(
                reduced_cost_of(model, duals, ci, c)
                for c in enumerate_all_configs(triangle, ci)
            ),
            abs=1e-8,
        )


    def test_compact_reduced_cost_is_column_cost_less_duals(self, triangle):
        # on a compact master the end cost enters through the end charges,
        # so reduced_cost_of still equals c - A'y of the column
        model = seeded_model(triangle, seed_nodes=("b",))
        assert model.compact
        _, duals = solve_relaxation(model)
        (ci,) = model.chain_instances
        for col in enumerate_all_configs(triangle, ci):
            recomputed = column_cost(model, ci, col)
            for row, coef in column_coefficients(model, ci, col).items():
                recomputed -= model.last_relaxation.duals[row] * coef
            assert reduced_cost_of(model, duals, ci, col) == pytest.approx(recomputed, abs=1e-8)
        pricing = price_round(
            triangle, model.chain_instances, duals, segment_cost_table(triangle, duals)
        )
        *_, reduced = best_configuration(triangle, ci, pricing)
        assert reduced == pytest.approx(
            min(reduced_cost_of(model, duals, ci, c) for c in enumerate_all_configs(triangle, ci)),
            abs=1e-8,
        )


class TestFinalIlp:
    def converged(self, instance):
        model, trace = engine.run_column_generation(instance, partition_all(instance))
        assert trace.converged
        return model

    def test_fast_binary_count_on_triangle(self, triangle):
        # a binary per pooled column, and a hosting flag per NFV node where
        # k is below their number; at k = |NFV| no flag and no hosting row
        model = self.converged(triangle)
        n_nfv = len(triangle.topology.nfv_nodes)
        kept = len(model.conv_row) + len(model.core_row) + len(model.cap_row)
        assert triangle.k == n_nfv
        for k, flags in ((n_nfv - 1, n_nfv), (n_nfv, 0)):
            lp = build_final_ilp(model, k).lp
            assert int(lp.integer.sum()) == lp.n_vars == len(model.pool) + flags
            assert (lp.n_rows == kept) == (flags == 0)

    def test_full_matches_fast_uncapacitated(self, capacitated_triangle):
        # 6 Gbps links: an arc-flow master, yet no plan loads an arc that far
        model = self.converged(capacitated_triangle)
        full = build_final_ilp(model, capacitated_triangle.k, full=True)
        fast = build_final_ilp(model, capacitated_triangle.k)
        a = highs.solve_mip(full.lp)
        b = highs.solve_mip(fast.lp)
        assert a.status == b.status == "optimal"
        assert a.objective == pytest.approx(b.objective, abs=1e-6)

    def test_modes_agree_at_every_k_when_k1_binds(self):
        # 3 Gbps links are below the worst-case load of 6, so the master is
        # arc-flow, yet no plan loads an arc past 2
        inst = with_capacity(two_ended_path(), 3.0)
        model = self.converged(inst)
        assert not model.compact
        got = {}
        for k in range(1, len(inst.topology.nfv_nodes) + 1):
            objs = [
                highs.solve_mip(build_final_ilp(model, k, full=full).lp).objective
                for full in (True, False)
            ]
            assert objs[0] == pytest.approx(objs[1], abs=1e-6), k
            got[k] = objs[0]
        # oracle: at k=1 the best single host, beyond it each group at its end
        _, single = baselines.single_node_oracle(with_k(inst, 1))
        assert got[1] == pytest.approx(single) and single > 2.0
        assert all(got[k] == pytest.approx(2.0) for k in got if k > 1)

    def test_final_objective_at_least_relaxation(self, triangle, capacitated_triangle):
        for inst in (triangle, capacitated_triangle):
            model = self.converged(inst)
            final = build_final_ilp(model, inst.k, full=not model.compact)
            mip = highs.solve_mip(final.lp)
            assert mip.objective >= model.last_relaxation.objective - 1e-6

    def test_selection_is_the_masters_z_restriction(self, triangle, capacitated_triangle):
        # row for row the master's conv/core/cap rows with only their z
        # terms, then, at k below the number of NFV nodes, the hosting block,
        # and at k equal to it nothing more; z priced with its end cost; on
        # each shape with one chain instance and with two, every fitting
        # configuration pooled so that several columns share a hosting row
        path = two_ended_path()
        shared = {True: 0, False: 0}  # most columns in one hosting row, by shape
        for inst in (triangle, capacitated_triangle, path, with_capacity(path, 3.0)):
            model = self.converged(inst)
            for ci in model.chain_instances:
                for col in enumerate_all_configs(inst, ci):
                    if fits(inst, ci, col.locations):
                        pool(model, ci, col)
            nfv = inst.topology.nfv_nodes
            assert inst.k == len(nfv)
            kept = [*model.conv_row, *model.core_row, *model.cap_row]
            master_rows = model.lp.rows
            zsel = {model.z0 + p: p for p in range(len(model.pool))}
            for k in (len(nfv) - 1, len(nfv)):
                final = build_final_ilp(model, k)
                assert not final.full
                lp, rows = final.lp, final.lp.rows
                assert final.z0 == 0 and lp.integer.all()
                for i, r in enumerate(kept):
                    want = master_rows[r]
                    got = rows[i]
                    assert (got.relation, got.rhs) == (want.relation, want.rhs)
                    assert got.coeffs == [(zsel[j], a) for j, a in want.coeffs if j in zsel]
                for p in range(len(model.pool)):
                    z = model.z0 + p
                    assert model.lp.obj[z] == column_cost(model, *pooled(model, p))
                    assert lp.obj[p] == model.lp.obj[z]
                if k == len(nfv):
                    # the budget cannot bind: no flag, no hosting row
                    assert lp.n_vars == len(model.pool) and len(rows) == len(kept)
                else:
                    # hosting: one binary flag per NFV node after the z
                    # columns, and nothing else, then a row per (chain
                    # instance, node) holding +1 on each of the instance's
                    # columns placing there, in pool order, and -1 on the
                    # node's flag
                    h = {v: len(model.pool) + j for j, v in enumerate(nfv)}
                    assert lp.n_vars == len(model.pool) + len(nfv)
                    assert (lp.ub[list(h.values())] == 1.0).all()
                    users: dict = {}
                    for p in range(len(model.pool)):
                        ci, col = pooled(model, p)
                        for v in sorted({nfv.index(v) for v in col.locations}):
                            users.setdefault((ci.index, v), []).append((p, 1.0))
                    assert rows[len(kept) : -1] == [
                        Row(using + [(h[nfv[v]], -1.0)], LE, 0.0)
                        for (_, v), using in sorted(users.items())
                    ]
                    assert len({i for i, _ in users}) == len(model.chain_instances)
                    shared[model.compact] = max(shared[model.compact], *map(len, users.values()))
                    assert rows[-1] == Row([(h[v], 1.0) for v in nfv], LE, float(k))
                if model.compact:
                    # no end flows, so no full program either
                    with pytest.raises(MasterError):
                        build_final_ilp(model, k, full=True)
                    continue
                # the full program: the master in integers with its
                # artificials fixed at 0, then the same hosting block, if any,
                # on its own columns
                full = build_final_ilp(model, k, full=True)
                n, m = model.lp.n_vars, model.lp.n_rows
                assert full.full and full.z0 == model.z0 and full.lp.integer.all()
                assert full.lp.n_vars == n + lp.n_vars - len(model.pool)
                assert full.lp.obj[:n].tolist() == model.lp.obj.tolist()
                ub = model.lp.ub.copy()
                ub[: len(model.chain_instances)] = 0.0  # the artificials
                assert full.lp.ub[:n].tolist() == ub.tolist()
                full_rows = full.lp.rows
                assert full_rows[:m] == master_rows
                at = [model.z0 + p if p < len(model.pool) else n + p - len(model.pool)
                      for p in range(lp.n_vars)]
                assert full_rows[m:] == [
                    Row([(at[j], a) for j, a in r.coeffs], r.relation, r.rhs)
                    for r in rows[len(kept):]
                ]
        assert min(shared.values()) > 2, shared

    def test_infeasible_when_k_below_pool_spread(self):
        # two chain instances whose only pooled placements sit on different
        # nodes cannot share one hosting node
        inst = build_instance(
            ["a", "b", "c"],
            [("a", "b"), ("b", "c"), ("a", "c")],
            [("a", "b"), ("b", "c"), ("a", "c"), ("c", "a")],
            k=1,
            nc=2,
        )
        parts = partition_all(inst)
        cis = chain_instances(inst, parts)
        assert len(cis) == 2
        seeds = [colocated(cis[0], "a"), colocated(cis[1], "b")]
        for capacity in (1000.0, 5.0):  # compact, then arc-flow
            model = build_rmp(with_capacity(inst, capacity), parts)
            for ci, seed in zip(cis, seeds):
                pool(model, ci, seed)
            assert model.compact == (capacity == 1000.0)
            solve_relaxation(model)
            for full in [False] if model.compact else [False, True]:
                mip = highs.solve_mip(build_final_ilp(model, 1, full=full).lp)
                assert mip.status == "infeasible", full
                mip = highs.solve_mip(build_final_ilp(model, 2, full=full).lp)
                assert mip.status == "optimal", full
