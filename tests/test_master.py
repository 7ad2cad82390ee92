import math

import pytest
from brute_force import enumerate_all_configs, reduced_cost_of
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
    fits,
    make_configuration,
    solve_relaxation,
    worst_case_load,
)
from scmap.netmodel import load_instance
from scmap.pathcore import all_pairs_hops
from scmap.pricer import best_configuration, price_round, segment_cost_table
from scmap.fixturedata import nsfnet_files, triangle_files
from scmap.simplexkit import LE, highs
from scmap.simplexkit.model import Row
from scmap.sptg import partition_all


def colocated(ci, node):
    n = len(ci.vnfs)
    return make_configuration(ci, (node,) * n, ((),) * (n - 1))


def seeded_model(instance, seed_nodes=("a",)):
    parts = partition_all(instance)
    model = build_rmp(instance, parts)
    for i, ci in enumerate(model.chain_instances):
        add_column(model, colocated(ci, seed_nodes[i % len(seed_nodes)]))
    return model


@pytest.fixture()
def triangle():
    return load_instance(*triangle_files(), k=3, nc=1)


def column_cost(model, config):
    return column_terms(model, [config])[0][0]


def column_coefficients(model, config):
    rows, _, coefs = column_terms(model, [config])[3]
    return dict(zip(rows.tolist(), coefs.tolist()))


def row_names(model, prefix):
    return [r.name for r in model.lp.rows if r.name.startswith(prefix + "[")]


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
        assert len(row_names(model, "conv")) == 1
        assert len(row_names(model, "core")) == 3
        assert len(row_names(model, "cap")) == 6

    def test_no_reach_rows(self, capacitated_triangle):
        # fbal/lbal and y >= 0 already make a node's inflow cover what it absorbs
        model = seeded_model(capacitated_triangle)
        assert row_names(model, "fbal") and row_names(model, "lbal")
        assert not row_names(model, "freach") and not row_names(model, "lreach")

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
        assert all(model.last_relaxation.x[j] == 0.0 for j in model.artificial.values())

    def test_artificials_alone_are_a_feasible_master(self):
        # each artificial stands for its chain instance left unserved, so an
        # arc-flow master with no configuration column solves, every
        # artificial at 1 and every end flow at 0
        inst = with_capacity(load_instance(*triangle_files(), k=3, nc=2), 6.0)
        model = build_rmp(inst, partition_all(inst))
        assert not model.compact and not model.pool
        assert len(model.artificial) == 2
        sol, _ = solve_relaxation(model)
        assert sol.optimal
        assert [sol.x[j] for j in model.artificial.values()] == pytest.approx([1.0, 1.0])
        assert all(sol.x[j] == pytest.approx(0.0) for j in model.yfvar.values())
        assert all(sol.x[j] == pytest.approx(0.0) for j in model.ylvar.values())

    def test_relaxation_ignores_hosting_budget(self):
        inst = two_ended_path()
        bounds = []
        for k in (1, len(inst.topology.nfv_nodes)):
            model, _ = engine.run_column_generation(with_k(inst, k), partition_all(inst))
            names = model.lp.row_names + model.lp.col_names
            assert not [n for n in names if n.startswith(("h[", "xf[", "host", "kbudget"))]
            bounds.append(model.last_relaxation.objective)
        assert bounds[0] == bounds[1] == 2.0

    def test_seed_at_source_kills_first_segment_flow(self):
        inst = build_instance(
            ["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")], [("a", "b")], capacity=1.5
        )
        parts = partition_all(inst)
        (ci,) = chain_instances(inst, parts)
        model = build_rmp(inst, parts)
        add_column(model, colocated(ci, "a"))
        assert not model.compact and model.yfvar
        sol, _ = solve_relaxation(model)
        first_flow = sum(
            sol.x[j] for (key, _pair, _arc), j in model.yfvar.items() if key == ci.key
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
        add_column(model, make_configuration(ci, ("a", "b"), ((("a", "b"),),)))
        with pytest.raises(MasterError, match="does not fit"):
            add_column(model, colocated(ci, "a"))
        assert len(model.pool) == 1

    def test_duplicate_is_idempotent(self, triangle):
        model = seeded_model(triangle)
        (ci,) = model.chain_instances
        before_pool = len(model.pool)
        before_vars = model.lp.n_vars
        var1 = add_column(model, colocated(ci, "a"))
        assert len(model.pool) == before_pool
        assert model.lp.n_vars == before_vars
        assert var1 == model.z0

    def test_objective_never_increases(self, triangle):
        model = seeded_model(triangle, seed_nodes=("c",))
        base, _ = solve_relaxation(model)
        (ci,) = model.chain_instances
        add_column(model, colocated(ci, "a"))
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
        add_column(model, colocated(ci, "a"))
        with pytest.raises(MasterError, match=fault):
            add_column(model, make_configuration(ci, locations, segments))
        assert len(model.pool) == 1

    def test_column_coefficient_audit(self, triangle):
        model = seeded_model(triangle)
        (ci,) = model.chain_instances
        for node in ("b", "c"):
            add_column(model, colocated(ci, node))
        for pos, config in enumerate(model.pool):
            var = model.z0 + pos
            stored = {}
            for i, row in enumerate(model.lp.rows):
                for j, a in row.coeffs:
                    if j == var:
                        stored[i] = stored.get(i, 0.0) + a
            derived = column_coefficients(model, config)
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
        assert not [v for v in model.lp.col_names if v.startswith("x[")]
        assert not row_names(model, "cons")
        _, width, m = model.end_cost.shape
        assert set((model.end_entries[0] // m % width).tolist()) == {0, 2}
        assert len(model.pool) > 1
        for pos, config in enumerate(model.pool):
            var = model.z0 + pos
            stored = {i: a for i, row in enumerate(model.lp.rows) for j, a in row.coeffs if j == var}
            assert stored == pytest.approx(column_coefficients(model, config))

    def test_z_costs_the_same_on_both_shapes(self, triangle, capacitated_triangle):
        # an arc-flow end flow pays only its detour, so a z column carries
        # its hop-shortest end cost there too
        compact = seeded_model(triangle)
        arc_flow = seeded_model(capacitated_triangle)
        assert compact.compact and not arc_flow.compact
        (ci,) = compact.chain_instances
        for config in enumerate_all_configs(triangle, ci):
            assert column_cost(arc_flow, config) == column_cost(compact, config)
            assert column_cost(compact, config) > config.cost


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
    assert {v.split("[")[0] for v in model.lp.col_names[: model.z0]} <= {"art", "yf", "yl"}
    stored = {}
    for i, row in enumerate(model.lp.rows):
        for j, a in row.coeffs:
            stored.setdefault(j, {})[i] = a
    for p, config in enumerate(model.pool):
        assert model.lp.col_names[model.z0 + p] == f"z[{config.chain}/{config.group_index}/{p}]"
        assert model.config_index[config.key] == model.z0 + p
        assert model.lp.obj[model.z0 + p] == model.z_obj[p] == column_cost(model, config)
        assert stored[model.z0 + p] == column_coefficients(model, config)


class TestDuals:
    def test_le_row_duals_nonpositive(self):
        # tight capacity makes the capacity duals meaningful
        inst = build_instance(
            ["a", "b", "c"], [("a", "b"), ("b", "c")], [("a", "c", 1.0)], capacity=1.0
        )
        parts = partition_all(inst)
        (ci,) = chain_instances(inst, parts)
        model = build_rmp(inst, parts)
        add_column(model, colocated(ci, "a"))
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
        for config in enumerate_all_configs(triangle, ci):
            mine = reduced_cost_of(model, duals, config)
            recomputed = column_cost(model, config)
            coeffs = column_coefficients(model, config)
            for row, coef in coeffs.items():
                recomputed -= model.last_relaxation.duals[row] * coef
            assert mine == pytest.approx(recomputed, abs=1e-8)
        pricing = price_round(
            triangle, model.chain_instances, duals, segment_cost_table(triangle, duals)
        )
        _, reduced = best_configuration(triangle, ci, pricing)
        assert reduced == pytest.approx(
            min(
                reduced_cost_of(model, duals, c)
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
        for config in enumerate_all_configs(triangle, ci):
            recomputed = column_cost(model, config)
            for row, coef in column_coefficients(model, config).items():
                recomputed -= model.last_relaxation.duals[row] * coef
            assert reduced_cost_of(model, duals, config) == pytest.approx(recomputed, abs=1e-8)
        pricing = price_round(
            triangle, model.chain_instances, duals, segment_cost_table(triangle, duals)
        )
        _, reduced = best_configuration(triangle, ci, pricing)
        assert reduced == pytest.approx(
            min(reduced_cost_of(model, duals, c) for c in enumerate_all_configs(triangle, ci)),
            abs=1e-8,
        )


class TestFinalIlp:
    def converged(self, instance):
        model, trace = engine.run_column_generation(instance, partition_all(instance))
        assert trace.converged
        return model

    def test_fast_binary_count_on_triangle(self, triangle):
        model = self.converged(triangle)
        final = build_final_ilp(model, triangle.k)
        nbin = int(final.lp.integer.sum())
        assert nbin == len(model.pool) + len(triangle.topology.nfv_nodes)

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
        # terms, then the hosting block; z priced with its end cost; on each
        # shape with one chain instance and with two, every fitting
        # configuration pooled so that several columns share a hosting row
        path = two_ended_path()
        shared = {True: 0, False: 0}  # most columns in one hosting row, by shape
        for inst in (triangle, capacitated_triangle, path, with_capacity(path, 3.0)):
            model = self.converged(inst)
            for ci in model.chain_instances:
                for config in enumerate_all_configs(inst, ci):
                    if fits(inst, ci, config.locations):
                        add_column(model, config)
            final = build_final_ilp(model, inst.k)
            assert not final.full
            lp = final.lp
            assert final.z0 == 0 and lp.n_vars > len(model.pool)
            zsel = {model.z0 + p: p for p in range(len(model.pool))}
            kept = [*model.conv_row, *model.core_row, *model.cap_row]
            master_rows, rows = model.lp.rows, lp.rows
            for i, r in enumerate(kept):
                want = master_rows[r]
                got = rows[i]
                assert (got.name, got.relation, got.rhs) == (want.name, want.relation, want.rhs)
                assert got.coeffs == [(zsel[j], a) for j, a in want.coeffs if j in zsel]
            for p, config in enumerate(model.pool):
                z = model.z0 + p
                assert model.lp.obj[z] == column_cost(model, config)
                assert (lp.col_names[p], lp.obj[p]) == (model.lp.col_names[z], model.lp.obj[z])
            assert not [v for v in lp.col_names if v.startswith(("art[", "x[", "y"))]
            # hosting: one binary flag per NFV node, then a row per (chain
            # instance, node) holding +1 on each of the instance's columns
            # placing there, in pool order, and -1 on the node's flag
            nfv = inst.topology.nfv_nodes
            h = {v: lp.col_names.index(f"h[{v}]") for v in nfv}
            assert sorted(h.values()) == list(range(len(model.pool), lp.n_vars))
            assert lp.integer.all() and (lp.ub[list(h.values())] == 1.0).all()
            users: dict = {}
            for p, config in enumerate(model.pool):
                i = model.by_key[config.chain, config.group_index].index
                for v in sorted({nfv.index(v) for v in config.locations}):
                    users.setdefault((i, v), []).append((p, 1.0))
            labels = [ci.label for ci in model.chain_instances]
            assert rows[len(kept) : -1] == [
                Row(f"host[{labels[i]}/{nfv[v]}]", using + [(h[nfv[v]], -1.0)], LE, 0.0)
                for (i, v), using in sorted(users.items())
            ]
            assert len({i for i, _ in users}) == len(labels)
            shared[model.compact] = max(shared[model.compact], *map(len, users.values()))
            assert rows[-1] == Row("kbudget", [(h[v], 1.0) for v in nfv], LE, float(inst.k))
            if model.compact:
                # no end flows, so no full program either
                with pytest.raises(MasterError):
                    build_final_ilp(model, inst.k, full=True)
            else:
                # the full program: the master in integers with its artificials
                # fixed at 0, then the same hosting block on its own columns
                full = build_final_ilp(model, inst.k, full=True)
                n, m = model.lp.n_vars, model.lp.n_rows
                assert full.full and full.z0 == model.z0 and full.lp.integer.all()
                assert full.lp.col_names[:n] == model.lp.col_names
                assert full.lp.obj[:n].tolist() == model.lp.obj.tolist()
                ub = model.lp.ub.copy()
                ub[list(model.artificial.values())] = 0.0
                assert full.lp.ub[:n].tolist() == ub.tolist()
                full_rows = full.lp.rows
                assert full_rows[:m] == master_rows
                at = [model.z0 + p if p < len(model.pool) else n + p - len(model.pool)
                      for p in range(lp.n_vars)]
                assert full_rows[m:] == [
                    Row(r.name, [(at[j], a) for j, a in r.coeffs], r.relation, r.rhs)
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
            for seed in seeds:
                add_column(model, seed)
            assert model.compact == (capacity == 1000.0)
            solve_relaxation(model)
            for full in [False] if model.compact else [False, True]:
                mip = highs.solve_mip(build_final_ilp(model, 1, full=full).lp)
                assert mip.status == "infeasible", full
                mip = highs.solve_mip(build_final_ilp(model, 2, full=full).lp)
                assert mip.status == "optimal", full
