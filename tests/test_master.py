import math

import pytest
from conftest import build_instance

from scmap import baselines, engine
from scmap.master import (
    MODE_FAST,
    MODE_FULL,
    MasterError,
    add_column,
    build_final_ilp,
    build_rmp,
    chain_instances,
    column_coefficients,
    make_configuration,
    reduced_cost_of,
    solve_relaxation,
)
from scmap.netmodel import ProblemInstance, load_instance
from scmap.pathcore import all_pairs_hops
from scmap.pricer import best_configuration, enumerate_all_configs
from scmap.fixturedata import triangle_files
from scmap.simplexkit import highs
from scmap.sptg import partition_all


def colocated(ci, node):
    n = len(ci.vnfs)
    return make_configuration(ci, (node,) * n, ((),) * (n - 1))


def seeded_model(instance, seed_nodes=("a",)):
    parts = partition_all(instance)
    cis = chain_instances(instance, parts)
    seeds = [colocated(ci, seed_nodes[i % len(seed_nodes)]) for i, ci in enumerate(cis)]
    return build_rmp(instance, parts, seeds)


@pytest.fixture()
def triangle():
    return load_instance(*triangle_files(), k=3, nc=1)


def row_names(model, prefix):
    return [r.name for r in model.lp.rows if r.name.startswith(prefix + "[")]


def with_k(instance, k):
    return ProblemInstance(
        instance.topology, instance.vnfs, instance.chains, instance.demands,
        k=k, nc=dict(instance.nc),
    )


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
    def test_triangle_row_counts(self, triangle):
        model = seeded_model(triangle)
        assert len(row_names(model, "conv")) == 1
        assert len(row_names(model, "core")) == 3
        assert len(row_names(model, "cap")) == 6

    def test_missing_seed_rejected(self, triangle):
        with pytest.raises(MasterError):
            build_rmp(triangle, partition_all(triangle), [])

    def test_relaxation_ignores_hosting_budget(self):
        inst = two_ended_path()
        bounds = []
        for k in (1, len(inst.topology.nfv_nodes)):
            model, _ = engine.run_column_generation(with_k(inst, k), partition_all(inst))
            names = [r.name for r in model.lp.rows] + [v.name for v in model.lp.variables]
            assert not [n for n in names if n.startswith(("h[", "xf[", "host", "kbudget"))]
            bounds.append(model.last_relaxation.objective)
        assert bounds[0] == bounds[1] == 2.0

    def test_seed_at_source_kills_first_segment_flow(self):
        inst = build_instance(
            ["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")], [("a", "b")]
        )
        parts = partition_all(inst)
        (ci,) = chain_instances(inst, parts)
        model = build_rmp(inst, parts, [colocated(ci, "a")])
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
    def test_duplicate_is_idempotent(self, triangle):
        model = seeded_model(triangle)
        (ci,) = model.chain_instances
        before_pool = len(model.pool)
        before_vars = model.lp.n_vars
        var1 = add_column(model, colocated(ci, "a"))
        assert len(model.pool) == before_pool
        assert model.lp.n_vars == before_vars
        assert var1 == model.zvar[0]

    def test_objective_never_increases(self, triangle):
        model = seeded_model(triangle, seed_nodes=("c",))
        base, _ = solve_relaxation(model)
        (ci,) = model.chain_instances
        add_column(model, colocated(ci, "a"))
        better, _ = solve_relaxation(model)
        assert better.objective <= base.objective + 1e-9

    def test_non_nfv_location_rejected(self):
        inst = build_instance(
            ["a", "b", "c"],
            [("a", "b"), ("b", "c")],
            [("a", "c")],
            nfv=["a", "b"],
        )
        parts = partition_all(inst)
        (ci,) = chain_instances(inst, parts)
        model = build_rmp(inst, parts, [colocated(ci, "a")])
        with pytest.raises(MasterError):
            add_column(model, colocated(ci, "c"))

    def test_column_coefficient_audit(self, triangle):
        model = seeded_model(triangle)
        (ci,) = model.chain_instances
        for node in ("b", "c"):
            add_column(model, colocated(ci, node))
        for pos, config in enumerate(model.pool):
            var = model.zvar[pos]
            stored = {}
            for i, row in enumerate(model.lp.rows):
                for j, a in row.coeffs:
                    if j == var:
                        stored[i] = stored.get(i, 0.0) + a
            derived = column_coefficients(model, config)
            assert stored == pytest.approx(derived)


class TestDuals:
    def test_le_row_duals_nonpositive(self):
        # tight capacity makes the capacity duals meaningful
        inst = build_instance(
            ["a", "b", "c"], [("a", "b"), ("b", "c")], [("a", "c", 1.0)], capacity=1.0
        )
        parts = partition_all(inst)
        (ci,) = chain_instances(inst, parts)
        model = build_rmp(inst, parts, [colocated(ci, "a")])
        _, duals = solve_relaxation(model)
        assert all(d <= 1e-9 for d in duals.core.values())
        assert all(d <= 1e-9 for d in duals.capacity.values())

    def test_reduced_cost_matches_pricer_breakdown(self, triangle):
        model = seeded_model(triangle, seed_nodes=("b",))
        _, duals = solve_relaxation(model)
        (ci,) = model.chain_instances
        # reduced cost recomputed from the LP's own column and duals must
        # agree with the standalone formula for every candidate column
        for config in enumerate_all_configs(triangle, ci):
            mine = reduced_cost_of(model, duals, config)
            recomputed = config.cost
            coeffs = column_coefficients(model, config)
            for row, coef in coeffs.items():
                recomputed -= model.last_relaxation.duals[row] * coef
            assert mine == pytest.approx(recomputed, abs=1e-8)
        _, breakdown = best_configuration(triangle, ci, duals)
        assert breakdown.total == pytest.approx(
            min(
                reduced_cost_of(model, duals, c)
                for c in enumerate_all_configs(triangle, ci)
            ),
            abs=1e-8,
        )


class TestFinalIlp:
    def converged(self, instance):
        model, trace = engine.run_column_generation(instance, partition_all(instance))
        assert trace.converged
        return model

    def test_fast_binary_count_on_triangle(self, triangle):
        model = self.converged(triangle)
        final = build_final_ilp(model, MODE_FAST, triangle.k)
        nbin = sum(1 for v in final.lp.variables if v.integer)
        assert nbin == len(model.pool) + len(triangle.topology.nfv_nodes)

    def test_full_matches_fast_uncapacitated(self, triangle):
        model = self.converged(triangle)
        full = build_final_ilp(model, MODE_FULL, triangle.k)
        fast = build_final_ilp(model, MODE_FAST, triangle.k)
        a = highs.solve_mip(full.lp)
        b = highs.solve_mip(fast.lp)
        assert a.status == b.status == "optimal"
        assert a.objective == pytest.approx(b.objective, abs=1e-6)

    def test_modes_agree_at_every_k_when_k1_binds(self):
        inst = two_ended_path()
        model = self.converged(inst)
        got = {}
        for k in range(1, len(inst.topology.nfv_nodes) + 1):
            objs = [
                highs.solve_mip(build_final_ilp(model, mode, k).lp).objective
                for mode in (MODE_FULL, MODE_FAST)
            ]
            assert objs[0] == pytest.approx(objs[1], abs=1e-6), k
            got[k] = objs[0]
        # oracle: at k=1 the best single host, beyond it each group at its end
        _, single = baselines.single_node_oracle(with_k(inst, 1))
        assert got[1] == pytest.approx(single) and single > 2.0
        assert all(got[k] == pytest.approx(2.0) for k in got if k > 1)

    def test_final_objective_at_least_relaxation(self, triangle):
        model = self.converged(triangle)
        final = build_final_ilp(model, MODE_FULL, triangle.k)
        mip = highs.solve_mip(final.lp)
        assert mip.objective >= model.last_relaxation.objective - 1e-6

    def test_fast_refused_when_capacity_tight(self):
        inst = build_instance(
            ["a", "b", "c"], [("a", "b"), ("b", "c")], [("a", "c", 1.0)], capacity=1.0
        )
        parts = partition_all(inst)
        (ci,) = chain_instances(inst, parts)
        model = build_rmp(inst, parts, [colocated(ci, "b")])
        solve_relaxation(model)
        with pytest.raises(MasterError):
            build_final_ilp(model, MODE_FAST, inst.k)

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
        model = build_rmp(inst, parts, seeds)
        solve_relaxation(model)
        for mode in (MODE_FULL, MODE_FAST):
            mip = highs.solve_mip(build_final_ilp(model, mode, 1).lp)
            assert mip.status == "infeasible", mode
            mip = highs.solve_mip(build_final_ilp(model, mode, 2).lp)
            assert mip.status == "optimal", mode
