"""The compact master's closed-form relaxation and the one-host column block,
each against the path it replaces: HiGHS on the same master, and the pool
that one `add_column` call per column builds."""

import math

import numpy as np
import pytest
from brute_force import colocated, fits, pool, pooled
from conftest import with_capacity, with_cores, with_k
from test_end_commodities import draws

from scmap import engine, master
from scmap.fixturedata import cost239_files, nsfnet_files
from scmap.master import (
    FIT_TOL,
    add_colocated_columns,
    build_rmp,
    core_loads,
    node_cores,
)
from scmap.netmodel import load_instance
from scmap.simplexkit import highs
from scmap.sptg import partition_all


def core_bound(instance, scale):
    """`instance` with ceil(scale * need / |V|) cores per node, need the cores
    all placements take."""
    need = sum(
        r.gbps * sum(instance.chain_cores_per_gbps(r.chain)) for r in instance.demands.records
    )
    cores = math.ceil(scale * need / len(instance.topology.nodes))
    return with_cores(instance, {v.id: cores for v in instance.topology.nodes})


def cheapest_columns(model):
    """Each chain instance's cheapest pooled column's pool position, the
    lowest among equals."""
    obj = model.lp.obj[model.z0 :].tolist()
    groups: dict = {}
    for p, i in enumerate(model.z_ci.tolist()):
        groups.setdefault(i, []).append(p)
    return [min(groups[i], key=lambda p: (obj[p], p)) for i in sorted(groups)]


def check_every_relaxation(monkeypatch, tally):
    """From here on, hold every relaxation of a compact master that column
    generation solves against HiGHS on the same master: where the closed
    form fires, its point is a selection at its objective, which equals
    HiGHS's within 1e-9, and every dual equals HiGHS's within 1e-7; where it
    declines with every chain instance pooled, the cheapest columns load
    some core row to within FIT_TOL of its cores. `tally["where"]` labels
    the failures."""
    solve = master.solve_relaxation

    def checked(model):
        if not model.compact:
            return solve(model)
        sol = master._closed_form(model)
        where = tally["where"]
        if sol is not None:
            ref = highs.solve_lp(model.lp)
            obj = model.lp.obj.tolist()
            assert sorted(set(sol.x)) == [0.0, 1.0], where
            assert sum(c * x for c, x in zip(obj, sol.x)) == pytest.approx(sol.objective)
            assert sol.objective == pytest.approx(ref.objective, abs=1e-9), where
            assert np.abs(np.subtract(sol.duals, ref.duals)).max() <= 1e-7, where
            tally["fired"] += 1
        elif set(model.z_ci.tolist()) == set(range(len(model.chain_instances))):
            loads = core_loads(model, cheapest_columns(model))
            assert (loads >= node_cores(model) - FIT_TOL).any(), where
            tally["declined"] += 1
        return solve(model)

    monkeypatch.setattr(engine, "solve_relaxation", checked)


def test_closed_form_matches_highs_on_draws(monkeypatch):
    tally = {"fired": 0, "declined": 0}
    check_every_relaxation(monkeypatch, tally)
    for case, inst in draws():
        tally["where"] = f"case {case}"
        try:
            engine.run_column_generation(inst, partition_all(inst))
        except engine.Infeasible:
            continue
    # 77 fired, 20 declined at the time of writing
    assert tally["fired"] >= 60 and tally["declined"] >= 15, tally


@pytest.mark.parametrize(
    "scale, fired, declined",
    [(None, 8, 0), (6, 7, 1), (1.5, 0, 10)],
    ids=["uncapped", "cores-6", "cores-1.5"],
)
def test_closed_form_matches_highs_on_fixtures(monkeypatch, scale, fired, declined):
    # NSFNET and COST239 at nc in {1, 4, 16, 34}, uncapped or with
    # ceil(scale * need / |V|) cores per node; cells the necessary cuts
    # refuse are skipped. A decline counts only once every chain instance
    # has a pooled column (at 1.5 no instance fits on one node, so the first
    # round has none)
    tally = {"fired": 0, "declined": 0}
    check_every_relaxation(monkeypatch, tally)
    for files in (nsfnet_files, cost239_files):
        for nc in (1, 4, 16, 34):
            inst = load_instance(*files(), k=1, nc=nc)
            if scale is not None:
                inst = core_bound(inst, scale)
            tally["where"] = f"{files.__name__} nc={nc}"
            try:
                engine.run_column_generation(inst, partition_all(inst))
            except engine.Infeasible:
                continue
    assert tally["fired"] >= fired and tally["declined"] >= declined, tally


def count_lp_solves(monkeypatch):
    calls = []
    solve_lp = highs.solve_lp

    def counted(lp):
        calls.append(lp)
        return solve_lp(lp)

    monkeypatch.setattr(highs, "solve_lp", counted)
    return calls


def test_uncapacitated_sweep_solves_no_lp(monkeypatch):
    # the paper's NSFNET nc x k grid: no core row binds, so every round is
    # solved in closed form and no plan needs a re-solve
    calls = count_lp_solves(monkeypatch)
    for nc in (1, 4, 16, 34):
        inst = load_instance(*nsfnet_files(), k=14, nc=nc)
        model, trace = engine.run_column_generation(inst, partition_all(inst))
        assert {it.relaxation for it in trace.iterations} == {"closed_form"}
        assert {it.lp_iterations for it in trace.iterations} == {0}
        for k in (2, 14):
            engine.extract_plan(with_k(inst, k), model)
    assert calls == []


def test_core_bound_cell_still_solves_lps(monkeypatch):
    calls = count_lp_solves(monkeypatch)
    inst = core_bound(load_instance(*nsfnet_files(), k=14, nc=16), 1.5)
    _, trace = engine.run_column_generation(inst, partition_all(inst))
    assert "highs" in {it.relaxation for it in trace.iterations}
    assert len(calls) >= 1
    # HiGHS's simplex iterations on the HiGHS rounds, none on the others
    assert all((it.lp_iterations > 0) == (it.relaxation == "highs") for it in trace.iterations)


def looped_pool(instance, partitions):
    """The master with its one-host columns pooled one `add_column` call at
    a time, at each node where `fits` allows, as column generation did
    before the block."""
    model = build_rmp(instance, partitions)
    for ci in model.chain_instances:
        for v in instance.topology.nfv_nodes:
            if fits(instance, ci, (v,) * len(ci.vnfs)):
                pool(model, ci, colocated(ci, v))
    return model


def assert_block_pools_as_the_loop(instance):
    """Same pool order and routes, z variables and objectives, every row's
    coefficients, and the pool's objective, chain-instance and location
    arrays, exactly; returns the model."""
    partitions = partition_all(instance)
    block = build_rmp(instance, partitions)
    add_colocated_columns(block)
    loop = looped_pool(instance, partitions)
    assert block.pool == loop.pool
    assert block.z0 == loop.z0
    assert block.lp.n_vars == loop.lp.n_vars
    assert block.lp.obj.tolist() == loop.lp.obj.tolist()
    assert [r.coeffs for r in block.lp.rows] == [r.coeffs for r in loop.lp.rows]
    for name in ("z_obj", "z_ci", "z_loc"):
        got, want = getattr(block, name), getattr(loop, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    # the arrays agree with the pooled columns they stand for
    assert block.z_obj.tolist() == block.lp.obj[block.z0 :].tolist()
    # each is its chain instance whole at one node, with no segment
    nfv = instance.topology.nfv_nodes
    for p in range(len(block.pool)):
        ci, col = pooled(block, p)
        assert col == colocated(ci, col.locations[0])
        assert {nfv[v] for v in block.z_loc[p]} == set(col.locations)
    return block


def test_one_host_block_pools_as_the_loop_on_draws():
    shapes = {True: 0, False: 0}  # compact or not
    partial = 0  # masters where some instance does not fit on some node
    for _, inst in draws():
        model = assert_block_pools_as_the_loop(inst)
        shapes[model.compact] += 1
        partial += len(model.pool) < len(model.chain_instances) * len(inst.topology.nfv_nodes)
    # 177 compact, 203 arc-flow, 120 partial at the time of writing
    assert min(shapes.values()) >= 150 and partial >= 100, (shapes, partial)


@pytest.mark.parametrize("nc", [1, 4, 34])
@pytest.mark.parametrize(
    "variant",
    [None, "links-30", "cores-1.5"],
    ids=["uncapped", "links-30", "cores-1.5"],
)
@pytest.mark.parametrize("files", [nsfnet_files, cost239_files], ids=["nsfnet", "cost239"])
def test_one_host_block_pools_as_the_loop_on_fixtures(files, variant, nc):
    inst = load_instance(*files(), k=1, nc=nc)
    if variant == "links-30":
        inst = with_capacity(inst, 30.0)
    elif variant == "cores-1.5":
        inst = core_bound(inst, 1.5)
    model = assert_block_pools_as_the_loop(inst)
    assert model.compact == (variant != "links-30")


def test_one_host_block_goes_into_an_empty_pool(triangle_instance):
    model = build_rmp(triangle_instance, partition_all(triangle_instance))
    add_colocated_columns(model)
    with pytest.raises(master.MasterError, match="no column yet"):
        add_colocated_columns(model)


def test_closed_form_ties_go_to_the_lowest_pool_position(uncapped_split_triangle):
    # the one-host columns of c1/0 cost 5, 5 and 6 at a, b and c, those of
    # c1/1 cost 3, 3 and 2: the point takes c1/0 at a and c1/1 at c
    model = build_rmp(uncapped_split_triangle, partition_all(uncapped_split_triangle))
    add_colocated_columns(model)
    assert model.lp.obj[model.z0 :].tolist() == [5, 5, 6, 3, 3, 2]
    sol = master._closed_form(model)
    assert sol.method == "closed_form" and sol.objective == 7.0
    assert [p for p, x in enumerate(sol.x[model.z0 :]) if x == 1.0] == [0, 5]
