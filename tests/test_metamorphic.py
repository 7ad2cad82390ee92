"""Metamorphic checks on the bundled fixtures (ROADMAP item 17).

Node ids are only names, and nc and k are upper limits, so neither a
renaming of the nodes nor a larger nc or k can make the optimum worse, and
a plan at (nc, k) is a plan at every larger cell. These checks need no
oracle. As in a sweep, one column generation per (fixture, labelling, nc)
serves every k. The grouping-free values hold under every labelling, and
the objective never rises with k; the solver's other answers do not hold
yet, since the sptg grouping breaks ties by node id and always forms
min(nc, pairs) groups, and `lp_bound` is relative to that grouping.
"""

import functools
import random

import pytest

from conftest import with_k, with_nc
from scmap import baselines, engine
from scmap.fixturedata import cost239_files, nsfnet_files
from scmap.netmodel import DemandSet, ProblemInstance, Topology, load_instance
from scmap.sptg import partition_all

FIXTURES = {"nsfnet": nsfnet_files, "cost239": cost239_files}
LABELLINGS = (0, 1, 2, 3)  # 0 keeps the fixture's own ids
NC_GRID = list(range(1, 21)) + [24, 28, 34]
KS = {"nsfnet": (1, 2, 3, 5, 14), "cost239": (1, 2, 3, 5, 11)}  # the last is |NFV|


def relabelled(instance, seed):
    """`instance` with its node ids permuted by `random.Random(seed).shuffle`,
    applied to the node list, the link ends and the demand ends; every list
    keeps its order."""
    topo = instance.topology
    ids = topo.node_ids
    shuffled = list(ids)
    random.Random(seed).shuffle(shuffled)
    name = dict(zip(ids, shuffled))
    nodes = [n._replace(id=name[n.id]) for n in topo.nodes]
    arcs = [a._replace(src=name[a.src], dst=name[a.dst]) for a in topo.arcs]
    records = [r._replace(src=name[r.src], dst=name[r.dst]) for r in instance.demands.records]
    return ProblemInstance(
        Topology(topo.name, nodes, arcs),
        instance.vnfs,
        instance.chains,
        DemandSet(records),
        k=instance.k,
        nc=dict(instance.nc),
    )


@functools.cache
def bundled(which, seed):
    """The bundled fixture at k = |NFV| and nc 1, under labelling `seed`."""
    base = load_instance(*FIXTURES[which](), k=None, nc=1)
    return relabelled(base, seed) if seed else base


@functools.cache
def master(which, seed, nc):
    """The instance at nc under labelling `seed`, and its converged master,
    which serves every k of the cell as a sweep's does."""
    inst = with_nc(bundled(which, seed), nc)
    return inst, engine.run_column_generation(inst, partition_all(inst))[0]


@functools.cache
def plan(which, seed, nc, k):
    """The plan at (nc, k) under labelling `seed`, as a sweep solves it."""
    inst, model = master(which, seed, nc)
    return engine.extract_plan(with_k(inst, k), model)


def cell(which, nc, k):
    """The fixture's own labelling at (nc, k)."""
    return with_k(with_nc(bundled(which, 0), nc), k)


def rises_in_nc(which, k):
    """(nc, objective, the least objective at a smaller nc) wherever the
    objective at k rises above one a smaller nc reached."""
    objectives = [plan(which, 0, nc, k).objective_gbps_hops for nc in NC_GRID]
    return [
        (nc, got, min(objectives[:i]))
        for i, (nc, got) in enumerate(zip(NC_GRID, objectives))
        if i and got > min(objectives[:i])
    ]


@pytest.mark.parametrize("which, lb, single", [("nsfnet", 390.0, 624.0), ("cost239", 194.0, 320.0)])
def test_grouping_free_values_ignore_the_labels(which, lb, single):
    for seed in LABELLINGS:
        inst = bundled(which, seed)
        assert baselines.shortest_path_lb(inst) == lb, seed
        assert baselines.single_node_oracle(inst)[1] == single, seed


def test_every_labelling_plans_validly():
    # the hard half of the check below: each labelling's plan is a plan
    for seed in LABELLINGS:
        inst = with_nc(bundled("nsfnet", seed), 2)
        assert engine.validate_plan(inst, plan("nsfnet", seed, 2, 14)) == [], seed


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP items 2 and 17: the sptg grouping breaks ties by node id, "
    "so NSFNET nc2 k14 reads 568 / 534 / 624 / 624 under labellings 0..3",
)
def test_nsfnet_objective_ignores_the_labels():
    objectives = [plan("nsfnet", seed, 2, 14).objective_gbps_hops for seed in LABELLINGS]
    assert len(set(objectives)) == 1, objectives


def test_a_plan_at_nc4_is_a_plan_at_nc5():
    # nc is an upper limit: NSFNET's nc4 k2 plan validates at nc5
    assert engine.validate_plan(cell("nsfnet", 5, 2), plan("nsfnet", 0, 4, 2)) == []


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP items 2 and 17: sptg always forms min(nc, pairs) groups, "
    "so NSFNET k2 reads 544 at nc4 but 545 at nc5",
)
def test_nsfnet_objective_is_monotone_in_nc():
    worse = rises_in_nc("nsfnet", 2)
    assert not worse, worse


@pytest.mark.parametrize("which", FIXTURES)
def test_objective_is_monotone_in_k(which):
    # k is an upper limit, and every k of a cell selects over one pool
    for nc in NC_GRID:
        objectives = [plan(which, 0, nc, k).objective_gbps_hops for k in KS[which]]
        assert objectives == sorted(objectives, reverse=True), (nc, objectives)


def test_a_cost239_plan_at_nc4_is_a_plan_at_nc5():
    # the plan that beats COST239's nc5 k2 plan below is valid at nc5
    assert engine.validate_plan(cell("cost239", 5, 2), plan("cost239", 0, 4, 2)) == []


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP items 2 and 17: sptg always forms min(nc, pairs) groups, "
    "so COST239 k2 reads 260 at nc4 but 267 at nc5 and 261 at nc8",
)
def test_cost239_objective_is_monotone_in_nc():
    worse = rises_in_nc("cost239", 2)
    assert not worse, worse


def test_a_cost239_plan_at_nc16_is_a_plan_at_nc17():
    # the plan that beats COST239's nc17 lp_bound below is valid at nc17
    assert engine.validate_plan(cell("cost239", 17, 11), plan("cost239", 0, 16, 11)) == []


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP items 2 and 17: lp_bound is relative to the sptg grouping, "
    "so COST239 nc17 k11 reads 198 at gap 0 while nc16's plan of 197 is valid there",
)
def test_lp_bound_is_below_every_valid_plan():
    # a plan at (nc', k') with nc' <= nc and k' <= k is a plan at (nc, k)
    above = []
    for which, ks in KS.items():
        for j, nc in enumerate(NC_GRID):
            for i, k in enumerate(ks):
                best = min(
                    plan(which, 0, c, b).objective_gbps_hops
                    for c in NC_GRID[: j + 1]
                    for b in ks[: i + 1]
                )
                bound = plan(which, 0, nc, k).lp_bound
                if bound > best + 1e-9:
                    above.append((which, nc, k, bound, best))
    assert not above, above
