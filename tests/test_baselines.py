import random

import pytest
from conftest import build_instance, random_connected_instance

from scmap.baselines import per_pair, shortest_path_lb, single_node_oracle
from scmap.netmodel import (
    ArcSpec,
    ChainSpec,
    DemandRecord,
    DemandSet,
    NodeSpec,
    ProblemInstance,
    Topology,
    VnfSpec,
)


class TestShortestPathLb:
    def test_triangle(self, triangle_instance):
        assert shortest_path_lb(triangle_instance) == pytest.approx(6.0)

    def test_path_graph_single_demand(self):
        inst = build_instance(
            ["a", "b", "c", "d", "e"],
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")],
            [("a", "e")],
        )
        assert shortest_path_lb(inst) == pytest.approx(4.0)

    def test_nsfnet_frozen(self, nsfnet_instance):
        assert shortest_path_lb(nsfnet_instance) == pytest.approx(390.0)

    def test_cost239_frozen(self, cost239_instance):
        assert shortest_path_lb(cost239_instance) == pytest.approx(194.0)


class TestSingleNodeOracle:
    def test_triangle(self, triangle_instance):
        node, value = single_node_oracle(triangle_instance)
        assert value == pytest.approx(8.0)
        assert node == "a"  # all three tie; lexicographic pick

    def test_star_hub_wins(self):
        inst = build_instance(
            ["hub", "l1", "l2", "l3", "l4"],
            [("hub", "l1"), ("hub", "l2"), ("hub", "l3"), ("hub", "l4")],
            [
                (a, b)
                for a in ("l1", "l2", "l3", "l4")
                for b in ("l1", "l2", "l3", "l4")
                if a != b
            ],
        )
        node, _ = single_node_oracle(inst)
        assert node == "hub"

    def test_nsfnet_frozen(self, nsfnet_instance):
        assert single_node_oracle(nsfnet_instance) == ("06", pytest.approx(624.0))

    def test_core_starved_argmin_skipped(self):
        nodes = [
            NodeSpec("a", True, 1),  # too few cores for 2 Gbps of demand
            NodeSpec("b", True, 100),
            NodeSpec("c", True, 100),
        ]
        arcs = []
        for u, w in (("a", "b"), ("b", "c")):
            arcs.append(ArcSpec(u, w, 1000.0))
            arcs.append(ArcSpec(w, u, 1000.0))
        inst = ProblemInstance(
            Topology("line", nodes, arcs),
            {"fw": VnfSpec("fw", 1.0)},
            {"c": ChainSpec("c", ("fw",))},
            DemandSet(
                [DemandRecord("a", "c", "c", 1.0), DemandRecord("c", "a", "c", 1.0)]
            ),
            k=3,
            nc={"c": 1},
        )
        node, value = single_node_oracle(inst)
        # a, b, c all score 4.0; a is starved, so the next id wins
        assert node == "b"
        assert value == pytest.approx(4.0)


    def test_none_when_no_node_fits(self):
        # 2 Gbps of one-VNF demand need 2 cores on the hosting node, and
        # every node has 1
        inst = build_instance(
            ["a", "b", "c"], [("a", "b"), ("b", "c")], [("a", "c"), ("c", "a")], cores=1
        )
        assert single_node_oracle(inst) == (None, None)


class TestPerPair:
    def test_equals_lb_when_applicable(self, triangle_instance):
        assert per_pair(triangle_instance)[0] == pytest.approx(6.0)

    def test_fallback_flagged_with_non_nfv_node(self):
        inst = build_instance(
            ["a", "b", "c"],
            [("a", "b"), ("b", "c")],
            [("a", "c")],
            nfv=["a", "c"],
        )
        value, from_engine = per_pair(inst)
        assert from_engine
        assert value >= shortest_path_lb(inst) - 1e-9

    def test_not_flagged_on_fixtures(self, nsfnet_instance, cost239_instance):
        for inst in (nsfnet_instance, cost239_instance):
            value, from_engine = per_pair(inst)
            assert not from_engine
            assert value == pytest.approx(shortest_path_lb(inst))


class TestReportInvariants:
    def test_ordering_on_fixtures(
        self, triangle_instance, nsfnet_instance, cost239_instance
    ):
        for inst in (triangle_instance, nsfnet_instance, cost239_instance):
            assert (
                shortest_path_lb(inst) - 1e-9
                <= per_pair(inst)[0]
                <= single_node_oracle(inst)[1] + 1e-9
            )

    def test_ordering_on_random_instances(self):
        rng = random.Random(31337)
        for _ in range(20):
            inst = random_connected_instance(rng)
            lb = shortest_path_lb(inst)
            value, from_engine = per_pair(inst)
            assert not from_engine
            assert value == pytest.approx(lb)
            assert single_node_oracle(inst)[1] >= lb - 1e-9
