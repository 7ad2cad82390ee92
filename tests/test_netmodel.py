import json
import math

import pytest

from scmap.fixturedata import fixture_path, triangle_files
from scmap.netmodel import (
    ArcSpec,
    DemandRecord,
    DemandSet,
    NodeSpec,
    ParseError,
    Topology,
    ValidationError,
    load_demands,
    load_instance,
    load_topology,
)

from conftest import build_instance, save_instance


def test_triangle_counts(triangle_instance):
    assert len(triangle_instance.topology.arcs) == 6
    assert len(triangle_instance.demands.records) == 6
    assert triangle_instance.topology.nfv_nodes == ["a", "b", "c"]
    assert triangle_instance.pairs_for_chain("c1") == [
        ("a", "b"), ("a", "c"), ("b", "a"), ("b", "c"), ("c", "a"), ("c", "b"),
    ]


def test_nsfnet_counts(nsfnet_instance):
    topo = nsfnet_instance.topology
    assert len(topo.nodes) == 14
    assert len(topo.arcs) == 42  # 21 undirected links
    assert len(nsfnet_instance.demands.records) == 182
    assert all(r.gbps == 1.0 for r in nsfnet_instance.demands.records)


def test_cost239_counts(cost239_instance):
    assert len(cost239_instance.topology.nodes) == 11
    assert len(cost239_instance.demands.records) == 110


def test_arcs_carry_full_capacity(triangle_instance):
    topo = triangle_instance.topology
    assert topo.capacity(("a", "b")) == topo.capacity(("b", "a")) == 1000.0


def test_self_demand_rejected():
    with pytest.raises(ValidationError, match="self-demand"):
        DemandSet([DemandRecord("a", "a", "c", 1.0)])


def test_duplicate_demand_rejected():
    recs = [DemandRecord("a", "b", "c", 1.0), DemandRecord("a", "b", "c", 2.0)]
    with pytest.raises(ValidationError, match="duplicate"):
        DemandSet(recs)


def test_demand_lookup():
    recs = [DemandRecord("a", "b", "c", 1.5), DemandRecord("b", "a", "c", 2.0),
            DemandRecord("a", "b", "d", 3.0)]
    demands = DemandSet(recs)
    assert demands.gbps == {("c", "a", "b"): 1.5, ("c", "b", "a"): 2.0, ("d", "a", "b"): 3.0}


def test_demand_gbps_unknown_pair_raises(triangle_instance):
    assert triangle_instance.demand_gbps("c1", "a", "b") == 1.0
    for key in (("c1", "a", "a"), ("c2", "a", "b"), ("c1", "a", "z")):
        with pytest.raises(KeyError) as err:
            triangle_instance.demand_gbps(*key)
        assert err.value.args == (key,)


def test_unknown_ids_rejected():
    with pytest.raises(ValidationError, match="unknown node"):
        build_instance(["a", "b"], [("a", "b")], [("a", "zz")])


def test_disconnected_topology_rejected():
    nodes = [NodeSpec(v, True, 1) for v in "abcd"]
    arcs = [ArcSpec("a", "b", 1.0), ArcSpec("b", "a", 1.0),
            ArcSpec("c", "d", 1.0), ArcSpec("d", "c", 1.0)]
    with pytest.raises(ValidationError, match="connected") as err:
        Topology("t", nodes, arcs)
    # the search toward the first node names it and the nodes that cannot reach it
    assert "no path to 'a' from ['c', 'd']" in str(err.value)


def test_nonpositive_capacity_rejected():
    nodes = [NodeSpec(v, True, 1) for v in "ab"]
    with pytest.raises(ValidationError, match="capacity"):
        Topology("t", nodes, [ArcSpec("a", "b", 0.0), ArcSpec("b", "a", 1.0)])


@pytest.mark.parametrize("cap", [math.inf, math.nan])
def test_capacity_that_is_not_finite_rejected(cap):
    nodes = [NodeSpec(v, True, 1) for v in "ab"]
    with pytest.raises(ValidationError, match=r"arc \('a', 'b'\) capacity must be positive and finite"):
        Topology("t", nodes, [ArcSpec("a", "b", cap), ArcSpec("b", "a", 1.0)])


@pytest.mark.parametrize("gbps", [math.inf, math.nan, 0.0, -1.0])
def test_demand_gbps_that_is_not_positive_and_finite_rejected(gbps):
    with pytest.raises(ValidationError, match="demand 'a'->'b' gbps must be positive and finite"):
        DemandSet([DemandRecord("a", "b", "c", gbps)])


def test_k_out_of_range():
    with pytest.raises(ValidationError, match="k="):
        build_instance(["a", "b"], [("a", "b")], [("a", "b")], k=3)


@pytest.mark.parametrize("nc", [0, -1])
def test_nc_below_one_is_rejected(nc):
    with pytest.raises(ValidationError, match="nc for chain 'c' must be >= 1"):
        build_instance(["a", "b"], [("a", "b")], [("a", "b")], nc=nc)


def test_nc_clamped_to_pair_count(caplog):
    inst = build_instance(["a", "b"], [("a", "b")], [("a", "b"), ("b", "a")], nc=9)
    assert inst.nc["c"] == 2


def test_parse_error_reports_location(tmp_path):
    bad = tmp_path / "demands.csv"
    bad.write_text("src,dst,chain,gbps\na,b,c1,notanumber\n")
    with pytest.raises(ParseError, match="demands.csv:2"):
        load_demands(bad)
    bad2 = tmp_path / "t.json"
    bad2.write_text("{ nope")
    with pytest.raises(ParseError, match="t.json:1"):
        load_topology(bad2)


@pytest.mark.parametrize(
    "row", ["a,b,c1", "a,b,c1,1,9", "a,b,c1,1,", "  "], ids=["short", "long", "empty_extra", "spaces"]
)
def test_demand_row_arity_enforced(tmp_path, row):
    bad = tmp_path / "d.csv"
    bad.write_text(f"src,dst,chain,gbps\na,c,c1,1\n{row}\n")
    with pytest.raises(ParseError) as err:
        load_demands(bad)
    assert str(err.value) == f"{bad}:3: row must have 4 fields, src,dst,chain,gbps"


def test_demand_blank_lines_skipped(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("src,dst,chain,gbps\n\na,b,c1,1\n\n\nb,a,c1,2.5\n\n")
    assert load_demands(path).records == [
        DemandRecord("a", "b", "c1", 1.0), DemandRecord("b", "a", "c1", 2.5),
    ]


def test_demand_error_names_the_file_line_after_blank_lines(tmp_path):
    bad = tmp_path / "d.csv"
    bad.write_text("src,dst,chain,gbps\n\na,b,c1,1\n\nc,d,c1,notanumber\n")
    with pytest.raises(ParseError) as err:
        load_demands(bad)
    assert str(err.value) == f"{bad}:5: gbps not a number"
    bad.write_text("src,dst,chain,gbps\n\n\na,b\n")
    with pytest.raises(ParseError, match=r"d\.csv:4: row must have 4 fields"):
        load_demands(bad)


def test_demand_quoted_field_keeps_its_comma(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text('src,dst,chain,gbps\n"a,x",b,"c1",1\r\n')
    assert load_demands(path).records == [DemandRecord("a,x", "b", "c1", 1.0)]


def test_demand_header_only_file_has_no_records(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("src,dst,chain,gbps\n")
    assert load_demands(path).records == []
    for text in ("", "\nsrc,dst,chain,gbps\na,b,c1,1\n", "src,dst,chain\n"):
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            load_demands(path)
        assert str(err.value) == f"{path}: header must be src,dst,chain,gbps"


def test_demands_header_enforced(tmp_path):
    bad = tmp_path / "d.csv"
    bad.write_text("source,dst,chain,gbps\na,b,c1,1\n")
    with pytest.raises(ParseError, match="header"):
        load_demands(bad)


def test_missing_field_named(tmp_path):
    bad = tmp_path / "topo.json"
    bad.write_text('{"name": "x", "nodes": [{"nfv": true}], "links": []}')
    with pytest.raises(ParseError, match="missing field 'id'"):
        load_topology(bad)


@pytest.mark.parametrize(
    "target, field, value, error",
    [
        ("topology", "cores", "many", ParseError),
        ("topology", "cores", 2.5, ParseError),
        ("topology", "nfv", "false", ParseError),
        ("topology", "nfv", 1, ParseError),
        ("chains", "cores_per_gbps", "x", ParseError),
        ("chains", "cores_per_gbps", "nan", ValidationError),
        ("chains", "cores_per_gbps", "inf", ValidationError),
    ],
)
def test_bad_numeric_field_is_an_input_error(tmp_path, target, field, value, error):
    files = dict(zip(("topology", "chains", "demands"), triangle_files()))
    doc = json.loads(files[target].read_text())
    doc["nodes" if target == "topology" else "vnfs"][0][field] = value
    files[target] = tmp_path / files[target].name
    files[target].write_text(json.dumps(doc))
    with pytest.raises(error, match=field):
        load_instance(files["topology"], files["chains"], files["demands"], k=1, nc=1)


def test_roundtrip(tmp_path, nsfnet_instance):
    paths = save_instance(nsfnet_instance, tmp_path)
    again = load_instance(
        paths["topology"], paths["chains"], paths["demands"], k=14, nc=1
    )
    assert again.topology.nodes == nsfnet_instance.topology.nodes
    assert again.topology.arcs == nsfnet_instance.topology.arcs
    assert again.demands.records == nsfnet_instance.demands.records
    assert again.vnfs == nsfnet_instance.vnfs
    assert again.chains == nsfnet_instance.chains


def test_chain_core_lookup(triangle_instance):
    assert triangle_instance.chain_cores_per_gbps("c2") == [1.0, 2.0]


def test_fixture_paths_exist():
    for name in ("nsfnet.topology.json", "chain3.chains.json", "nsfnet_mesh.demands.csv"):
        assert fixture_path(name).exists()
    with pytest.raises(FileNotFoundError):
        fixture_path("never.json")
