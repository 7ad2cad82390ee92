import json
import math
from pathlib import Path

import pytest
from conftest import build_instance, save_instance

from scmap import baselines, cli, engine, netmodel
from scmap.fixturedata import nsfnet_files, triangle_files


@pytest.fixture()
def triangle_flags():
    topo, chains, demands = [str(p) for p in triangle_files()]
    return ["--topology", topo, "--chains", chains, "--demands", demands]


def run(argv):
    return cli.main(argv)


def nsfnet_at_cores(tmp_path, cores):
    """Instance flags for NSFNET with every node at `cores` cores: its 182
    pairs x 3 VNFs x 1 core/Gbps need 546 cores, and at 30 cores the 14
    nodes have 420."""
    topo, chains, demands = nsfnet_files()
    doc = json.loads(topo.read_text())
    for node in doc["nodes"]:
        node["cores"] = cores
    starved = tmp_path / f"nsfnet{cores}.topology.json"
    starved.write_text(json.dumps(doc))
    return ["--topology", str(starved), "--chains", str(chains), "--demands", str(demands)]


def nsfnet_at_links(tmp_path, name, gbps):
    """Instance flags for NSFNET with each link at `gbps(link)` Gbps."""
    topo, chains, demands = nsfnet_files()
    doc = json.loads(topo.read_text())
    for link in doc["links"]:
        link["capacity_gbps"] = gbps(link)
    edited = tmp_path / f"{name}.topology.json"
    edited.write_text(json.dumps(doc))
    return ["--topology", str(edited), "--chains", str(chains), "--demands", str(demands)]


@pytest.fixture()
def hop_table_builds(monkeypatch):
    """Topology names, one per hop table built from here on."""
    built = []
    build = netmodel.shortest_path_weighted

    def counted(topology, weights):
        built.append(topology.name)
        return build(topology, weights)

    monkeypatch.setattr(netmodel, "shortest_path_weighted", counted)
    return built


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--nc", "1", "--k", "3"],
        ["sweep", "--nc-list", "1,4", "--k-list", "1,3"],
        ["lowerbound"],
        ["lowerbound", "--k", "2"],
    ],
    ids=["solve", "sweep", "lowerbound", "lowerbound-k"],
)
def test_hop_table_is_built_once(argv, triangle_flags, tmp_path, hop_table_builds):
    out = [] if argv[0] == "lowerbound" else ["--out", str(tmp_path / "out")]
    assert run([*argv, *triangle_flags, *out]) == 0
    assert len(hop_table_builds) == 1


def test_solve_and_baselines_reuse_the_hop_table(hop_table_builds):
    # a non-NFV middle node sends the per-pair value through engine.solve
    inst = build_instance(["a", "b", "c"], [("a", "b"), ("b", "c")], [("a", "c")],
                          nfv=["a", "c"])
    assert len(hop_table_builds) == 1
    engine.solve(inst)
    assert baselines.per_pair(inst)[1]
    baselines.single_node_oracle(inst)
    baselines.shortest_path_lb(inst)
    assert len(hop_table_builds) == 1


class TestParseNc:
    def test_bare_integer(self):
        assert cli.parse_nc("7") == 7

    def test_per_chain(self):
        assert cli.parse_nc("web=2,voip=4") == {"web": 2, "voip": 4}

    def test_rejects_garbage(self):
        with pytest.raises(cli.CliError):
            cli.parse_nc("seven")
        with pytest.raises(cli.CliError):
            cli.parse_nc("web=two")
        with pytest.raises(cli.CliError):
            cli.parse_nc("=3")


class TestSolve:
    def test_writes_plan_and_summary(self, triangle_flags, tmp_path, capsys):
        out = tmp_path / "plan.json"
        trace = tmp_path / "trace.csv"
        code = run(
            ["solve", *triangle_flags, "--nc", "1", "--k", "3",
             "--out", str(out), "--trace", str(trace)]
        )
        assert code == 0
        assert "objective=8.000000" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["objective_gbps_hops"] == pytest.approx(8.0)
        lines = trace.read_text().splitlines()
        assert lines[0] == "iter,objective,columns_added,best_rc,wall_ms,lp_iters,relaxation"

    def test_emitted_plan_validates(self, triangle_flags, tmp_path, capsys):
        out = tmp_path / "plan.json"
        assert run(["solve", *triangle_flags, "--nc", "2", "--k", "2",
                    "--out", str(out)]) == 0
        assert run(["validate", *triangle_flags, "--nc", "2", "--k", "2",
                    "--plan", str(out)]) == 0
        assert "plan ok" in capsys.readouterr().out

    def test_k_zero_is_input_error(self, triangle_flags, tmp_path):
        code = run(["solve", *triangle_flags, "--nc", "1", "--k", "0",
                    "--out", str(tmp_path / "p.json")])
        assert code == 1

    def test_missing_file_is_input_error(self, tmp_path):
        code = run(
            ["solve", "--topology", str(tmp_path / "nope.json"),
             "--chains", str(tmp_path / "nope.json"),
             "--demands", str(tmp_path / "nope.json"),
             "--k", "1", "--out", str(tmp_path / "p.json")]
        )
        assert code == 1

    def test_colocation_cut_exits_2_and_names_itself(self, tmp_path, capsys):
        topo, chains, demands = nsfnet_files()
        doc = json.loads(topo.read_text())
        for link in doc["links"]:
            link["capacity_gbps"] = 40
        links40 = tmp_path / "links40.topology.json"
        links40.write_text(json.dumps(doc))
        code = run(["solve", "--topology", str(links40), "--chains", str(chains),
                    "--demands", str(demands), "--nc", "1", "--k", "14",
                    "--out", str(tmp_path / "p.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "infeasible: chain instance sc3/0" in err and "must be co-located" in err

    def test_infinite_link_capacity_exits_1(self, tmp_path, capsys):
        # one link at inf (JSON's 1e999 reads as inf) beside 30 Gbps ones
        # would get an arc-flow master, whose rows cannot hold an infinite
        # bound: bad input, refused at load with the link named
        flags = nsfnet_at_links(
            tmp_path, "inf", lambda link: math.inf if (link["a"], link["b"]) == ("01", "02") else 30
        )
        code = run(["solve", *flags, "--nc", "4", "--k", "14", "--out", str(tmp_path / "p.json")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: arc ('01', '02') capacity must be positive and finite\n"
        )

    @pytest.mark.parametrize("gbps", ["inf", "1e999"])
    def test_infinite_demand_exits_1(self, gbps, triangle_flags, tmp_path, capsys):
        # an infinite demand is bad input, not a proof that no plan exists
        flags = dict(zip(triangle_flags[::2], triangle_flags[1::2]))
        rows = Path(flags["--demands"]).read_text().splitlines()
        rows[1] = ",".join(rows[1].split(",")[:3] + [gbps])
        demands = tmp_path / "inf.demands.csv"
        demands.write_text("\n".join(rows) + "\n")
        flags["--demands"] = str(demands)
        argv = [x for pair in flags.items() for x in pair]
        code = run(["solve", *argv, "--nc", "1", "--k", "3", "--out", str(tmp_path / "p.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: demand ") and "gbps must be positive and finite" in err, err

    def test_infeasible_maps_to_exit_2(self, tmp_path):
        inst = build_instance(
            ["a", "b", "c"], [("a", "b"), ("b", "c")], [("a", "c", 1.0)],
            capacity=0.5,
        )
        paths = save_instance(inst, tmp_path)
        code = run(
            ["solve", "--topology", str(paths["topology"]),
             "--chains", str(paths["chains"]),
             "--demands", str(paths["demands"]),
             "--k", "3", "--out", str(tmp_path / "p.json")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "demands, hints",
        [
            (
                [("a", "c"), ("b", "c")],
                ["demand entering c totals 2 Gbps but its incoming arcs ['b->c'] "
                 "provide 1.5"],
            ),
            (
                [("a", "c"), ("b", "c"), ("c", "a"), ("c", "b")],
                ["demand leaving c totals 2 Gbps but its outgoing arcs ['c->b'] "
                 "provide 1.5",
                 "demand entering c totals 2 Gbps but its incoming arcs ['b->c'] "
                 "provide 1.5"],
            ),
        ],
        ids=["entering", "leaving-then-entering"],
    )
    def test_node_cut_hints_are_pinned(self, demands, hints, tmp_path, capsys):
        # path a-b-c at 1.5 Gbps a link, 1 Gbps a demand: two demands into
        # (or out of) c need more than its one link carries
        inst = build_instance(["a", "b", "c"], [("a", "b"), ("b", "c")], demands,
                              capacity=1.5)
        assert engine.diagnose_infeasibility(inst) == hints
        paths = save_instance(inst, tmp_path)
        code = run(
            ["solve", "--topology", str(paths["topology"]),
             "--chains", str(paths["chains"]),
             "--demands", str(paths["demands"]),
             "--k", "3", "--out", str(tmp_path / "p.json")]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "infeasible: no plan exists: " + "; ".join(hints) + "\n"
        )


class TestValidate:
    def corrupt(self, path, mutate):
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))

    @pytest.mark.parametrize(
        "mutate, code, message",
        [
            (
                lambda doc: doc["instances"][0]["segments"].append(["a", "pluto"]),
                1,
                "c1/0 segment 0: unknown node 'pluto'",
            ),
            (
                lambda doc: doc["instances"][0]["pairs"][0].update(src="pluto"),
                1,
                "c1/0: unknown demand node 'pluto'",
            ),
            (
                lambda doc: doc["instances"][0]["pairs"][0].update(dst="pluto"),
                1,
                "c1/0: unknown demand node 'pluto'",
            ),
            (
                lambda doc: doc["arc_loads"].update({"a>pluto": 1.0}),
                1,
                "arc_loads: unknown node 'pluto'",
            ),
            (
                lambda doc: doc["nodes"].update(pluto={"cores_used": 0.0, "hosts_vnfs": False}),
                1,
                "nodes: unknown node 'pluto'",
            ),
            (
                lambda doc: doc["instances"][0].update(chain="nope"),
                3,
                "coverage: nope/0: unknown chain",
            ),
            (
                # the triangle has an arc between every two nodes, but none
                # from a node to itself
                lambda doc: doc["arc_loads"].update({"a>a": 1.0}),
                3,
                "arc_load_mismatch: stored load names unknown arc",
            ),
        ],
        ids=[
            "segment-node", "pair-src", "pair-dst", "arc-load-node", "nodes-key",
            "unknown-chain", "arcless-load",
        ],
    )
    def test_corrupted_plan(self, mutate, code, message, triangle_flags, tmp_path, capsys):
        out = tmp_path / "plan.json"
        assert run(["solve", *triangle_flags, "--nc", "1", "--k", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        self.corrupt(out, mutate)
        assert run(["validate", *triangle_flags, "--nc", "1", "--k", "3",
                    "--plan", str(out)]) == code
        captured = capsys.readouterr()
        assert message in (captured.err if code == 1 else captured.out)

    @pytest.fixture(scope="class")
    def nsfnet_plan(self, tmp_path_factory):
        """Flags for bundled NSFNET at nc=4, k=14, and its solved plan's text."""
        flags = ["--topology", "--chains", "--demands"]
        flags = [x for pair in zip(flags, map(str, nsfnet_files())) for x in pair]
        out = tmp_path_factory.mktemp("nsfnet") / "nc4.json"
        assert run(["solve", *flags, "--nc", "4", "--k", "14", "--out", str(out)]) == 0
        return [*flags, "--nc", "4", "--k", "14"], out.read_text()

    @pytest.mark.parametrize(
        "mutate, line",
        [
            (
                lambda doc: doc.update(objective_gbps_hops=float("nan")),
                "objective_mismatch: stored nan, recomputed 494.0",
            ),
            (
                lambda doc: doc["arc_loads"].update({"01>02": float("nan")}),
                "arc_load_mismatch: arc 01->02: stored nan, recomputed 5.0",
            ),
            (
                lambda doc: doc["nodes"]["04"].update(cores_used=12345),
                "node_cores_mismatch: node 04: stored 12345.0, recomputed 180.0",
            ),
            (
                lambda doc: [node.update(hosts_vnfs=False) for node in doc["nodes"].values()],
                "hosting_mismatch: node 04 hosts VNFs but is not stored as hosting",
            ),
        ],
        ids=["nan-objective", "nan-arc-load", "raised-cores", "no-hosting"],
    )
    def test_stored_number_against_routes_exits_3(
        self, mutate, line, nsfnet_plan, tmp_path, capsys
    ):
        flags, text = nsfnet_plan
        out = tmp_path / "plan.json"
        out.write_text(text)
        self.corrupt(out, mutate)
        capsys.readouterr()
        assert run(["validate", *flags, "--plan", str(out)]) == 3
        assert line in capsys.readouterr().out.splitlines()

    def test_tampered_load_exits_3(self, triangle_flags, tmp_path, capsys):
        out = tmp_path / "plan.json"
        run(["solve", *triangle_flags, "--nc", "1", "--k", "3", "--out", str(out)])

        def hike(doc):
            key = sorted(doc["arc_loads"])[0]
            doc["arc_loads"][key] = 99999.0

        self.corrupt(out, hike)
        code = run(["validate", *triangle_flags, "--nc", "1", "--k", "3",
                    "--plan", str(out)])
        assert code == 3
        assert "capacity" in capsys.readouterr().out

    def test_unknown_node_exits_1(self, triangle_flags, tmp_path):
        out = tmp_path / "plan.json"
        run(["solve", *triangle_flags, "--nc", "1", "--k", "3", "--out", str(out)])

        def relocate(doc):
            doc["instances"][0]["locations"][0] = "pluto"

        self.corrupt(out, relocate)
        code = run(["validate", *triangle_flags, "--nc", "1", "--k", "3",
                    "--plan", str(out)])
        assert code == 1

    def test_plan_above_nc_exits_3(self, tmp_path, capsys):
        # the NSFNET nc34 plan (34 instances, objective 390) is valid at
        # nc=34 but not at nc=4, where the solver's own plan is 494
        flags = ["--topology", "--chains", "--demands"]
        flags = [x for pair in zip(flags, map(str, nsfnet_files())) for x in pair]
        out = tmp_path / "nc34.json"
        assert run(["solve", *flags, "--nc", "34", "--k", "14", "--out", str(out)]) == 0
        capsys.readouterr()
        assert run(["validate", *flags, "--nc", "34", "--k", "14", "--plan", str(out)]) == 0
        assert run(["validate", *flags, "--nc", "4", "--k", "14", "--plan", str(out)]) == 3
        assert capsys.readouterr().out.splitlines()[1:] == [
            "instance_count: chain sc3: 34 instances, nc=4"
        ]

    def test_missing_plan_exits_1(self, triangle_flags, tmp_path):
        code = run(["validate", *triangle_flags, "--nc", "1", "--k", "3",
                    "--plan", str(tmp_path / "void.json")])
        assert code == 1


class TestLowerbound:
    def test_triangle_values(self, triangle_flags, capsys):
        assert run(["lowerbound", *triangle_flags]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "shortest_path_lb 6.000000"
        assert out[1] == "single_node a 8.000000"
        assert out[2] == "per_pair 6.000000"

    def test_infeasible_fallback_still_prints_bounds(self, tmp_path, capsys):
        # no single node fits, the per-pair construction does not fit and no
        # plan exists
        assert run(["lowerbound", *nsfnet_at_cores(tmp_path, 30)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "shortest_path_lb 390.000000",
            "single_node none: no node fits every demand",
            "per_pair none engine: no plan relative to the demand grouping",
        ]

    def test_single_node_skips_a_winner_whose_links_overflow(self, tmp_path, capsys, caplog):
        # 06 ranks first (624), but its links at 30 Gbps cannot carry every
        # demand to and from it; the per-pair routes still fit
        flags = nsfnet_at_links(
            tmp_path, "links06", lambda link: 30 if "06" in (link["a"], link["b"]) else 1000
        )
        assert run(["lowerbound", *flags]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "shortest_path_lb 390.000000",
            "single_node 09 676.000000",
            "per_pair 390.000000",
        ]
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == [
            "single-node oracle: 06 (624) does not fit the capacities or cores, "
            "reporting 09 (676)"
        ]

    def test_no_placement_fits_12_gbps_links(self, tmp_path, capsys):
        # neither reference fits, and the engine finds no plan either
        assert run(["lowerbound", *nsfnet_at_links(tmp_path, "links12", lambda _: 12)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "shortest_path_lb 390.000000",
            "single_node none: no node fits every demand",
            "per_pair none engine: no plan relative to the demand grouping",
        ]


class TestSweep:
    def test_k1_rows_share_the_objective(self, triangle_flags, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(["sweep", *triangle_flags, "--nc-list", "1,2,4",
                    "--k-list", "1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == cli.SWEEP_HEADER
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 3
        assert all(r[2] == "ok" for r in rows)
        objectives = {r[3] for r in rows}
        assert objectives == {"8.000000"}
        # reference columns repeat the instance-level constants
        assert all(r[10] == "6.000000" and r[11] == "8.000000" for r in rows)

    def test_rerun_identical_except_wall_ms(self, triangle_flags, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(["sweep", *triangle_flags, "--nc-list", "1,2",
                        "--k-list", "1,2", "--out", str(out)]) == 0

        def strip_wall(text):
            rows = [line.split(",") for line in text.splitlines()]
            for r in rows[1:]:
                r[9] = "_"
            return rows

        assert strip_wall(a.read_text()) == strip_wall(b.read_text())

    def test_k_list_bounds_checked(self, triangle_flags, tmp_path):
        code = run(["sweep", *triangle_flags, "--nc-list", "1",
                    "--k-list", "9", "--out", str(tmp_path / "s.csv")])
        assert code == 1

    def test_bad_list_is_input_error(self, triangle_flags, tmp_path):
        code = run(["sweep", *triangle_flags, "--nc-list", "one,two",
                    "--k-list", "1", "--out", str(tmp_path / "s.csv")])
        assert code == 1

    @pytest.mark.parametrize(
        "nc_list, k_list, message",
        [
            ("0", "1", "--nc-list value 0 must be >= 1"),
            ("1", ",", "--k-list must not be empty"),
        ],
        ids=["nc-zero", "k-empty"],
    )
    def test_list_values_checked(self, nc_list, k_list, message, triangle_flags, tmp_path,
                                 capsys):
        code = run(["sweep", *triangle_flags, "--nc-list", nc_list,
                    "--k-list", k_list, "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert message in capsys.readouterr().err

    def test_one_row_per_cell(self, triangle_flags, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["sweep", *triangle_flags, "--nc-list", "1,2",
                    "--k-list", "1", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3

    def test_reference_columns_need_no_solve(self, tmp_path, monkeypatch):
        # every node at 30 cores: the per-pair baseline would need a solve,
        # which is infeasible here; the sweep writes only the closed-form
        # columns, so it must never solve, and its one cell is infeasible
        def no_solve(*args, **kwargs):
            raise AssertionError("sweep called engine.solve")

        monkeypatch.setattr(engine, "solve", no_solve)
        out = tmp_path / "s.csv"
        code = run(["sweep", *nsfnet_at_cores(tmp_path, 30), "--nc-list", "14",
                    "--k-list", "14", "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [r[2] for r in rows] == ["infeasible"]

    def test_cut_certified_cell_is_infeasible(self, tmp_path):
        # column generation itself proves nc=1 infeasible (too few cores in
        # all), so the cell is "infeasible", not "error"; no node fits every
        # demand, so the single-node column stays empty
        out = tmp_path / "s.csv"
        code = run(["sweep", *nsfnet_at_cores(tmp_path, 30), "--nc-list", "1",
                    "--k-list", "14", "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [r[:9] + r[10:] for r in rows] == [
            ["1", "14", "infeasible", "", "", "", "", "", "", "390.000000", ""]
        ]


    def test_k_aware_cut_makes_one_k_infeasible(self, tmp_path):
        # every node at 100 cores: column generation finds a plan for nc=34,
        # but the 546 cores needed do not fit on the k=2 hosting nodes, which
        # hold 200; at k=14 the relaxation point is the plan
        out = tmp_path / "s.csv"
        code = run(["sweep", *nsfnet_at_cores(tmp_path, 100), "--nc-list", "34",
                    "--k-list", "2,14", "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [r[:9] + r[10:] for r in rows] == [
            ["34", "2", "infeasible", "", "390.000000", "", "", "1", "476",
             "390.000000", ""],
            ["34", "14", "ok", "390.000000", "390.000000", "0.000000", "12", "1", "476",
             "390.000000", ""],
        ]

    def test_unwritable_report_fails_before_any_cell_is_solved(
        self, triangle_flags, tmp_path, monkeypatch, capsys
    ):
        solved = []
        monkeypatch.setattr(engine, "run_column_generation", lambda *a, **kw: solved.append(a))
        out = tmp_path / "nodir" / "s.csv"
        assert run(["sweep", *triangle_flags, "--nc-list", "1,2",
                    "--k-list", "1,2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: [Errno 2] No such file or directory: '{out}'\n"
        assert solved == [] and not out.parent.exists()

    def test_failed_column_generation_leaves_every_solve_field_blank(
        self, triangle_flags, tmp_path, monkeypatch, caplog
    ):
        # a group whose column generation fails is an "error" row for every
        # k, with only the cell's place and the reference columns filled
        def fail(*args, **kwargs):
            raise RuntimeError("pool lost")

        monkeypatch.setattr(engine, "run_column_generation", fail)
        out = tmp_path / "s.csv"
        assert run(["sweep", *triangle_flags, "--nc-list", "1,2",
                    "--k-list", "1,2", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1:] == [
            f"{nc},{k},error,,,,,,,,6.000000,8.000000" for nc in (1, 2) for k in (1, 2)
        ]
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [
            "nc=1: column generation failed: pool lost",
            "nc=2: column generation failed: pool lost",
        ]

    def test_failed_selection_keeps_its_group_fields(
        self, triangle_flags, tmp_path, monkeypatch, caplog
    ):
        # a selection that fails at one k blanks only that row's plan fields:
        # the group's bound, rounds and pool size, and its time, stay
        extract = engine.extract_plan

        def fail_at_k2(instance, model, **kwargs):
            if instance.k == 2:
                raise RuntimeError("no selection")
            return extract(instance, model, **kwargs)

        monkeypatch.setattr(engine, "extract_plan", fail_at_k2)
        out = tmp_path / "s.csv"
        assert run(["sweep", *triangle_flags, "--nc-list", "1,2",
                    "--k-list", "1,2", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert all(r[9].isdigit() for r in rows)
        assert [r[:9] + r[10:] for r in rows] == [
            ["1", "1", "ok", "8.000000", "8.000000", "0.000000", "1", "1", "3",
             "6.000000", "8.000000"],
            ["1", "2", "error", "", "8.000000", "", "", "1", "3", "6.000000", "8.000000"],
            ["2", "1", "ok", "8.000000", "7.000000", "0.125000", "1", "1", "6",
             "6.000000", "8.000000"],
            ["2", "2", "error", "", "7.000000", "", "", "1", "6", "6.000000", "8.000000"],
        ]
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == ["nc=1 k=2: no selection", "nc=2 k=2: no selection"]


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--nc", "1", "--k", "3", "--out", "p.json"],
        ["validate", "--nc", "1", "--k", "3", "--plan", "p.json"],
        ["sweep", "--nc-list", "1", "--k-list", "3", "--out", "s.csv"],
        ["lowerbound"],
    ],
    ids=["solve", "validate", "sweep", "lowerbound"],
)
def test_header_only_demands_is_input_error(argv, tmp_path, capsys, monkeypatch):
    # a demand file with its header alone has nothing to place: every
    # subcommand refuses it as bad input, before any solve
    topo, chains, _ = triangle_files()
    demands = tmp_path / "empty.demands.csv"
    demands.write_text("src,dst,chain,gbps\n")
    monkeypatch.chdir(tmp_path)
    flags = ["--topology", str(topo), "--chains", str(chains), "--demands", str(demands)]
    assert run([*argv, *flags]) == 1
    assert "error: no demand records" in capsys.readouterr().err


def add_row(field):
    """A demand-file edit: the last row with `field` appended to it."""
    return lambda text: text.rstrip("\n") + f",{field}\n"


def in_instance(**fields):
    """A plan edit: `fields` set on its first instance."""
    return lambda doc: doc["instances"][0].update(fields)


def in_pair(**fields):
    """A plan edit: `fields` set on the first pair of its first instance."""
    return lambda doc: doc["instances"][0]["pairs"][0].update(fields)


@pytest.mark.parametrize(
    "target, edit, message",
    [
        ("topology", lambda doc: doc.update(nodes=[1]), " nodes[0]: must be an object, got 1"),
        ("topology", lambda doc: doc.update(nodes=5), ": nodes must be a list, got 5"),
        ("topology", lambda doc: doc.update(links=[[]]), " links[0]: must be an object, got []"),
        ("chains", lambda doc: doc.update(vnfs=[3]), " vnfs[0]: must be an object, got 3"),
        ("chains", lambda doc: doc.update(chains={}), ": chains must be a list, got {}"),
        ("demands", add_row("9"), ":7: row must have 4 fields, src,dst,chain,gbps"),
        ("demands", lambda text: text + "a,b\n", ":8: row must have 4 fields, src,dst,chain,gbps"),
        ("plan", lambda doc: doc.update(arc_loads=[]), ": malformed plan document at arc_loads: "),
        ("plan", lambda doc: doc.update(instances=5), ": malformed plan document at instances: "),
        ("plan", lambda doc: doc.update(nodes=[]), ": malformed plan document at nodes: "),
        ("plan", lambda doc: doc.update(gap=[]), " at objective_gbps_hops, lp_bound and gap: "),
        ("plan", lambda doc: doc.update(instances={}), " at instances: TypeError('instances must"),
        ("plan", in_instance(locations="a"), "TypeError(\"c1/0 locations must be a list, got 'a'"),
        ("plan", in_instance(segments="ab"), "TypeError(\"c1/0 segments must be a list, got 'ab'"),
        ("plan", in_instance(segments=["ab"]), "TypeError(\"c1/0 segment 0 must be a list, got"),
        ("plan", in_instance(pairs={}), " at instances: TypeError('c1/0 pairs must be a list"),
        ("plan", in_pair(first_route="ba"), "TypeError(\"c1/0 a->b lead-in must be a list"),
        ("plan", in_pair(last_route="ab"), "TypeError(\"c1/0 a->b lead-out must be a list"),
    ],
    ids=[
        "nodes-of-numbers", "nodes-a-number", "links-of-lists", "vnfs-of-numbers",
        "chains-an-object", "long-demand-row", "short-demand-row", "arc-loads-a-list",
        "instances-a-number", "nodes-a-list", "gap-a-list", "instances-an-object",
        "locations-a-string", "segments-a-string", "segment-a-string", "pairs-an-object",
        "first-route-a-string", "last-route-a-string",
    ],
)
def test_input_of_the_wrong_shape_exits_1(target, edit, message, triangle_flags, tmp_path, capsys):
    # each input file read as it is written, one field of the wrong shape:
    # exit 1 with an error naming the file and the field, no traceback
    flags = dict(zip(triangle_flags[::2], triangle_flags[1::2]))
    plan = tmp_path / "plan.json"
    assert run(["solve", *triangle_flags, "--nc", "1", "--k", "3", "--out", str(plan)]) == 0
    path = plan if target == "plan" else tmp_path / f"bad.{target}"
    source = plan if target == "plan" else flags[f"--{target}"]
    text = Path(source).read_text()
    if target == "demands":
        path.write_text(edit(text))
    else:
        doc = json.loads(text)
        edit(doc)
        path.write_text(json.dumps(doc))
    if target != "plan":
        flags[f"--{target}"] = str(path)
    capsys.readouterr()
    argv = ["validate", *(x for pair in flags.items() for x in pair), "--nc", "1", "--k", "3"]
    assert run([*argv, "--plan", str(plan)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and message in err, err


class TestArgErrors:
    def test_no_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.build_parser().parse_args([])
        assert err.value.code == 1
        capsys.readouterr()

    def test_unknown_flag_exits_1(self, triangle_flags, capsys):
        with pytest.raises(SystemExit) as err:
            cli.build_parser().parse_args(["solve", *triangle_flags, "--vibes", "9"])
        assert err.value.code == 1
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_final_selection_has_no_flag(self, command, triangle_flags, capsys):
        extra = ["--k", "1"] if command == "solve" else ["--nc-list", "1", "--k-list", "1"]
        with pytest.raises(SystemExit) as err:
            cli.build_parser().parse_args(
                [command, *triangle_flags, *extra, "--out", "x", "--mode", "full"]
            )
        assert err.value.code == 1
        assert "unrecognized arguments: --mode full" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--time-limit", "inf"),
            ("--time-limit", "nan"),
            ("--time-limit", "0"),
            ("--time-limit", "-1"),
            ("--time-limit", "soon"),
            ("--max-iters", "0"),
            ("--max-iters", "-2"),
        ],
    )
    def test_limits_must_be_positive(self, command, flag, value, triangle_flags, capsys):
        # an infinite time limit would leave column generation no time at
        # all, so the selection would run over the starting columns alone
        extra = ["--k", "1"] if command == "solve" else ["--nc-list", "1", "--k-list", "1"]
        with pytest.raises(SystemExit) as err:
            cli.build_parser().parse_args(
                [command, *triangle_flags, *extra, "--out", "x", flag, value]
            )
        assert err.value.code == 1
        assert f"argument {flag}: must be" in capsys.readouterr().err
