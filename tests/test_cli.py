from __future__ import annotations

import hashlib
import json

import pytest

from dualcast.cli import (
    dump_plan,
    export_dot,
    load_network_file,
    load_plan_file,
    main,
    network_from_dict,
    plan_from_dict,
    plan_to_dict,
)
from dualcast.errors import InputError
from dualcast.fixtures import fig2_network, fig2_path
from dualcast.nccode import coding_vectors
from dualcast.netgraph import Demand
from dualcast.planner import synthesize, verify_plan

from conftest import wide_network
from oracles import network_to_dict, structurally_equal

FIG2 = str(fig2_path())

# Four nodes with cycles through the source and between the terminals: for
# (2, 0, 0), coding on the union of the residual paths to each terminal and
# mixing every in-edge there would close a cycle; the path families do not.
SWAP = {
    "nodes": ["v0", "v1", "v2", "v3"],
    "edges": [
        {"from": "v3", "to": "v0"},
        {"from": "v1", "to": "v3"},
        {"from": "v1", "to": "v0"},
        {"from": "v3", "to": "v2"},
        {"from": "v2", "to": "v3"},
        {"from": "v1", "to": "v2"},
        {"from": "v0", "to": "v1", "cap": 2},
    ],
    "source": "v0",
    "terminals": ["v2", "v3"],
}


WIDE = wide_network()

# sha256 of the version-1 files of the three pinned plans, which also stored
# every coded edge's global coding vector.
V1_DIGESTS = {
    "fig2-8": "981e743f9e3af5af67deef7b09b7b9546a289c07fe6460a854f2a5108be0b759",
    "fig2-16": "1c52eb09bfc4889b131a13b86c8f3873927fd7bceec5fe609d0747e602a9e261",
    "wide-16": "b55f0b4eb4fab69eec48d873e1507bf85d2fcda6a231e85e3470fa2d880496e7",
}


def _as_version_1(plan) -> str:
    """The plan file as version 1 wrote it: version 2 plus the computed coding vectors."""
    code = plan.multicast
    vectors = coding_vectors(code.field, code.support, code.local_coeffs, code.h0)
    doc = plan_to_dict(plan)
    doc["version"] = 1
    doc["coding_vectors"] = {str(eid): [f"0x{c:02X}" for c in v] for eid, v in vectors.items()}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.fixture
def plan_file(tmp_path):
    path = tmp_path / "plan.json"
    code = main(["synthesize", FIG2, "--h0", "2", "--h1", "1", "--h2", "1",
                 "--seed", "7", "-o", str(path)])
    assert code == 0
    return path


class TestNetworkFormat:
    def test_round_trip_is_structurally_identical(self, fig2):
        doc = network_to_dict(fig2)
        again = network_from_dict(doc)
        assert structurally_equal(fig2, again)

    def test_capacities_expand_on_load(self, tmp_path):
        doc = {
            "nodes": ["s", "t1", "t2"],
            "edges": [{"from": "s", "to": "t1", "cap": 3}, {"from": "s", "to": "t2"}],
            "source": "s",
            "terminals": ["t1", "t2"],
        }
        net = network_from_dict(doc)
        assert len(net.edges) == 4
        back = network_to_dict(net)
        assert back["edges"] == [
            {"from": "s", "to": "t1", "cap": 3},
            {"from": "s", "to": "t2", "cap": 1},
        ]

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda d: d.pop("source"), "missing key"),
            (lambda d: d["edges"].append({"from": "s", "to": "zz"}), "unknown node"),
            (lambda d: d["edges"].append({"from": "s", "to": "t1", "cap": 0}), "positive"),
            (lambda d: d["edges"].append({"from": "s", "to": "t1", "cap": True}), "positive"),
            (lambda d: d["nodes"].append("__x"), "reserved"),
            (lambda d: d.__setitem__("terminals", ["t1"]), "pair"),
            (lambda d: d.__setitem__("edges", 5), "edges must be a list"),
            (lambda d: d.__setitem__("source", ["s"]), "is not a declared node"),
            (lambda d: d["terminals"].__setitem__(1, {}), "is not a declared node"),
            (lambda d: d["edges"][0].__setitem__("from", ["s"]), "unknown node"),
            # A misspelt key would otherwise read as the default capacity 1.
            (lambda d: d["edges"][0].__setitem__("capacity", 3),
             "edge #0 has unknown key 'capacity'"),
            (lambda d: d.__setitem__("sources", ["s"]), "network has unknown key 'sources'"),
        ],
    )
    def test_malformed_documents_are_rejected_with_context(self, mutate, fragment):
        doc = {
            "nodes": ["s", "t1", "t2"],
            "edges": [{"from": "s", "to": "t1"}, {"from": "s", "to": "t2"}],
            "source": "s",
            "terminals": ["t1", "t2"],
        }
        mutate(doc)
        with pytest.raises(InputError) as exc:
            network_from_dict(doc, origin="net.json")
        assert fragment in str(exc.value)
        assert "net.json" in str(exc.value)

    def test_json_syntax_error_carries_line_number(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "nodes": [,]\n}\n')
        with pytest.raises(InputError) as exc:
            load_network_file(bad)
        assert ":2:" in str(exc.value)


# s -> t1 twice and s -> t2; demand (1, 1, 0) routes edge 0 and codes edges 1 and 2.
SMALL_NET = {
    "nodes": ["s", "t1", "t2"],
    "edges": [{"from": "s", "to": "t1", "cap": 2}, {"from": "s", "to": "t2"}],
    "source": "s",
    "terminals": ["t1", "t2"],
}


class TestPlanFormat:
    def test_plan_round_trips_through_json(self, fig2):
        plan = synthesize(fig2, Demand(2, 1, 1), seed=7)
        doc = json.loads(dump_plan(plan))
        again = plan_from_dict(doc)
        assert again == plan

    @pytest.mark.parametrize(
        "case, net, demand, seed, bits",
        [
            ("fig2-8", fig2_network(), Demand(2, 1, 1), 7, 8),
            ("fig2-16", fig2_network(), Demand(2, 1, 1), 7, 16),
            ("wide-16", WIDE, Demand(5, 1, 0), 11, 16),
        ],
    )
    def test_version_2_is_version_1_without_coding_vectors(self, case, net, demand, seed, bits):
        plan = synthesize(net, demand, seed=seed, field_bits=bits)
        doc = plan_to_dict(plan)
        assert doc["version"] == 2 and "coding_vectors" not in doc
        v1 = _as_version_1(plan).encode()
        assert hashlib.sha256(v1).hexdigest() == V1_DIGESTS[case]

    def test_version_1_file_exits_one_with_an_error_line(self, fig2, tmp_path, capsys):
        path = tmp_path / "v1.json"
        path.write_text(_as_version_1(synthesize(fig2, Demand(2, 1, 1), seed=7)))
        for command in (["verify", FIG2, str(path)], ["export-dot", FIG2, str(path)]):
            capsys.readouterr()
            assert main(command) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"error: {path}: unsupported plan version 1 (expected 2)\n"

    def test_unknown_version_is_rejected(self, fig2):
        plan = synthesize(fig2, Demand(2, 1, 1), seed=7)
        doc = plan_to_dict(plan)
        doc["version"] = 99
        with pytest.raises(InputError) as exc:
            plan_from_dict(doc)
        assert "version" in str(exc.value)

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda d: d.__setitem__("support", [1.9, 2]), "support entry must be an integer"),
            (lambda d: d.__setitem__("support", "12"), "support must be a list"),
            (lambda d: d.__setitem__("seed", 7.9), "seed must be an integer"),
            (lambda d: d.__setitem__("x1_routes", [[0.0]]), "x1 route entry must be an integer"),
            (lambda d: d.__setitem__("x1_routes", [["0"]]), "x1 route entry must be an integer"),
            (lambda d: d["decode"]["t1"].__setitem__("inputs", [True]), "decode.t1.inputs entry"),
            (lambda d: d.__setitem__("local_coeffs", {"1": 5}), "local_coeffs['1'] must be an"),
            (lambda d: d.__setitem__("local_coeffs", []), "local_coeffs must be an object"),
            (lambda d: d["local_coeffs"]["1"].__setitem__("msg:0", 5), "hex string, got 5"),
        ],
    )
    def test_mistyped_fields_exit_one_with_an_error_line(self, tmp_path, capsys, mutate, fragment):
        net = tmp_path / "net.json"
        net.write_text(json.dumps(SMALL_NET))
        plan = tmp_path / "plan.json"
        assert main(["synthesize", str(net), "--h0", "1", "--h1", "1", "--h2", "0",
                     "--seed", "7", "-o", str(plan)]) == 0
        doc = json.loads(plan.read_text())
        assert (doc["support"], doc["x1_routes"], doc["seed"]) == ([1, 2], [[0]], 7)
        mutate(doc)
        plan.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(net), str(plan)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and fragment in err

    def test_boolean_rate_in_the_demand_exits_one(self, plan_file, capsys):
        doc = json.loads(plan_file.read_text())
        assert doc["demand"] == {"h0": 2, "h1": 1, "h2": 1}
        doc["demand"]["h1"] = True
        plan_file.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", FIG2, str(plan_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "h1 must be a nonnegative integer" in err

    @pytest.mark.parametrize("bits", [True, "8", 8.0, None])
    def test_non_integer_field_bits_exit_one(self, plan_file, capsys, bits):
        doc = json.loads(plan_file.read_text())
        assert doc["field"]["bits"] == 8
        doc["field"]["bits"] = bits
        plan_file.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", FIG2, str(plan_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"field.bits must be an integer, got {bits!r}" in err

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda d: d["local_coeffs"]["1"].__setitem__("msg:0", "zz"), "bad hex value 'zz'"),
            (lambda d: d.__setitem__("seed", "7"), "seed must be an integer"),
            (lambda d: d.__delitem__("decode"), "malformed plan file"),
        ],
    )
    def test_error_names_the_plan_file_once(self, plan_file, capsys, mutate, fragment):
        doc = json.loads(plan_file.read_text())
        mutate(doc)
        plan_file.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", FIG2, str(plan_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {plan_file}: ") and fragment in err
        assert err.count(str(plan_file)) == 1

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda d: d["field"].__setitem__("name", "GF(2^4)"),
             "field.name 'GF(2^4)' does not match field.bits 8"),
            (lambda d: d["field"].__setitem__("name", 5), "field.name 5 does not match"),
            (lambda d: d["decode"]["t1"].__setitem__("rank", 2),
             "decode.t1 has unknown key 'rank'"),
            (lambda d: d["field"].__setitem__("poly", "0x11D"), "field has unknown key 'poly'"),
            (lambda d: d["decode"].__setitem__("t3", {}), "decode has unknown key 't3'"),
        ],
    )
    def test_keys_the_format_does_not_prove_are_refused(self, plan_file, capsys, mutate, fragment):
        doc = json.loads(plan_file.read_text())
        mutate(doc)
        plan_file.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", FIG2, str(plan_file), "--trials", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {plan_file}: ") and fragment in err

    def test_version_1_file_edited_to_version_2_is_refused(self, fig2):
        doc = json.loads(_as_version_1(synthesize(fig2, Demand(2, 1, 1), seed=7)))
        doc["version"] = 2
        with pytest.raises(InputError, match="unknown key 'coding_vectors'"):
            plan_from_dict(doc)

    def test_field_is_documented_in_the_plan(self, fig2):
        plan = synthesize(fig2, Demand(2, 1, 1), seed=7)
        doc = plan_to_dict(plan)
        assert doc["field"] == {"name": "GF(2^8)", "bits": 8, "modulus": "0x11D"}


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", FIG2, "--h1", "1", "--h2", "0"],  # --h0 missing
            ["check", FIG2, "--h0", "two", "--h1", "1", "--h2", "0"],
            ["synthesize", FIG2, "--h0", "1", "--h1", "0", "--h2", "0", "--field-bits", "0"],
        ],
    )
    def test_usage_error_exits_one_not_the_infeasible_code(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["synthesize", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


class TestCmdCheck:
    def test_feasible_demand_exits_zero(self, capsys):
        code = main(["check", FIG2, "--h0", "2", "--h1", "1", "--h2", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FEASIBLE (cuts 3,3,4 >= 3,3,4)" in out

    def test_infeasible_demand_exits_two_with_all_violations(self, capsys):
        code = main(["check", FIG2, "--h0", "3", "--h1", "1", "--h2", "1"])
        out = capsys.readouterr().out
        assert code == 2
        for name in ("ineq1", "ineq2", "ineq3"):
            assert name in out

    def test_empty_graph_file_is_an_input_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        assert main(["check", str(empty), "--h0", "0", "--h1", "0", "--h2", "0"]) == 1


class TestCmdSynthesize:
    def test_writes_a_verifiable_plan(self, plan_file, capsys):
        assert main(["verify", FIG2, str(plan_file), "--trials", "100"]) == 0
        assert "100 trials" in capsys.readouterr().out

    def test_plan_content_matches_forced_routes(self, plan_file):
        doc = json.loads(plan_file.read_text())
        assert doc["x1_routes"] == [[0, 4]]
        assert doc["x2_routes"] == [[3, 5]]
        assert doc["seed"] == 7
        assert set(doc["support"]) <= {1, 2, 6, 7, 8, 9, 10, 11, 12}

    def test_same_seed_gives_byte_identical_files(self, tmp_path):
        paths = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["synthesize", FIG2, "--h0", "2", "--h1", "1", "--h2", "1",
                         "--seed", "9", "-o", str(out)]) == 0
            paths.append(out.read_bytes())
        assert paths[0] == paths[1]

    @pytest.mark.parametrize(
        "field_bits, digest",
        [
            ("8", "20ad82fbdabb16f6fd0dd405e9f71ba9423b449612d96b27c36a392039ab266b"),
            ("16", "9685cdd193b1720003d22ad23bf429d3debeba2f503ee79e5e0cf2ac03ea6b0d"),
        ],
    )
    def test_fig2_plan_bytes_are_pinned(self, tmp_path, field_bits, digest):
        out = tmp_path / "plan.json"
        assert main(["synthesize", FIG2, "--h0", "2", "--h1", "1", "--h2", "1",
                     "--seed", "7", "--field-bits", field_bits, "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_wide_gf16_plan_bytes_are_pinned(self):
        # h0 = 5, with the binary code written in GF(2^16).
        plan = synthesize(WIDE, Demand(5, 1, 0), seed=11, field_bits=16)
        assert (plan.multicast.h0, plan.multicast.field_bits) == (5, 16)
        assert verify_plan(WIDE, plan, trials=0).passed
        digest = hashlib.sha256(dump_plan(plan).encode()).hexdigest()
        assert digest == "198ab0779d9deb7617814e39fe24f10bd0e2ca5d2915d2c4c147d71bf325b2f6"

    def test_infeasible_demand_exits_two(self, capsys):
        assert main(["synthesize", FIG2, "--h0", "3", "--h1", "1", "--h2", "1"]) == 2
        assert "infeasible" in capsys.readouterr().err

    def test_multicast_only_demand_has_empty_routes(self, tmp_path):
        out = tmp_path / "mc.json"
        assert main(["synthesize", FIG2, "--h0", "2", "--h1", "0", "--h2", "0",
                     "--seed", "1", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["x1_routes"] == [] and doc["x2_routes"] == []

    def test_cyclic_swap_network_synthesizes_and_verifies(self, tmp_path):
        net = tmp_path / "swap.json"
        net.write_text(json.dumps(SWAP))
        plan = tmp_path / "plan.json"
        assert main(["synthesize", str(net), "--h0", "2", "--h1", "0", "--h2", "0",
                     "-o", str(plan)]) == 0
        for trials in ("0", "100"):
            assert main(["verify", str(net), str(plan), "--trials", trials]) == 0

    def test_trace_file_records_rerouting_steps(self, tmp_path):
        # Four nodes whose first pass reroutes twice, the second time on an
        # earlier green path than the first.
        net = tmp_path / "net.json"
        net.write_text(json.dumps({
            "nodes": ["v0", "v1", "v2", "v3"],
            "edges": [
                {"from": "v0", "to": "v1", "cap": 2},
                {"from": "v0", "to": "v2"},
                {"from": "v0", "to": "v3"},
                {"from": "v1", "to": "v2"},
                {"from": "v1", "to": "v3"},
                {"from": "v2", "to": "v3"},
            ],
            "source": "v0",
            "terminals": ["v2", "v3"],
        }))
        trace = tmp_path / "trace.jsonl"
        assert main(["synthesize", str(net), "--h0", "0", "--h1", "1", "--h2", "3",
                     "-o", str(tmp_path / "p.json"), "--trace", str(trace)]) == 0
        assert trace.read_text().splitlines() == [
            '{"green_index": 1, "pass": 1, "prefix": [1, 5], "red_index": 0, "shared_edge": 5}',
            '{"green_index": 0, "pass": 1, "prefix": [0, 4, 6], "red_index": 1, "shared_edge": 6}',
        ]


class TestCmdVerify:
    def test_zero_trials_runs_structural_checks_only(self, plan_file):
        assert main(["verify", FIG2, str(plan_file), "--trials", "0"]) == 0

    def test_corrupted_coefficient_exits_four_and_names_the_site(
        self, plan_file, tmp_path, capsys
    ):
        doc = json.loads(plan_file.read_text())
        eid, coeffs = next(iter(doc["local_coeffs"].items()))
        key = next(iter(coeffs))
        coeffs[key] = f"0x{int(coeffs[key], 16) ^ 1:02X}"
        bad = tmp_path / "bad_plan.json"
        bad.write_text(json.dumps(doc))
        code = main(["verify", FIG2, str(bad), "--trials", "50"])
        out = capsys.readouterr().out
        assert code == 4
        assert "trial" in out and ("T1" in out or "T2" in out)

    @pytest.mark.parametrize(
        "mutate, named",
        [
            (lambda d: d["support"].append(12), "coded edge 12 is listed twice in the support"),
            (lambda d: d["local_coeffs"].__setitem__("0", {"msg:0": "0x01"}),
             "support and local_coeffs disagree on edge 0"),
            # A second spelling of a key, listed first, would be overwritten unproved.
            (lambda d: d.__setitem__("local_coeffs", {"01": {"msg:0": "0x00", "msg:1": "0x00"},
                                                      **d["local_coeffs"]}),
             "local_coeffs names edge 1 twice"),
            (lambda d: d["local_coeffs"].__setitem__("1", {"msg:00": "0x00",
                                                           **d["local_coeffs"]["1"]}),
             "local_coeffs['1'] names an input twice"),
        ],
    )
    def test_coded_edge_or_input_named_twice_or_unlisted_exits_one(
        self, plan_file, capsys, mutate, named
    ):
        doc = json.loads(plan_file.read_text())
        assert doc["support"][-1] == 12 and sorted(doc["local_coeffs"]["1"]) == ["msg:0", "msg:1"]
        mutate(doc)
        plan_file.write_text(json.dumps(doc))
        for trials in ("0", "100"):
            assert main(["verify", FIG2, str(plan_file), "--trials", trials]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize("tamper", ["matrix", "inputs"])
    def test_wrong_decoder_exits_one_without_trials_and_four_with(
        self, plan_file, tmp_path, capsys, tamper
    ):
        doc = json.loads(plan_file.read_text())
        t1 = doc["decode"]["t1"]
        if tamper == "matrix":
            t1["matrix"][0][0] = f"0x{int(t1['matrix'][0][0], 16) ^ 1:02X}"
        else:
            t1["inputs"].reverse()
        bad = tmp_path / "bad_plan.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify", FIG2, str(bad), "--trials", "0"]) == 1
        assert "T1" in capsys.readouterr().err
        assert main(["verify", FIG2, str(bad), "--trials", "100"]) == 4

    def test_negative_trials_exit_one(self, plan_file, capsys):
        assert main(["verify", FIG2, str(plan_file), "--trials", "-5"]) == 1
        assert "trials" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field_bits, site, value, named",
        [
            ("8", "decode", "0x1FF", "decode matrix of T1"),
            ("8", "local", "0x100", "local coefficient 0x100 on edge"),
            ("16", "decode", "0x10000", "decode matrix of T1"),
            ("8", "decode", "-0x1", "decode matrix of T1"),
        ],
    )
    def test_element_outside_the_field_exits_one_naming_the_site(
        self, tmp_path, capsys, field_bits, site, value, named
    ):
        path = tmp_path / "plan.json"
        assert main(["synthesize", FIG2, "--h0", "2", "--h1", "1", "--h2", "1",
                     "--seed", "7", "--field-bits", field_bits, "-o", str(path)]) == 0
        doc = json.loads(path.read_text())
        if site == "decode":
            doc["decode"]["t1"]["matrix"][0][0] = value
        else:
            coeffs = next(iter(doc["local_coeffs"].values()))
            coeffs[next(iter(coeffs))] = value
        path.write_text(json.dumps(doc))
        for trials in ("0", "100"):
            assert main(["verify", FIG2, str(path), "--trials", trials]) == 1
            err = capsys.readouterr().err
            assert named in err and f"GF(2^{field_bits})" in err

    def test_coded_plan_with_zero_shared_rate_exits_one(self, plan_file, capsys):
        doc = json.loads(plan_file.read_text())
        doc["demand"]["h0"] = 0
        plan_file.write_text(json.dumps(doc))
        for trials in ("0", "100"):
            assert main(["verify", FIG2, str(plan_file), "--trials", trials]) == 1
            assert "bad message input" in capsys.readouterr().err

    def test_route_over_an_unknown_edge_exits_one(self, plan_file, capsys):
        doc = json.loads(plan_file.read_text())
        doc["x1_routes"] = [[999]]
        plan_file.write_text(json.dumps(doc))
        assert main(["verify", FIG2, str(plan_file)]) == 1
        assert "no edge with id 999" in capsys.readouterr().err

    def test_plan_against_wrong_network_exits_one(self, plan_file, tmp_path):
        other = tmp_path / "other.json"
        other.write_text(json.dumps({
            "nodes": ["s", "t1", "t2"],
            "edges": [{"from": "s", "to": "t1"}, {"from": "s", "to": "t2"}],
            "source": "s",
            "terminals": ["t1", "t2"],
        }))
        assert main(["verify", str(other), str(plan_file)]) == 1


class TestCmdExportDot:
    def test_plain_network_lists_all_source_edges(self, capsys):
        assert main(["export-dot", FIG2]) == 0
        out = capsys.readouterr().out
        assert out.count('"1" ->') == 4
        assert out.startswith("digraph")

    def test_augmented_view_adds_dashed_virtual_bundles(self, capsys):
        assert main(["export-dot", FIG2, "--augmented",
                     "--h0", "1", "--h1", "1", "--h2", "1"]) == 0
        out = capsys.readouterr().out
        for label in ("__T1P", "__T2P", "__Y1", "__Y2"):
            assert label in out
        assert out.count("style=dashed") >= 8  # 4 node decls + virtual edges

    def test_augmented_view_refuses_a_demand_past_a_terminal_in_degree(self, capsys):
        demand = ["--h0", "1000000000", "--h1", "0", "--h2", "0"]
        assert main(["export-dot", FIG2, "--augmented", *demand]) == 2
        refused = capsys.readouterr()
        assert refused.out == ""
        assert main(["synthesize", FIG2, *demand]) == 2
        assert refused.err == capsys.readouterr().err  # the synthesis refusal, word for word
        assert refused.err.startswith("error: demand is infeasible")

    @pytest.mark.parametrize(
        "field_bits, digest",
        [
            ("8", "7fbd56f2afab13c26ea9596d5ee6389ce5bdc0acff6d62163332a3d0227e14b6"),
            ("16", "7fbd56f2afab13c26ea9596d5ee6389ce5bdc0acff6d62163332a3d0227e14b6"),
        ],
    )
    def test_plan_dot_bytes_are_pinned(self, tmp_path, capsys, field_bits, digest):
        # The digests of version 1's output, whose labels were the stored
        # vectors; the code is binary, so both fields give the same labels.
        plan = tmp_path / "plan.json"
        assert main(["synthesize", FIG2, "--h0", "2", "--h1", "1", "--h2", "1",
                     "--seed", "7", "--field-bits", field_bits, "-o", str(plan)]) == 0
        capsys.readouterr()
        assert main(["export-dot", FIG2, str(plan)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_plan_that_does_not_fit_the_network_exits_one(self, plan_file, tmp_path, capsys):
        doc = json.loads(plan_file.read_text())
        doc["x1_routes"] = [[999]]
        plan_file.write_text(json.dumps(doc))
        for command in ("verify", "export-dot"):
            capsys.readouterr()
            assert main([command, FIG2, str(plan_file)]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err == "error: no edge with id 999\n"
        net = tmp_path / "swap.json"
        net.write_text(json.dumps(SWAP))
        swap_plan = tmp_path / "swap-plan.json"
        assert main(["synthesize", str(net), "--h0", "2", "--h1", "0", "--h2", "0",
                     "-o", str(swap_plan)]) == 0
        capsys.readouterr()
        assert main(["export-dot", FIG2, str(swap_plan)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_plan_styling_marks_routes_and_vectors(self, plan_file, capsys):
        assert main(["export-dot", FIG2, str(plan_file)]) == 0
        out = capsys.readouterr().out
        assert "x1" in out and "color=blue" in out
        assert "x2" in out and "color=red" in out
        assert "[0x" in out  # coded edges carry vector labels

    def test_output_file_option(self, tmp_path):
        target = tmp_path / "net.dot"
        assert main(["export-dot", FIG2, "-o", str(target)]) == 0
        assert target.read_text().startswith("digraph")
