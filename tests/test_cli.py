from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dualcast
from dualcast.cli import (
    dump_plan,
    export_dot,
    load_network_file,
    load_plan_file,
    main,
    network_from_dict,
    plan_from_dict,
)
from dualcast.errors import InputError
from dualcast.fixtures import fig2_network, fig2_path
from dualcast.netgraph import Demand
from dualcast.planner import check_plan, synthesize, verify_plan

from conftest import wide_network
from oracles import network_to_dict, reference_plan_text, structurally_equal

FIG2 = str(fig2_path())
# Bytes that no UTF-8 text starts with: a UTF-16 byte-order mark.
NOT_UTF8 = b"\xff\xfe{\x00}\x00"

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
            (lambda d: d["edges"].append({"from": "s", "to": "t1", "cap": 10**9}),
             "edge #2 (s->t1) takes the capacities past 1048576 unit edges"),
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

    def test_a_reserved_label_is_reported_after_the_document_faults(self):
        # The prefix is read off the built network, so a document that also
        # has a fault of its own is refused for that fault.
        doc = {
            "nodes": ["s", "t1", "t2", "__x"],
            "edges": [{"from": "s", "to": "t1"}, {"from": "s", "to": "zz"}],
            "source": "s",
            "terminals": ["t1", "t2"],
        }
        with pytest.raises(InputError, match=r"^net.json: edge #1 references unknown node 'zz'$"):
            network_from_dict(doc, origin="net.json")
        doc["edges"].pop()
        with pytest.raises(
            InputError, match=r"^net.json: node label '__x' uses the reserved '__' prefix$"
        ):
            network_from_dict(doc, origin="net.json")

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

    def test_fig2_code_is_written_as_xors(self, plan_file):
        # Each coded edge lists the inputs it XORs, each decode row the
        # positions in its terminal's inputs; zero entries are not written.
        doc = json.loads(plan_file.read_text())
        assert doc["field"] == {"bits": 8}
        assert doc["local_inputs"] == {
            "1": ["msg:0"], "2": ["msg:1"], "6": ["edge:1"], "7": ["edge:2"], "8": ["edge:1"],
            "9": ["edge:2"], "10": ["edge:8", "edge:9"], "11": ["edge:10"], "12": ["edge:10"],
        }
        assert doc["decode"] == {"t1": {"inputs": [6, 11], "rows": [[0], [0, 1]]},
                                 "t2": {"inputs": [12, 7], "rows": [[0, 1], [1]]}}

    # 3.0 equals 3 and JSON reads it back as a float; only the int 3 is taken.
    @pytest.mark.parametrize("version", [1, 2, 3.0])
    def test_earlier_versions_exit_one_with_an_error_line(self, plan_file, capsys, version):
        doc = json.loads(plan_file.read_text())
        doc["version"] = version
        plan_file.write_text(json.dumps(doc))
        for command in (["verify", FIG2, str(plan_file)], ["export-dot", FIG2, str(plan_file)]):
            capsys.readouterr()
            assert main(command) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"error: {plan_file}: unsupported plan version {version} (expected 3)\n"

    def test_unknown_version_is_rejected(self, fig2):
        plan = synthesize(fig2, Demand(2, 1, 1), seed=7)
        doc = json.loads(dump_plan(plan))
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
            (lambda d: d.__setitem__("local_inputs", {"1": 5}), "local_inputs['1'] must be a list"),
            (lambda d: d.__setitem__("local_inputs", []), "local_inputs must be an object"),
            (lambda d: d["local_inputs"]["1"].append(5), "bad input 5 in local_inputs['1']"),
            (lambda d: d["decode"]["t2"]["rows"][0].append("1"), "decode.t2.rows row entry"),
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
            (lambda d: d["local_inputs"]["1"].__setitem__(0, "zz"), "bad input 'zz'"),
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

    def test_version_2_file_edited_to_version_3_is_refused(self, plan_file):
        # Version 2 wrote dense hex coefficients under local_coeffs.
        doc = json.loads(plan_file.read_text())
        doc["local_coeffs"] = {eid: {key: "0x01" for key in inputs}
                               for eid, inputs in doc.pop("local_inputs").items()}
        with pytest.raises(InputError, match="plan has unknown key 'local_coeffs'"):
            plan_from_dict(doc)

    @pytest.mark.parametrize("bits", [0, 17])
    def test_field_bits_out_of_range_exit_one(self, plan_file, capsys, bits):
        doc = json.loads(plan_file.read_text())
        doc["field"]["bits"] = bits
        plan_file.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", FIG2, str(plan_file)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {plan_file}: field bits must be in 1..16, got {bits}\n"


class TestPlanWriter:
    """dump_plan writes the bytes the stdlib's indenting encoder writes for the plan's document."""

    @pytest.mark.parametrize(
        "net, demand, bits",
        [
            (fig2_network(), Demand(2, 1, 1), 8),  # routes on both sides
            (fig2_network(), Demand(2, 0, 0), 8),  # empty route lists
            (fig2_network(), Demand(0, 1, 1), 8),  # no code: empty objects and lists
            (fig2_network(), Demand(2, 1, 1), 16),  # a two-digit width
            (WIDE, Demand(5, 1, 0), 16),
            (wide_network(12, 3), Demand(11, 1, 0), 8),  # edge "10" before "2"
        ],
        ids=["fig2-211", "fig2-200", "fig2-011", "fig2-211-gf16", "wide-510-gf16", "wide-h0-11"],
    )
    def test_synthesized_plans_match_the_reference_writer(self, net, demand, bits):
        plan = synthesize(net, demand, seed=7, field_bits=bits)
        text = dump_plan(plan)
        assert text == reference_plan_text(plan)
        assert plan_from_dict(json.loads(text)) == plan

    def test_h0_zero_writes_empty_code_containers(self, fig2):
        doc = json.loads(dump_plan(synthesize(fig2, Demand(0, 1, 1), seed=7)))
        assert doc["support"] == [] and doc["local_inputs"] == {}
        assert doc["decode"] == {"t1": {"inputs": [], "rows": []},
                                 "t2": {"inputs": [], "rows": []}}

    def test_object_keys_sort_as_strings_and_lists_keep_their_order(self):
        plan = synthesize(wide_network(12, 3), Demand(11, 1, 0), seed=7)
        code = plan.multicast
        # Source edge 0 XORs messages 2 and 10: in number order, not as strings.
        code = dataclasses.replace(
            code, local_inputs={**code.local_inputs, 0: (("msg", 2), ("msg", 10))}
        )
        plan = dataclasses.replace(plan, multicast=code)
        check_plan(wide_network(12, 3), plan)
        text = dump_plan(plan)
        assert text == reference_plan_text(plan)
        assert text.index('\n    "10": [') < text.index('\n    "2": [')
        assert text.index('"msg:2"') < text.index('"msg:10"')
        assert plan_from_dict(json.loads(text)) == plan

    def test_loaded_code_synthesis_never_writes_matches_the_reference_writer(self, fig2):
        # An edge that XORs nothing and an empty decode row pass the plan
        # check (the plan then fails to verify) and are written back as read.
        plan = synthesize(fig2, Demand(2, 1, 1), seed=7, field_bits=16)
        doc = json.loads(dump_plan(plan))
        doc["local_inputs"]["10"] = []
        doc["decode"]["t2"]["rows"][1] = []
        loaded = plan_from_dict(doc)
        assert loaded.multicast.local_inputs[10] == ()
        assert loaded.multicast.decode_t2[1] == ()
        check_plan(fig2, loaded)
        text = dump_plan(loaded)
        assert text == reference_plan_text(loaded)
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", FIG2, "--h1", "1", "--h2", "0"],  # --h0 missing
            ["check", FIG2, "--h0", "two", "--h1", "1", "--h2", "0"],
            ["synthesize", FIG2, "--h0", "1", "--h1", "0", "--h2", "0", "--field-bits", "0"],
            ["synthesize", FIG2, "--h0", "1", "--h1", "0", "--h2", "0", "--field-bits", "17"],
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

    def test_non_utf8_network_file_exits_one_with_an_error_line(self, tmp_path, capsys):
        net = tmp_path / "utf16.json"
        net.write_bytes(NOT_UTF8)
        assert main(["check", str(net), "--h0", "1", "--h1", "0", "--h2", "0"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {net}: not UTF-8 text (byte 0: invalid start byte)\n"


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
            ("8", "fef4b112183f71deb6f3b36253dca99bf64d15de3f355e8f760836ff4e971b9f"),
            ("16", "96d440794cc9e45a3e1dd8b461894d77e5e0d22b044f60a357854b7df61b23a1"),
        ],
        ids=["8", "16"],
    )
    def test_fig2_plan_bytes_are_pinned(self, tmp_path, field_bits, digest):
        out = tmp_path / "plan.json"
        assert main(["synthesize", FIG2, "--h0", "2", "--h1", "1", "--h2", "1",
                     "--seed", "7", "--field-bits", field_bits, "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_wide_gf16_plan_bytes_are_pinned(self):
        # h0 = 5, with 16-bit symbols.
        plan = synthesize(WIDE, Demand(5, 1, 0), seed=11, field_bits=16)
        assert (plan.multicast.h0, plan.multicast.field_bits) == (5, 16)
        assert verify_plan(WIDE, plan, trials=0).passed
        digest = hashlib.sha256(dump_plan(plan).encode()).hexdigest()
        assert digest == "b4d8d42531161ebd23f268d603177206f6f768b07292962093bad360f3ed897e"

    @pytest.mark.parametrize("flag", ["-o", "--trace"])
    def test_unwritable_output_exits_one_with_an_error_line(self, tmp_path, capsys, flag):
        missing = tmp_path / "no-such-dir" / "out.json"
        other = ["--trace", str(tmp_path / "t.jsonl")] if flag == "-o" else []
        assert main(["synthesize", FIG2, "--h0", "2", "--h1", "1", "--h2", "1",
                     flag, str(missing), *other]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {missing}: ") and "Traceback" not in err

    def test_infeasible_demand_exits_two(self, capsys):
        assert main(["synthesize", FIG2, "--h0", "3", "--h1", "1", "--h2", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: demand is infeasible "
            "(ineq1 needs 4, has 3, ineq2 needs 4, has 3, ineq3 needs 5, has 4)\n"
        )

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

    def test_a_plan_on_stdout_reads_back_with_a_trace(self, tmp_path, capsys):
        # With the plan on stdout, the line naming the trace file goes to
        # stderr, so the captured stdout is the plan file and nothing else.
        trace = tmp_path / "trace.jsonl"
        assert main(["synthesize", FIG2, "--h0", "2", "--h1", "1", "--h2", "1",
                     "--seed", "7", "--trace", str(trace)]) == 0
        out, err = capsys.readouterr()
        plan = synthesize(fig2_network(), Demand(2, 1, 1), seed=7)
        assert json.loads(out) == json.loads(dump_plan(plan)) and out == dump_plan(plan)
        assert err == f"rerouting trace written to {trace}\n"
        piped = tmp_path / "piped.json"
        piped.write_text(out)
        assert main(["verify", FIG2, str(piped), "--trials", "10"]) == 0

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

    def test_dropped_input_exits_four_with_trials_and_one_without(
        self, plan_file, tmp_path, capsys
    ):
        doc = json.loads(plan_file.read_text())
        assert doc["local_inputs"]["10"] == ["edge:8", "edge:9"]
        del doc["local_inputs"]["10"][0]
        bad = tmp_path / "bad_plan.json"
        bad.write_text(json.dumps(doc))
        code = main(["verify", FIG2, str(bad), "--trials", "50"])
        out = capsys.readouterr().out
        assert code == 4
        assert "trial" in out and ("T1" in out or "T2" in out)
        assert main(["verify", FIG2, str(bad), "--trials", "0"]) == 1
        assert "does not invert its transfer matrix" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mutate, named",
        [
            (lambda d: d["support"].append(12), "coded edge 12 is listed twice in the support"),
            (lambda d: d["local_inputs"].__setitem__("0", ["msg:0"]),
             "support and local_inputs disagree on edge 0"),
            # A second spelling of a key, listed first, would be overwritten
            # unproved; only the spelling the format writes is accepted.
            (lambda d: d.__setitem__("local_inputs", {"01": [], **d["local_inputs"]}),
             "local_inputs key '01' is not a decimal edge id"),
            (lambda d: d["local_inputs"].__setitem__("1", ["msg:00", "msg:0"]),
             "bad input 'msg:00' in local_inputs['1']"),
        ],
    )
    def test_coded_edge_or_input_named_twice_or_unlisted_exits_one(
        self, plan_file, capsys, mutate, named
    ):
        doc = json.loads(plan_file.read_text())
        assert doc["support"][-1] == 12 and doc["local_inputs"]["1"] == ["msg:0"]
        mutate(doc)
        plan_file.write_text(json.dumps(doc))
        for trials in ("0", "100"):
            assert main(["verify", FIG2, str(plan_file), "--trials", trials]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize("tamper", ["rows", "inputs"])
    def test_wrong_decoder_exits_one_without_trials_and_four_with(
        self, plan_file, tmp_path, capsys, tamper
    ):
        doc = json.loads(plan_file.read_text())
        t1 = doc["decode"]["t1"]
        if tamper == "rows":
            assert t1["rows"][0] == [0]
            t1["rows"][0] = [0, 1]
        else:
            t1["inputs"].reverse()
        bad = tmp_path / "bad_plan.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify", FIG2, str(bad), "--trials", "0"]) == 1
        assert "T1" in capsys.readouterr().err
        assert main(["verify", FIG2, str(bad), "--trials", "100"]) == 4

    @pytest.mark.parametrize("which", ["network", "plan"])
    def test_non_utf8_input_file_exits_one_with_an_error_line(
        self, plan_file, tmp_path, capsys, which
    ):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(NOT_UTF8)
        files = [str(bad), str(plan_file)] if which == "network" else [FIG2, str(bad)]
        capsys.readouterr()
        assert main(["verify", *files]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {bad}: not UTF-8 text (byte 0: invalid start byte)\n"

    @pytest.mark.parametrize("which", ["network", "plan"])
    def test_repeated_key_exits_one_with_an_error_line(self, plan_file, tmp_path, capsys, which):
        # json.loads alone keeps the last of two equal keys: the network would
        # read edge 0 as 1->T1, and the plan's junk entry would go unread.
        if which == "network":
            text = fig2_path().read_text().replace(
                '{"from": "1", "to": "6"}', '{"from": "1", "to": "6", "to": "T1"}', 1
            )
            key = "to"
        else:
            text = plan_file.read_text().replace(
                '"local_inputs": {\n', '"local_inputs": {\n    "1": ["zz"],\n', 1
            )
            key = "1"
        bad = tmp_path / "repeated.json"
        bad.write_text(text)
        files = [str(bad), str(plan_file)] if which == "network" else [FIG2, str(bad)]
        capsys.readouterr()
        assert main(["verify", *files, "--trials", "0"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {bad}: key '{key}' is repeated in one object\n"

    def test_negative_trials_exit_one(self, plan_file, capsys):
        assert main(["verify", FIG2, str(plan_file), "--trials", "-5"]) == 1
        assert "trials" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "site, value, named",
        [
            ("key", " +0_1 ", "local_inputs key ' +0_1 ' is not a decimal edge id"),
            ("input", "msg:+0", "bad input 'msg:+0' in local_inputs['1']"),
            ("input", "msg: 0", "bad input 'msg: 0' in local_inputs['1']"),
            ("input", "MSG:0", "bad input 'MSG:0' in local_inputs['1']"),
            ("input", 0, "bad input 0 in local_inputs['1']"),
            ("decode", "0", "decode.t1.rows row entry must be an integer, got '0'"),
            ("decode", 0.0, "decode.t1.rows row entry must be an integer, got 0.0"),
        ],
    )
    def test_spelling_the_format_does_not_write_exits_one_naming_the_site(
        self, plan_file, capsys, site, value, named
    ):
        doc = json.loads(plan_file.read_text())
        inputs = doc["local_inputs"]
        assert inputs["1"] == ["msg:0"] and doc["decode"]["t1"]["rows"][0] == [0]
        if site == "key":
            inputs[value] = inputs.pop("1")
        elif site == "input":
            inputs["1"] = [value]
        else:
            doc["decode"]["t1"]["rows"][0] = [value]
        plan_file.write_text(json.dumps(doc))
        for trials in ("0", "100"):
            assert main(["verify", FIG2, str(plan_file), "--trials", trials]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and named in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "demand, mutate, named",
        [
            # Read through its keys, this row would pass as the row it replaces, [0].
            ((2, 1, 1), lambda d: d["decode"]["t1"]["rows"].__setitem__(0, {"0": "junk"}),
             "decode.t1.rows row must be a list, got {'0': 'junk'}"),
            ((2, 1, 1), lambda d: d["decode"]["t1"]["rows"].__setitem__(1, "01"),
             "decode.t1.rows row must be a list, got '01'"),
            ((2, 1, 1), lambda d: d["decode"]["t2"].__setitem__("rows", {}),
             "decode.t2.rows must be a list, got {}"),
            ((2, 1, 1), lambda d: d["local_inputs"].__setitem__("1", {"msg:0": "junk"}),
             "local_inputs['1'] must be a list, got {'msg:0': 'junk'}"),
            ((2, 1, 1), lambda d: d["x1_routes"].__setitem__(0, {"0": 0, "4": 4}),
             "x1 route must be a list, got {'0': 0, '4': 4}"),
            # Read as no routes, these would meet h2 = 0.
            ((2, 1, 0), lambda d: d.__setitem__("x2_routes", {}),
             "x2_routes must be a list, got {}"),
            ((2, 1, 0), lambda d: d.__setitem__("x2_routes", ""),
             "x2_routes must be a list, got ''"),
        ],
        ids=["row-object", "row-string", "rows-object", "inputs-object", "route-object",
             "routes-object", "routes-string"],
    )
    def test_route_list_route_row_list_or_row_not_a_list_exits_one_naming_the_field(
        self, tmp_path, capsys, demand, mutate, named
    ):
        path = tmp_path / "plan.json"
        rates = [flag for name, rate in zip(("--h0", "--h1", "--h2"), demand)
                 for flag in (name, str(rate))]
        assert main(["synthesize", FIG2, *rates, "--seed", "7", "-o", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["decode"]["t1"]["rows"][0] == [0] and doc["x2_routes"] == (
            [[3, 5]] if demand[2] else [])
        mutate(doc)
        path.write_text(json.dumps(doc))
        for trials in ("0", "100"):
            capsys.readouterr()
            assert main(["verify", FIG2, str(path), "--trials", trials]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err == f"error: {path}: {named}\n"

    @pytest.mark.parametrize(
        "mutate, named",
        [
            (lambda d: d["local_inputs"]["10"].reverse(),
             "local inputs of edge 10 are not in increasing order without repeats"),
            (lambda d: d["local_inputs"]["1"].append("msg:0"),
             "local inputs of edge 1 are not in increasing order without repeats"),
            (lambda d: d["decode"]["t1"]["rows"][1].append(2),
             "decode row 1 of T1 names a position outside 0..1"),
            (lambda d: d["decode"]["t2"]["rows"][1].insert(0, -1),
             "decode row 1 of T2 names a position outside 0..1"),
            (lambda d: d["decode"]["t1"]["rows"][1].reverse(),
             "decode row 1 of T1 is not in increasing order without repeats"),
            (lambda d: d["decode"]["t1"]["rows"][0].append(0),
             "decode row 0 of T1 is not in increasing order without repeats"),
            (lambda d: d["field"].__setitem__("modulus", "0x11D"),
             "field has unknown key 'modulus'"),
            (lambda d: d["field"].__setitem__("name", "GF(2^8)"), "field has unknown key 'name'"),
            (lambda d: d["decode"]["t1"].__setitem__("matrix", [["0x01", "0x00"]]),
             "decode.t1 has unknown key 'matrix'"),
            (lambda d: d.__setitem__("version", 2), "unsupported plan version 2 (expected 3)"),
        ],
        ids=["inputs-order", "input-repeated", "position-past-h0", "position-negative",
             "row-order", "position-repeated", "modulus", "name", "matrix", "version-2"],
    )
    def test_version_3_refusals_exit_one_naming_the_field(self, plan_file, capsys, mutate, named):
        doc = json.loads(plan_file.read_text())
        assert doc["local_inputs"]["10"] == ["edge:8", "edge:9"]
        assert doc["decode"]["t1"]["rows"] == [[0], [0, 1]]
        assert doc["decode"]["t2"]["rows"] == [[0, 1], [1]]
        mutate(doc)
        plan_file.write_text(json.dumps(doc))
        for trials in ("0", "100"):
            capsys.readouterr()
            assert main(["verify", FIG2, str(plan_file), "--trials", trials]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and err.endswith(f"{named}\n")

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
        # A text-only stdout, with no byte buffer to write UTF-8 to, gets the same text.
        text_only = io.StringIO()
        with contextlib.redirect_stdout(text_only):
            assert main(["export-dot", FIG2]) == 0
        assert text_only.getvalue() == out

    def test_augmented_view_adds_dashed_virtual_bundles(self, capsys):
        assert main(["export-dot", FIG2, "--augmented",
                     "--h0", "1", "--h1", "1", "--h2", "1"]) == 0
        out = capsys.readouterr().out
        for label in ("__T1P", "__T2P", "__Y1"):
            assert label in out
        assert "__Y2" not in out
        # 3 node declarations and 2 + 2 + 2 + 1 virtual edges for demand (1, 1, 1).
        assert out.count("style=dashed") == 10

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--augmented"], "--augmented needs --h0, --h1 and --h2"),
            (["--augmented", "--h0", "1", "--h2", "1"], "--augmented needs --h0, --h1 and --h2"),
            (
                ["--h0", "0", "--h1", "0", "--h2", "0"],
                "takes --h0, --h1, --h2 only with --augmented",
            ),
            (["--h1", "0"], "takes --h1 only with --augmented"),
        ],
        ids=["augmented-no-rates", "augmented-no-h1", "rates-alone", "h1-alone"],
    )
    def test_rates_go_with_the_augmented_view_only(self, capsys, flags, named):
        # The gadget is drawn for a demand, and a demand draws nothing else.
        assert main(["export-dot", FIG2, *flags]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: export-dot {named}\n"

    def test_augmented_view_of_the_zero_demand_is_three_isolated_nodes(self, capsys):
        zero = ["--h0", "0", "--h1", "0", "--h2", "0"]
        assert main(["export-dot", FIG2, "--augmented", *zero]) == 0
        out = capsys.readouterr().out
        assert out.count("style=dashed") == 3 and "__" not in out.split("->", 1)[1]

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

    @pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
    def test_a_non_ascii_label_is_written_as_utf8_in_an_ascii_locale(self, tmp_path, to_file):
        # Under the POSIX locale with UTF-8 mode off, Python encodes stdout
        # and opened files as ASCII; the DOT text is UTF-8 all the same.
        net = tmp_path / "net.json"
        net.write_text(json.dumps({
            "nodes": ["s", "节点", "t1", "t2"],
            "edges": [{"from": "s", "to": "节点"}, {"from": "节点", "to": "t1"},
                      {"from": "s", "to": "t2"}],
            "source": "s",
            "terminals": ["t1", "t2"],
        }), encoding="utf-8")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
        src = str(Path(dualcast.__file__).parents[1])
        env.update(LC_ALL="POSIX", PYTHONUTF8="0", PYTHONPATH=src)
        dot = tmp_path / "net.dot"
        argv = [sys.executable, "-m", "dualcast.cli", "export-dot", str(net)]
        proc = subprocess.run(
            argv + (["-o", str(dot)] if to_file else []), env=env, capture_output=True
        )
        assert proc.returncode == 0 and proc.stderr == b"", proc.stderr
        out = dot.read_bytes() if to_file else proc.stdout
        assert out.decode("utf-8") == export_dot(load_network_file(net))
        assert '"s" -> "节点"' in out.decode("utf-8")

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

    def test_labels_with_quotes_and_backslashes_are_escaped(self, tmp_path, capsys):
        labels = ["s", 'a"b', "t2\\"]
        net = tmp_path / "net.json"
        net.write_text(json.dumps({
            "nodes": labels,
            "edges": [{"from": "s", "to": 'a"b'}, {"from": "s", "to": "t2\\"},
                      {"from": 'a"b', "to": "t2\\"}],
            "source": "s",
            "terminals": ['a"b', "t2\\"],
        }))
        assert main(["export-dot", str(net)]) == 0
        quoted = re.compile(r'"((?:[^"\\]|\\.)*)"')
        ids = []
        for line in capsys.readouterr().out.splitlines()[2:-1]:
            # Every quote and backslash on the line lies inside a well-formed quoted ID.
            assert not re.search(r'["\\]', quoted.sub("", line)), line
            ids.append([re.sub(r"\\(.)", r"\1", q) for q in quoted.findall(line)])
        assert [i[0] for i in ids[:3]] == labels
        assert [i[:2] for i in ids[3:]] == [["s", 'a"b'], ["s", "t2\\"], ['a"b', "t2\\"]]

    def test_output_file_option(self, tmp_path):
        target = tmp_path / "net.dot"
        assert main(["export-dot", FIG2, "-o", str(target)]) == 0
        assert target.read_text().startswith("digraph")

    def test_unwritable_output_exits_one_with_an_error_line(self, tmp_path, capsys):
        missing = tmp_path / "no-such-dir" / "net.dot"
        assert main(["export-dot", FIG2, "-o", str(missing)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: cannot write {missing}: ")
