from __future__ import annotations

import dataclasses
import random
import re

import pytest
from hypothesis import given, settings

from dualcast import augment, flow, nccode, netgraph, planner, recolor
from dualcast.cli import main
from dualcast.errors import (
    CyclicSupportError,
    DualcastError,
    InfeasibleDemandError,
    InputError,
    InvariantError,
    PlanMismatchError,
    UnknownEdgeError,
)
from dualcast.flow import EdgePath, max_flow
from dualcast.fixtures import fig2_network, fig2_path
from dualcast.netgraph import Demand, remove_edges
from dualcast.planner import (
    check_feasibility,
    check_plan,
    synthesize,
    synthesize_with_diagnostics,
    verify_plan,
)

from conftest import (
    all_demands,
    mknet,
    parallel_net,
    random_feasible_instances,
    small_cyclic_network,
)
from oracles import check_plan_reference, real_route_edges, route_edges, verify_by_simulation
from strategies import feasible_instances


class TestCheckFeasibility:
    def test_fig2_reference_demand_is_feasible(self, fig2):
        report = check_feasibility(fig2, Demand(2, 1, 1))
        assert report.feasible
        assert report.cuts == (3, 3, 4)
        assert report.violated == ()

    def test_fig2_bumped_private_rate_breaks_first_cut(self, fig2):
        report = check_feasibility(fig2, Demand(2, 2, 1))
        assert not report.feasible
        by_name = {v.name: v for v in report.violated}
        assert "ineq1" in by_name
        v = by_name["ineq1"]
        assert (v.required, v.actual, v.required - v.actual) == (4, 3, 1)

    def test_zero_demand_is_always_feasible(self):
        net = mknet([("a", "b")], source="a", terminals=("b", "c"), extra_nodes=("c",))
        report = check_feasibility(net, Demand(0, 0, 0))
        assert report.feasible
        assert report.required == (0, 0, 0)

    def test_converse_witness_has_positive_shortfall(self, fig2):
        report = check_feasibility(fig2, Demand(3, 1, 1))
        assert not report.feasible
        assert len(report.violated) == 3
        assert all(v.required - v.actual > 0 for v in report.violated)

    def test_a_second_check_on_one_network_runs_no_flow(self, monkeypatch):
        net = fig2_network()  # a fresh object: its cuts are not cached yet
        runs = []
        real = flow._augment

        def counting(*args):
            runs.append(args)
            return real(*args)

        monkeypatch.setattr(flow, "_augment", counting)
        first = check_feasibility(net, Demand(2, 1, 1))
        assert len(runs) == 3  # runs to T1, to T2 and to the pair, from one search
        runs.clear()
        second = check_feasibility(net, Demand(3, 1, 1))
        assert runs == []
        assert first.cuts == second.cuts == (3, 3, 4)
        assert (first.feasible, second.feasible) == (True, False)

    def test_a_replaced_network_computes_its_own_cuts(self):
        # T1 is fed only through T2.
        net = mknet([("s", "a"), ("a", "t2"), ("s", "t2"), ("t2", "t1")], "s", ("t1", "t2"))
        d = Demand(0, 1, 1)
        assert check_feasibility(net, d).cuts == (1, 2, 2)
        swapped = dataclasses.replace(net, terminals=("t2", "t1"))
        assert check_feasibility(swapped, d).cuts == (2, 1, 2)
        cut_off = dataclasses.replace(net, edges=net.edges[:3])
        assert check_feasibility(cut_off, d).cuts == (0, 2, 2)
        assert check_feasibility(net, d).cuts == (1, 2, 2)


class TestSynthesize:
    def test_fig2_plan_matches_the_forced_solution(self, fig2):
        plan = synthesize(fig2, Demand(2, 1, 1), seed=7)
        assert [list(p.edges) for p in plan.x1_routes] == [[0, 4]]
        assert [list(p.edges) for p in plan.x2_routes] == [[3, 5]]
        butterfly_core = {1, 2, 6, 7, 8, 9, 10, 11, 12}
        assert set(plan.multicast.support) <= butterfly_core
        assert plan.seed == 7

    def test_pure_routing_when_nothing_is_shared(self):
        net = parallel_net(2, 1)
        plan = synthesize(net, Demand(0, 2, 1), seed=0)
        assert plan.multicast.support == ()
        assert len(plan.x1_routes) == 2 and len(plan.x2_routes) == 1

    def test_pure_multicast_when_nothing_is_private(self, butterfly):
        plan = synthesize(butterfly, Demand(2, 0, 0), seed=0)
        assert plan.x1_routes == () and plan.x2_routes == ()
        assert verify_plan(butterfly, plan, trials=25).passed

    def test_infeasible_demand_raises_with_report(self, fig2):
        with pytest.raises(InfeasibleDemandError) as exc:
            synthesize(fig2, Demand(2, 2, 1), seed=0)
        assert exc.value.report.violated

    def test_same_seed_reproduces_the_plan(self, fig2):
        a = synthesize(fig2, Demand(2, 1, 1), seed=123)
        b = synthesize(fig2, Demand(2, 1, 1), seed=123)
        assert a == b

    def test_malformed_plan_is_an_invariant_error_and_exit_three(
        self, fig2, monkeypatch, tmp_path
    ):
        real = planner.build_multicast_code

        def overlapping(paths_t1, paths_t2, **kwargs):
            code = real(paths_t1, paths_t2, **kwargs)
            return dataclasses.replace(code, support=code.support + (0,))  # edge 0 is routed

        monkeypatch.setattr(planner, "build_multicast_code", overlapping)
        with pytest.raises(InvariantError, match="overlaps a route"):
            synthesize(fig2, Demand(2, 1, 1), seed=7)
        args = ["synthesize", str(fig2_path()), "--h0", "2", "--h1", "1", "--h2", "1",
                "--seed", "7", "-o", str(tmp_path / "plan.json")]
        assert main(args) == 3

    def test_route_edges_leave_the_residual_to_the_code(self, fig2):
        d = Demand(2, 1, 1)
        plan = synthesize(fig2, d, seed=7)
        residual = remove_edges(fig2, route_edges(plan))
        for t in ("T1", "T2"):
            assert max_flow(residual, "1", {t}).value >= d.h0


class TestFeasibilityFromPassOne:
    """Synthesis decides feasibility with pass 1's flows, not a check up front."""

    def test_refuses_exactly_the_infeasible_demands_with_their_report(self, fig2):
        rng = random.Random(2009)
        nets = [fig2]
        nets += [net for net, _ in random_feasible_instances(seed=77, count=12)]
        nets += [small_cyclic_network(rng) for _ in range(12)]
        verdicts = set()
        for net in nets:
            for d in all_demands(4):
                report = check_feasibility(net, d)
                try:
                    synthesize(net, d, seed=1)
                except InfeasibleDemandError as exc:
                    assert not report.feasible, (net, d)
                    assert exc.report == report
                except CyclicSupportError:
                    assert report.feasible, (net, d)
                else:
                    assert report.feasible, (net, d)
                verdicts.add(report.feasible)
        assert verdicts == {False, True}

    def _count(self, monkeypatch, name, *modules):
        """Count calls to `name` made through any of `modules`."""
        calls = []
        real = getattr(modules[0], name)

        def counting(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, counting)
        return calls

    def test_feasible_synthesis_runs_two_flows_and_no_feasibility_check(self, monkeypatch):
        # Pass 1's flow to Y1 (edge_disjoint_paths), then the network's run
        # to T2, which pass 1's paths to T2' are read from (paths_to_t2), so
        # none goes through max_flow; pass 2 starts from pass 1's coloring on
        # the same augmented graph, and the code reuses pass 2's paths.
        net = fig2_network()  # a fresh object: its cuts are not cached yet
        flows = self._count(monkeypatch, "max_flow", flow, recolor, nccode)
        runs = self._count(monkeypatch, "_augment", flow)
        checks = self._count(monkeypatch, "check_feasibility", planner)
        augmented = self._count(monkeypatch, "build_augmented", augment, planner, recolor)
        removed = self._count(monkeypatch, "remove_edges", netgraph, planner, recolor)
        synthesize(net, Demand(2, 1, 1), seed=7)
        assert (len(flows), len(runs), len(checks)) == (0, 2, 0)
        assert (len(augmented), len(removed)) == (1, 0)
        # An infeasible demand within the degree bounds: the flow to Y1 falls
        # short, then the report's cuts take the runs to T1 and to the pair,
        # outside max_flow, and read the cut to T2 off the network's run to
        # T2, which it already holds.
        flows.clear()
        runs.clear()
        with pytest.raises(InfeasibleDemandError, match="ineq3"):
            synthesize(net, Demand(1, 2, 2), seed=7)
        assert (len(flows), len(runs), len(checks)) == (0, 3, 1)
        # The cuts are cached on the network: the next refusal only compares.
        flows.clear()
        runs.clear()
        with pytest.raises(InfeasibleDemandError, match="ineq3"):
            synthesize(net, Demand(0, 2, 3), seed=7)
        assert (len(flows), len(runs), len(checks)) == (0, 1, 2)
        # The network kept its run to T2, so pass 1's paths to T2' replay it:
        # a feasible synthesis on it now runs only the flow to Y1.
        runs.clear()
        synthesize(net, Demand(2, 1, 1), seed=7)
        assert (len(flows), len(runs)) == (0, 1)

    def test_demand_beyond_a_terminal_in_degree_is_refused_before_augmenting(
        self, fig2, monkeypatch
    ):
        augmented = self._count(monkeypatch, "build_augmented", augment, planner, recolor)
        d = Demand(10**9, 0, 0)
        with pytest.raises(InfeasibleDemandError) as exc:
            synthesize(fig2, d, seed=0)
        assert exc.value.report == check_feasibility(fig2, d)
        assert augmented == []

    @pytest.mark.parametrize(
        "kwargs, named",
        [
            ({"seed": True}, "seed must be an integer, got True"),
            ({"seed": "x"}, "seed must be an integer, got 'x'"),
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"seed": 0, "field_bits": True}, "field bits must be an integer, got True"),
            ({"seed": 0, "field_bits": 8.0}, "field bits must be an integer, got 8.0"),
        ],
        ids=["seed-bool", "seed-str", "seed-float", "bits-bool", "bits-float"],
    )
    def test_a_seed_or_width_a_plan_file_cannot_hold_is_refused_before_augmenting(
        self, fig2, monkeypatch, kwargs, named
    ):
        # The plan file records both as JSON ints, and its loader reads no other.
        augmented = self._count(monkeypatch, "build_augmented", augment, planner, recolor)
        with pytest.raises(InputError, match=re.escape(named)):
            synthesize(fig2, Demand(2, 1, 1), **kwargs)
        assert augmented == []

    def test_reserved_label_is_an_input_error_even_when_infeasible(self):
        net = mknet([("s", "a"), ("a", "t1"), ("a", "t2")], source="s",
                    terminals=("t1", "t2"), extra_nodes=("__x",))
        d = Demand(0, 1, 1)  # within both in-degrees, over the joint cut
        assert not check_feasibility(net, d).feasible
        with pytest.raises(InputError, match="reserved"):
            synthesize(net, d, seed=0)


class TestVerifyPlan:
    def test_valid_plan_passes_all_trials(self, fig2):
        plan = synthesize(fig2, Demand(2, 1, 1), seed=7)
        report = verify_plan(fig2, plan, trials=100)
        assert report.passed and report.trials == 100

    def test_dropped_local_input_is_detected(self, fig2):
        plan = synthesize(fig2, Demand(2, 1, 1), seed=7)
        code = plan.multicast
        # Drop one local input of a decode-critical edge.
        victim = code.inputs_t1[0]
        broken_code = dataclasses.replace(
            code, local_inputs={**code.local_inputs, victim: code.local_inputs[victim][1:]}
        )
        broken = dataclasses.replace(plan, multicast=broken_code)
        report = verify_plan(fig2, broken, trials=20)
        assert not report.passed
        assert any(f.terminal == "T1" for f in report.failures)

    def test_zero_rate_plan_trivially_verifies(self):
        net = parallel_net(1, 1)
        plan = synthesize(net, Demand(0, 0, 0), seed=0)
        assert verify_plan(net, plan, trials=5).passed

    def test_plan_against_wrong_network_is_a_mismatch(self, fig2, butterfly):
        plan = synthesize(fig2, Demand(2, 1, 1), seed=7)
        with pytest.raises(PlanMismatchError):
            verify_plan(butterfly, plan, trials=1)

    def test_structural_checks_run_even_with_zero_trials(self, fig2):
        plan = synthesize(fig2, Demand(2, 1, 1), seed=7)
        report = verify_plan(fig2, plan, trials=0)
        assert report.passed and report.trials == 0

    @pytest.mark.parametrize("dropped", [False, True], ids=["good", "dropped-input"])
    @pytest.mark.parametrize("trials", [1.5, True, False, "3", None, -1])
    def test_trials_other_than_a_nonnegative_int_are_refused(self, fig2, trials, dropped):
        plan = synthesize(fig2, Demand(2, 1, 1), seed=7)
        if dropped:
            code = plan.multicast
            victim = code.inputs_t1[0]
            code = dataclasses.replace(
                code, local_inputs={**code.local_inputs, victim: code.local_inputs[victim][1:]}
            )
            plan = dataclasses.replace(plan, multicast=code)
        with pytest.raises(InputError, match=re.escape(f"nonnegative integer, got {trials!r}")):
            verify_plan(fig2, plan, trials=trials)


def _toggled(items, item):
    """items, sorted, with item added if absent and removed if present."""
    return tuple(sorted(set(items) ^ {item}))


def _tampered_plans(net, plan, rng):
    """The plan, then one copy each with a local input toggled, a decode
    position toggled and a decode input list changed, at sites drawn from
    rng. Each copy still passes check_plan."""
    code = plan.multicast
    if not code.h0:
        return [plan]

    eid = rng.choice(code.support)
    tail = net.edge(eid).tail
    if tail == net.source:
        candidates = [("msg", j) for j in range(code.h0)]
    else:
        before = code.support[: code.support.index(eid)]
        candidates = [("edge", e) for e in before if net.edge(e).head == tail]
    toggled = _toggled(code.local_inputs[eid], rng.choice(candidates))
    local = {"local_inputs": {**code.local_inputs, eid: toggled}}

    name = rng.choice(("decode_t1", "decode_t2"))
    rows = list(getattr(code, name))
    i = rng.randrange(code.h0)
    rows[i] = _toggled(rows[i], rng.randrange(code.h0))
    decode = {name: tuple(rows)}

    name, terminal = rng.choice((("inputs_t1", 0), ("inputs_t2", 1)))
    entering = [e for e in code.support if net.edge(e).head == net.terminals[terminal]]
    inputs = list(getattr(code, name))
    inputs[rng.randrange(code.h0)] = rng.choice(entering)
    rng.shuffle(inputs)
    wiring = {name: tuple(inputs)}

    return [plan] + [
        dataclasses.replace(plan, multicast=dataclasses.replace(code, **change))
        for change in (local, decode, wiring)
    ]


class TestVerifyMatchesSimulation:
    """verify_plan against the per-trial simulation it replaced (oracles)."""

    @staticmethod
    def _outcome(verify, net, plan, trials):
        """("failures", the failures as tuples), or (exception type, message)."""
        try:
            report = verify(net, plan, trials, 0)
        except DualcastError as exc:
            return type(exc), str(exc)
        if isinstance(report, tuple):
            return "failures", report
        return "failures", tuple((f.trial, f.terminal, f.detail) for f in report.failures)

    @pytest.mark.parametrize("field_bits", [1, 8, 16])
    def test_same_failures_and_errors_as_the_simulation(self, field_bits):
        rng = random.Random(field_bits)
        cases = [(fig2_network(), Demand(2, 1, 1))] + random_feasible_instances(
            seed=77, count=150
        )
        seen = set()
        for i, (net, d) in enumerate(cases):
            plan = synthesize(net, d, seed=i, field_bits=field_bits)
            for candidate in _tampered_plans(net, plan, rng):
                for trials in (0, 1, 3, 100):
                    want = self._outcome(verify_by_simulation, net, candidate, trials)
                    got = self._outcome(verify_plan, net, candidate, trials)
                    assert got == want, (i, trials)
                    seen.add(want[0] if want[0] != "failures" else bool(want[1]))
        assert seen == {False, True, PlanMismatchError}

    def test_code_is_evaluated_once_whatever_the_trial_count(self, fig2, monkeypatch):
        calls = []
        real = planner.apply_code

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(planner, "apply_code", counting)
        plan = synthesize(fig2, Demand(2, 1, 1), seed=7)
        broken = _tampered_plans(fig2, plan, random.Random(0))[1]
        for candidate, passed in ((plan, True), (broken, False)):
            for trials in (0, 1, 100, 1000):
                calls.clear()
                if passed or trials:
                    report = verify_plan(fig2, candidate, trials=trials)
                    assert report.passed == passed
                else:
                    with pytest.raises(PlanMismatchError):
                        verify_plan(fig2, candidate, trials=trials)
                assert len(calls) == 1  # on the unit messages 1 << j


@pytest.mark.parametrize("bits", range(1, 17))
def test_one_proof_covers_every_symbol_width(fig2, bits):
    # The XORs do not depend on the width m: the plan verifies in each, and a
    # tampered copy fails the trials of m-bit symbols as the simulation does.
    d = Demand(2, 1, 1)
    plan = synthesize(fig2, d, seed=7, field_bits=bits)
    assert dataclasses.replace(plan.multicast, field_bits=8) == synthesize(fig2, d, seed=7).multicast
    assert verify_plan(fig2, plan, trials=20, seed=bits).passed
    broken = _tampered_plans(fig2, plan, random.Random(0))[1]
    report = verify_plan(fig2, broken, trials=20, seed=bits)
    want = verify_by_simulation(fig2, broken, 20, bits)
    assert want and tuple((f.trial, f.terminal, f.detail) for f in report.failures) == want


NO_EDGE = 10**6  # an edge id no test network has

# Each fault _faulted_plans plants, with the error it names when it is the
# plan's first fault.
UNORDERED = "not in increasing order without repeats"
PLAN_FAULTS = {
    "route count": (PlanMismatchError, r"x[12] route count != demand"),
    "empty route": (PlanMismatchError, r"empty path"),
    "edge repeated in a route": (PlanMismatchError, r"repeated edge within path"),
    "route not from the source": (PlanMismatchError, r"path does not start at .*"),
    "route not to its terminal": (PlanMismatchError, r"path does not end at .*"),
    "non-contiguous route": (PlanMismatchError, r"edges \d+ and \d+ are not contiguous"),
    "unknown route edge": (UnknownEdgeError, rf"no edge with id {NO_EDGE}"),
    "shared route edge": (PlanMismatchError, r"routes share an edge"),
    "unknown coded edge": (PlanMismatchError, r"coded edge is not in the network"),
    "support on a route": (PlanMismatchError, r"coded support overlaps a route"),
    "code rate": (PlanMismatchError, r"code rate != demand"),
    "support edge twice": (PlanMismatchError, r"coded edge \d+ is listed twice in the support"),
    "no local inputs": (PlanMismatchError, r"coded edge \d+ has no local inputs"),
    "message off the source": (PlanMismatchError, r"bad message input on edge \d+"),
    "message index >= h0": (PlanMismatchError, r"bad message input on edge \d+"),
    "feeder not before": (PlanMismatchError, r"bad edge input \d+ on edge \d+"),
    "unknown input kind": (PlanMismatchError, r"unknown input kind 'wire'"),
    "local inputs out of order": (PlanMismatchError, rf"local inputs of edge \d+ are {UNORDERED}"),
    "local input repeated": (PlanMismatchError, rf"local inputs of edge \d+ are {UNORDERED}"),
    "extra local_inputs": (
        PlanMismatchError,
        rf"support and local_inputs disagree on edge {NO_EDGE}",
    ),
    "decode input count": (PlanMismatchError, r"decode input count != rate"),
    "decode input elsewhere": (PlanMismatchError, r"decode input \d+ does not enter '.*'"),
    "decode row count": (PlanMismatchError, r"decode row count != rate"),
    "decode row out of order": (PlanMismatchError, rf"decode row \d+ of T[12] is {UNORDERED}"),
    "decode position repeated": (PlanMismatchError, rf"decode row \d+ of T[12] is {UNORDERED}"),
    "decode position out of range": (
        PlanMismatchError,
        r"decode row \d+ of T[12] names a position outside 0\.\.\d+",
    ),
}


def _faulted_plans(net, plan, rng):
    """(fault, plan) pairs: the plan with one fault of PLAN_FAULTS planted in
    each, at a site drawn from rng. A fault that needs more routes, coded
    edges, inputs or positions than the plan has is left out."""
    code = plan.multicast
    h0 = code.h0
    out = []

    def recode(fault, **change):
        recoded = dataclasses.replace(code, **change)
        out.append((fault, dataclasses.replace(plan, multicast=recoded)))

    label = rng.choice(("x1", "x2"))
    routes = list(getattr(plan, f"{label}_routes"))
    fewer = routes[1:] if routes and rng.random() < 0.5 else routes + [EdgePath((NO_EDGE,))]
    out.append(("route count", dataclasses.replace(plan, **{f"{label}_routes": tuple(fewer)})))
    routed = [
        (label, i) for label in ("x1", "x2") for i in range(len(getattr(plan, f"{label}_routes")))
    ]
    if routed:
        label, i = rng.choice(routed)
        routes = list(getattr(plan, f"{label}_routes"))
        edges = routes[i].edges

        def reroute(fault, new_edges):
            new = routes[:i] + [EdgePath(tuple(new_edges))] + routes[i + 1 :]
            out.append((fault, dataclasses.replace(plan, **{f"{label}_routes": tuple(new)})))

        reroute("empty route", ())
        reroute("edge repeated in a route", edges + (rng.choice(edges),))
        reroute("unknown route edge", edges[:1] + (NO_EDGE,) + edges[1:])
        if len(edges) > 1:
            reroute("route not from the source", edges[1:])
            reroute("route not to its terminal", edges[:-1])
        if len(edges) > 2:
            reroute("non-contiguous route", (edges[0], edges[2], edges[1]) + edges[3:])
        if len(routes) > 1:
            other = routes[rng.choice([j for j in range(len(routes)) if j != i])].edges
            reroute("non-contiguous route", edges + other)
            reroute("shared route edge", other)
        recode("support on a route", support=code.support + (rng.choice(edges),))
    recode("unknown coded edge", support=code.support + (NO_EDGE,))
    recode("code rate", h0=h0 + 1)
    recode("extra local_inputs", local_inputs={**code.local_inputs, NO_EDGE: ()})
    name = rng.choice(("inputs_t1", "inputs_t2"))
    recode("decode input count", **{name: getattr(code, name) + (NO_EDGE,)})
    name = rng.choice(("decode_t1", "decode_t2"))
    recode("decode row count", **{name: getattr(code, name) + ((),)})
    if not h0:
        return out
    eid = rng.choice(code.support)

    def with_inputs(fault, inputs, at=eid):
        recode(fault, local_inputs={**code.local_inputs, at: inputs})

    def with_input(fault, key, at=eid):
        with_inputs(fault, tuple(sorted({*code.local_inputs[at], key})), at)

    recode("support edge twice", support=code.support + (eid,))
    recode(
        "no local inputs",
        local_inputs={e: keys for e, keys in code.local_inputs.items() if e != eid},
    )
    with_input("unknown input kind", ("wire", 0))
    with_input("feeder not before", ("edge", eid))
    if any(kind == "edge" for keys in code.local_inputs.values() for kind, _ in keys):
        recode("feeder not before", support=code.support[::-1])
    off_source = [e for e in code.support if net.edge(e).tail != net.source]
    if off_source:
        with_input("message off the source", ("msg", 0), at=rng.choice(off_source))
    on_source = [e for e in code.support if net.edge(e).tail == net.source]
    with_input("message index >= h0", ("msg", h0 + rng.randrange(2)), at=rng.choice(on_source))
    inputs = code.local_inputs[eid]
    with_inputs("local input repeated", inputs + inputs[-1:])
    merging = [e for e in code.support if len(code.local_inputs[e]) > 1]
    if merging:
        at = rng.choice(merging)
        with_inputs("local inputs out of order", code.local_inputs[at][::-1], at)
    name, other = rng.choice((("inputs_t1", "inputs_t2"), ("inputs_t2", "inputs_t1")))
    recode("decode input elsewhere", **{name: getattr(code, other)})
    name = rng.choice(("decode_t1", "decode_t2"))
    rows = getattr(code, name)

    def with_row(fault, i, row):
        recode(fault, **{name: rows[:i] + (row,) + rows[i + 1 :]})

    i = rng.randrange(h0)
    with_row("decode position repeated", i, rows[i] + rows[i][-1:])
    with_row("decode position out of range", i, rng.choice(((-1,) + rows[i], rows[i] + (h0,))))
    long_rows = [i for i, row in enumerate(rows) if len(row) > 1]
    if long_rows:
        i = rng.choice(long_rows)
        with_row("decode row out of order", i, rows[i][::-1])
    return out


class TestCheckPlanMatchesReference:
    """check_plan against the per-route check_path reference (oracles)."""

    @staticmethod
    def _outcome(check, net, plan):
        try:
            check(net, plan)
        except DualcastError as exc:
            return type(exc), str(exc)
        return None

    def test_every_fault_gives_the_reference_error(self):
        rng = random.Random(2009)
        cases = [(fig2_network(), Demand(2, 1, 1)), (fig2_network(), Demand(1, 2, 1))]
        cases += random_feasible_instances(seed=19, count=60)
        cyclic = []
        while len(cyclic) < 8:
            net = small_cyclic_network(rng)
            d = rng.choice(all_demands(4))
            if d.total and check_feasibility(net, d).feasible:
                cyclic.append((net, d))
        fired = dict.fromkeys(PLAN_FAULTS, 0)
        for i, (net, d) in enumerate(cases + cyclic):
            try:
                plan = synthesize(net, d, seed=i, field_bits=(1, 8, 16)[i % 3])
            except CyclicSupportError:
                continue
            assert self._outcome(check_plan, net, plan) is None
            for fault, candidate in _faulted_plans(net, plan, rng):
                want = self._outcome(check_plan_reference, net, candidate)
                assert self._outcome(check_plan, net, candidate) == want, (i, fault)
                kind, pattern = PLAN_FAULTS[fault]
                if want and want[0] is kind and re.fullmatch(pattern, want[1]):
                    fired[fault] += 1
        assert all(fired.values()), fired


class TestDiagnostics:
    def test_diagnostics_expose_both_passes(self, fig2):
        d = Demand(2, 1, 1)
        plan, passes = synthesize_with_diagnostics(fig2, d, seed=7)
        assert plan.x1_routes == passes.pass1.routes and len(plan.x1_routes) == d.h1
        assert plan.x2_routes == passes.pass2.routes and len(plan.x2_routes) == d.h2
        assert plan.demand == d
        # The second pass ran on the first pass's augmented graph, off the x1 routes.
        assert passes.pass2.state.net is passes.pass1.state.net
        x1_edges = real_route_edges(passes.pass1)
        assert x1_edges == {0, 4}
        for state in (passes.pass2.initial, passes.pass2.state):
            for p in state.green_paths + state.red_paths:
                assert x1_edges.isdisjoint(p.edges)


def test_bundled_fixture_set_synthesizes_and_verifies():
    from dualcast.cli import dump_plan

    instances = random_feasible_instances(seed=1905, count=50)
    assert len(instances) == 50
    for i, (net, d) in enumerate(instances):
        plan = synthesize(net, d, seed=i)
        assert verify_plan(net, plan, trials=3, seed=i).passed
        assert dump_plan(plan) == dump_plan(synthesize(net, d, seed=i))


@given(feasible_instances())
@settings(max_examples=60, deadline=None)
def test_soundness_every_synthesized_plan_verifies(instance):
    net, d = instance
    plan = synthesize(net, d, seed=11)
    assert verify_plan(net, plan, trials=4, seed=3).passed


@given(feasible_instances())
@settings(max_examples=40, deadline=None)
def test_determinism_across_repeated_runs(instance):
    net, d = instance
    assert synthesize(net, d, seed=5) == synthesize(net, d, seed=5)
