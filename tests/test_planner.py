from __future__ import annotations

import dataclasses
import random

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
)
from dualcast.flow import max_flow
from dualcast.fixtures import fig2_network, fig2_path
from dualcast.netgraph import Demand, remove_edges
from dualcast.planner import (
    check_feasibility,
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
from oracles import real_route_edges, route_edges, verify_by_simulation
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
        assert len(runs) == 3  # two Dinic runs, the pair run continuing the T1 run
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
        # Pass 1's two flows, each decomposed straight from its residual
        # (edge_disjoint_paths), so none goes through max_flow; pass 2 starts
        # from pass 1's coloring on the same augmented graph, and the code
        # reuses pass 2's paths.
        net = fig2_network()  # a fresh object: its cuts are not cached yet
        flows = self._count(monkeypatch, "max_flow", flow, recolor, nccode)
        runs = self._count(monkeypatch, "_augment", flow)
        checks = self._count(monkeypatch, "check_feasibility", planner)
        augmented = self._count(monkeypatch, "build_augmented", augment, planner, recolor)
        removed = self._count(monkeypatch, "remove_edges", netgraph, planner, recolor)
        synthesize(net, Demand(2, 1, 1), seed=7)
        assert (len(flows), len(runs), len(checks)) == (0, 2, 0)
        assert (len(augmented), len(removed)) == (1, 0)
        # An infeasible demand within the degree bounds: one pass-1 flow falls
        # short, then the report's cuts take two Dinic runs outside max_flow,
        # the pair run continuing the T1 run (three _augment calls).
        flows.clear()
        runs.clear()
        with pytest.raises(InfeasibleDemandError, match="ineq3"):
            synthesize(net, Demand(1, 2, 2), seed=7)
        assert (len(flows), len(runs), len(checks)) == (0, 4, 1)
        # The cuts are cached on the network: the next refusal only compares.
        flows.clear()
        runs.clear()
        with pytest.raises(InfeasibleDemandError, match="ineq3"):
            synthesize(net, Demand(0, 2, 3), seed=7)
        assert (len(flows), len(runs), len(checks)) == (0, 1, 2)

    def test_demand_beyond_a_terminal_in_degree_is_refused_before_augmenting(
        self, fig2, monkeypatch
    ):
        augmented = self._count(monkeypatch, "build_augmented", planner)
        d = Demand(10**9, 0, 0)
        with pytest.raises(InfeasibleDemandError) as exc:
            synthesize(fig2, d, seed=0)
        assert exc.value.report == check_feasibility(fig2, d)
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

    def test_corrupted_coefficient_is_detected(self, fig2):
        plan = synthesize(fig2, Demand(2, 1, 1), seed=7)
        code = plan.multicast
        # Flip one local coefficient on a decode-critical edge.
        victim = code.inputs_t1[0]
        coeffs = dict(code.local_coeffs[victim])
        key = next(iter(coeffs))
        coeffs[key] ^= 1
        broken_code = dataclasses.replace(
            code, local_coeffs={**code.local_coeffs, victim: coeffs}
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


def _tampered_plans(net, plan, rng):
    """The plan, then one copy each with a wrong local coefficient,
    decode-matrix entry and decode input list, at sites and in-field values
    drawn from rng."""
    code = plan.multicast
    if not code.h0:
        return [plan]
    size = code.field.size

    def flip(c):
        return c ^ rng.randrange(1, size)

    eid = rng.choice(code.support)
    coeffs = dict(code.local_coeffs[eid])
    key = rng.choice(sorted(coeffs))
    coeffs[key] = flip(coeffs[key])
    local = {"local_coeffs": {**code.local_coeffs, eid: coeffs}}

    name = rng.choice(("decode_t1", "decode_t2"))
    matrix = [list(row) for row in getattr(code, name)]
    i, j = rng.randrange(code.h0), rng.randrange(code.h0)
    matrix[i][j] = flip(matrix[i][j])
    decode = {name: tuple(map(tuple, matrix))}

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

    def test_code_is_evaluated_h0_times_whatever_the_trial_count(self, fig2, monkeypatch):
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
                assert len(calls) == plan.demand.h0


class TestDiagnostics:
    def test_diagnostics_expose_both_passes(self, fig2):
        d = Demand(2, 1, 1)
        plan, passes = synthesize_with_diagnostics(fig2, d, seed=7)
        assert len(passes.x1_routes) == d.h1
        assert len(passes.x2_routes) == d.h2
        assert plan.demand == d
        # The second pass ran on the first pass's augmented graph, off the x1 routes.
        assert passes.pass2.aug is passes.pass1.aug
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
