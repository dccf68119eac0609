"""Acceptance suite: one pass/fail line per criterion (run with -s to see them).

The randomized DAG sweep (criteria 3-6) and the cyclic sweep (criterion 8)
are each executed once by a module-scoped fixture; criterion tests assert
over their collected results. All comparisons are exact: integer cuts and
XOR codes leave nothing to tolerances.
"""

from __future__ import annotations

import hashlib
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import pytest

from dualcast.augment import T1P, T2P, build_augmented
from dualcast.cli import dump_plan
from dualcast.errors import CyclicSupportError, InfeasibleDemandError
from dualcast.nccode import coding_vectors
from dualcast.netgraph import Demand, Network, remove_edges
from dualcast.planner import check_feasibility, synthesize, synthesize_with_diagnostics, verify_plan

from conftest import all_demands, random_network, small_cyclic_network, wide_network
from oracles import (
    check_lemma,
    exclusively_green,
    gf2_rank,
    min_cut_value,
    red_source_degree,
    reference_plan_text,
    replay_trace,
    route_edges,
    routing_only_exists,
)

N_GRAPHS = 500
SWEEP_SEED = 0x5EED
DEMANDS = all_demands(4)

N_CYCLIC_GRAPHS = 400
CYCLIC_SEED = 2009
# Feasible demands the cyclic sweep refuses with CyclicSupportError, as
# measured; coding on every support in-edge of a tail refused 117.
CYCLIC_REFUSALS = 0
# The sweeps request these symbol widths in turn; the code is the same XORs in each.
FIELD_BITS = (1, 8, 16)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({title}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({title}): PASS")


@dataclass
class SweepData:
    n_instances: int = 0
    n_feasible: int = 0
    synth_verify_seconds: float = 0.0
    decision_mismatches: list = field(default_factory=list)
    verify_failures: list = field(default_factory=list)
    lemma_failures: list = field(default_factory=list)
    red_count_violations: list = field(default_factory=list)
    route_extraction_faults: list = field(default_factory=list)
    budget_trips: list = field(default_factory=list)
    x1_crossings: list = field(default_factory=list)
    residual_shortfalls: list = field(default_factory=list)
    rank_failures: list = field(default_factory=list)
    wrong_width: list = field(default_factory=list)
    plan_hash: object = field(default_factory=hashlib.sha256)  # over each plan's dump_plan
    writer_mismatches: list = field(default_factory=list)  # dump_plan != the reference writer


def _pass_two_touches_x1(passes, plan) -> bool:
    """Whether any of pass 2's paths, first or final, uses an edge of an x1 route."""
    x1 = {eid for p in plan.x1_routes for eid in p.edges}
    p2 = passes.pass2
    paths = (*p2.initial.green_paths, *p2.initial.red_paths,
             *p2.state.green_paths, *p2.state.red_paths)
    return any(not x1.isdisjoint(p.edges) for p in paths)


def _audit_recoloring(data: SweepData, tag, net: Network, passes, d: Demand) -> None:
    """Criterion 5 evidence: per-step conservation, fixpoint counts, budgets.

    Each route must be a prefix, over net's edges, of an exclusively green
    path whose next edge enters the gate.
    """
    real = {e.eid for e in net.edges}
    jobs = (
        (passes.pass1, d.h0 + d.h2, d.h1, T1P),
        (passes.pass2, d.h0, d.h2, T2P),
    )
    for result, expected_red, n_routes, gate in jobs:
        ext = result.state.net
        if red_source_degree(result.initial) != expected_red:
            data.red_count_violations.append((tag, "initial"))
        # Replay step by step so the invariant is observed after every rewrite.
        for k in range(1, len(result.trace.steps) + 1):
            partial = type(result.trace)(steps=result.trace.steps[:k])
            state = replay_trace(result.initial, partial)
            if red_source_degree(state) != expected_red:
                data.red_count_violations.append((tag, k))
        final = replay_trace(result.initial, result.trace)
        if final != result.state:
            data.red_count_violations.append((tag, "replay-divergence"))
        exclusive = exclusively_green(result.state)
        if len(exclusive) < n_routes or len(result.routes) != n_routes:
            data.route_extraction_faults.append((tag, "count"))
        for p in result.routes:
            k = len(p.edges)
            if not real.issuperset(p.edges) or not any(
                q.edges[:k] == p.edges and len(q.edges) > k and ext.edge(q.edges[k]).head == gate
                for q in exclusive
            ):
                data.route_extraction_faults.append((tag, "gate"))
        budget = (
            max(1, len(ext.edges))
            * max(1, len(result.initial.green_paths))
            * max(1, len(result.initial.red_paths))
        )
        if len(result.trace.steps) > budget:
            data.budget_trips.append((tag, len(result.trace.steps), budget))


def _audit_residual(data: SweepData, tag, net: Network, d: Demand, plan) -> None:
    """Criterion 6 evidence: residual flows to the virtual terminals and ranks."""
    residual = remove_edges(net, route_edges(plan))
    ext = build_augmented(residual, d)
    for sink in (T1P, T2P):
        if min_cut_value(ext, net.source, {sink}) < d.h0:
            data.residual_shortfalls.append((tag, sink))
    if d.h0:
        code = plan.multicast
        vectors = coding_vectors(code)
        for inputs in (code.inputs_t1, code.inputs_t2):
            transfer = [vectors[eid] for eid in inputs]
            if gf2_rank(transfer) != d.h0:
                data.rank_failures.append(tag)


@pytest.fixture(scope="module")
def sweep() -> SweepData:
    rng = random.Random(SWEEP_SEED)
    graphs = [random_network(rng) for _ in range(N_GRAPHS)]
    data = SweepData()
    for gi, net in enumerate(graphs):
        for di, d in enumerate(DEMANDS):
            tag = (gi, (d.h0, d.h1, d.h2))
            data.n_instances += 1
            seed = gi * 1000 + di
            bits = FIELD_BITS[seed % len(FIELD_BITS)]
            expected = check_feasibility(net, d).feasible

            t0 = time.perf_counter()
            plan = passes = None
            try:
                plan, passes = synthesize_with_diagnostics(net, d, seed, field_bits=bits)
            except InfeasibleDemandError:
                pass
            except Exception as exc:  # synthesis must never crash on the sweep
                data.decision_mismatches.append((tag, f"error: {exc!r}"))
                data.synth_verify_seconds += time.perf_counter() - t0
                continue
            if plan is not None:
                report = verify_plan(net, plan, trials=3, seed=seed)
                if not report.passed:
                    data.verify_failures.append(tag)
            data.synth_verify_seconds += time.perf_counter() - t0

            if (plan is not None) != expected:
                data.decision_mismatches.append(
                    (tag, f"synthesized={plan is not None} feasible={expected}")
                )
            if plan is None:
                continue
            data.n_feasible += 1
            text = dump_plan(plan)
            data.plan_hash.update(text.encode())
            if text != reference_plan_text(plan):
                data.writer_mismatches.append(tag)
            if plan.multicast.field_bits != bits:
                data.wrong_width.append(tag)

            lemma = check_lemma(passes.pass1.state.net, net, d)
            if not lemma.ok:
                data.lemma_failures.append((tag, lemma))
            _audit_recoloring(data, tag, net, passes, d)
            if _pass_two_touches_x1(passes, plan):
                data.x1_crossings.append(tag)
            _audit_residual(data, tag, net, d, plan)
    return data


def test_criterion_1_fixture_reproduction(fig2):
    with criterion(1, "bundled fixture reproduction"):
        t0 = time.perf_counter()
        d = Demand(2, 1, 1)
        report = check_feasibility(fig2, d)
        assert report.feasible
        assert report.cuts[2] == 4
        plan = synthesize(fig2, d, seed=7)
        assert [list(p.edges) for p in plan.x1_routes] == [[0, 4]]  # via 1->6
        assert [list(p.edges) for p in plan.x2_routes] == [[3, 5]]  # via 1->7
        butterfly_core = {1, 2, 6, 7, 8, 9, 10, 11, 12}
        assert set(plan.multicast.support) <= butterfly_core
        assert route_edges(plan).isdisjoint(plan.multicast.support)
        outcome = verify_plan(fig2, plan, trials=100)
        assert outcome.passed and outcome.trials == 100
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_coding_is_essential_on_the_fixture(fig2):
    with criterion(2, "routing-only search fails where synthesis succeeds"):
        t0 = time.perf_counter()
        d = Demand(2, 1, 1)
        assert routing_only_exists(fig2, d) is False
        plan = synthesize(fig2, d, seed=7)
        assert plan.multicast.h0 == 2
        # Sanity for the search itself: drop the shared rate and routing works.
        assert routing_only_exists(fig2, Demand(0, 1, 1)) is True
        assert time.perf_counter() - t0 < 10.0


def test_criterion_3_capacity_region_sweep(sweep):
    with criterion(3, "synthesis succeeds exactly on the cut region"):
        assert sweep.n_instances == N_GRAPHS * len(DEMANDS)
        assert sweep.n_feasible > 1000  # the sweep must actually exercise synthesis
        assert sweep.decision_mismatches == []
        assert sweep.verify_failures == []
        assert sweep.wrong_width == []
        assert sweep.synth_verify_seconds < 60.0


def test_criterion_4_virtual_cut_identities(sweep):
    with criterion(4, "virtual-terminal min-cut identities"):
        assert sweep.n_feasible > 0
        assert sweep.lemma_failures == []


def test_criterion_5_recoloring_invariants(sweep):
    with criterion(5, "recoloring conservation, extraction, budgets"):
        assert sweep.red_count_violations == []
        assert sweep.route_extraction_faults == []
        assert sweep.budget_trips == []
        assert sweep.x1_crossings == []


def test_criterion_6_residual_multicast_guarantee(sweep):
    with criterion(6, "residual flows and transfer ranks"):
        assert sweep.residual_shortfalls == []
        assert sweep.rank_failures == []


def test_criterion_7_byte_identical_plans(fig2):
    with criterion(7, "determinism of serialized plans"):
        d = Demand(2, 1, 1)
        first = dump_plan(synthesize(fig2, d, seed=2026)).encode()
        second = dump_plan(synthesize(fig2, d, seed=2026)).encode()
        assert first == second
        # No coded value depends on the seed: only its own key differs.
        other = dump_plan(synthesize(fig2, d, seed=2027)).encode()
        assert other.replace(b'"seed": 2027', b'"seed": 2026') == first


def test_criterion_7_pass_two_order_is_pinned():
    with criterion(7, "plan bytes where pass 2 follows pass 1's red paths"):
        # Pass 2's green paths are pass 1's red paths in pass 1's order, so
        # the two x2 routes come out in this order. Pass 2 built from fresh
        # flows on a residual network gives the same routes and code the other
        # way round. So this pin shows the hand-off, which the fig2 and WIDE
        # (5, 1, 0) pins cannot: their bytes are the same either way.
        net = wide_network()
        plan = synthesize(net, Demand(2, 1, 2), seed=11)
        assert [list(p.edges) for p in plan.x2_routes] == [[4, 18, 36, 51], [3, 15, 33, 49]]
        assert verify_plan(net, plan, trials=0).passed
        digest = hashlib.sha256(dump_plan(plan).encode()).hexdigest()
        assert digest == "0552e6f19e62e20fb2d283beb39a7089e2d90a2365ada1ccde9d03a4c55021a9"


@dataclass
class CyclicSweepData:
    n_feasible: int = 0
    decision_mismatches: list = field(default_factory=list)
    verify_failures: list = field(default_factory=list)
    refusals: list = field(default_factory=list)
    wrong_width: list = field(default_factory=list)
    x1_crossings: list = field(default_factory=list)
    plan_hash: object = field(default_factory=hashlib.sha256)  # over each plan's dump_plan
    writer_mismatches: list = field(default_factory=list)  # dump_plan != the reference writer


@pytest.fixture(scope="module")
def cyclic_sweep() -> CyclicSweepData:
    rng = random.Random(CYCLIC_SEED)
    data = CyclicSweepData()
    for gi in range(N_CYCLIC_GRAPHS):
        net = small_cyclic_network(rng)
        for di, d in enumerate(DEMANDS):
            tag = (gi, (d.h0, d.h1, d.h2))
            bits = FIELD_BITS[(gi + di) % len(FIELD_BITS)]
            feasible = check_feasibility(net, d).feasible
            data.n_feasible += feasible
            try:
                plan, passes = synthesize_with_diagnostics(net, d, seed=gi, field_bits=bits)
            except InfeasibleDemandError:
                if feasible:
                    data.decision_mismatches.append(tag)
                continue
            except CyclicSupportError:
                data.refusals.append(tag)
                if not feasible:
                    data.decision_mismatches.append(tag)
                continue
            if not feasible:
                data.decision_mismatches.append(tag)
            text = dump_plan(plan)
            data.plan_hash.update(text.encode())
            if text != reference_plan_text(plan):
                data.writer_mismatches.append(tag)
            if not verify_plan(net, plan, trials=3, seed=gi).passed:
                data.verify_failures.append(tag)
            if plan.multicast.field_bits != bits:
                data.wrong_width.append(tag)
            if _pass_two_touches_x1(passes, plan):
                data.x1_crossings.append(tag)
    return data


def test_criterion_8_cyclic_networks(cyclic_sweep):
    with criterion(8, "cyclic networks synthesize on the cut region"):
        assert cyclic_sweep.n_feasible > 2000
        assert cyclic_sweep.decision_mismatches == []
        assert cyclic_sweep.verify_failures == []
        assert cyclic_sweep.wrong_width == []
        assert cyclic_sweep.x1_crossings == []
        assert len(cyclic_sweep.refusals) == CYCLIC_REFUSALS, cyclic_sweep.refusals


def test_criterion_7_sweep_plan_bytes_are_pinned(sweep, cyclic_sweep):
    with criterion(7, "plan bytes of every plan both sweeps synthesize"):
        # One sha256 over the DAG sweep's plan digest and the cyclic sweep's,
        # each a sha256 over dump_plan of its plans in synthesis order.
        both = sweep.plan_hash.hexdigest() + cyclic_sweep.plan_hash.hexdigest()
        digest = hashlib.sha256(both.encode()).hexdigest()
        assert digest == "8cd32b442f495f733ad4d9cf8fcef0bf9c64ae9366f29f4cc47d498aec9028e2"


def test_criterion_7_sweep_plans_are_written_as_the_reference_writes_them(sweep, cyclic_sweep):
    with criterion(7, "dump_plan equals the stdlib writer on every sweep plan"):
        assert sweep.n_feasible > 0 and cyclic_sweep.n_feasible > 0
        assert sweep.writer_mismatches == []
        assert cyclic_sweep.writer_mismatches == []
