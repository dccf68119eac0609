from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualcast.augment import T1P, T2P, Y1, build_augmented
from dualcast.errors import (
    InvariantError,
    NonterminationError,
    TheoremViolationError,
    UnknownEdgeError,
)
from dualcast.fixtures import fig2_network
from dualcast.flow import EdgePath, check_path, decompose_paths, max_flow
from dualcast.netgraph import Demand, remove_edges
from dualcast.planner import check_feasibility, synthesize_with_diagnostics
from dualcast.recolor import (
    ColoringState,
    _arrival,
    extract_exclusive_green,
    run_to_fixpoint,
    second_pass,
    single_pass,
    symmetric_pass,
)

from conftest import (
    mknet,
    parallel_net,
    random_feasible_instances,
    small_cyclic_network,
    wide_network,
)
from oracles import (
    algorithm_a,
    check_coloring,
    cond,
    edge_colors,
    exclusively_green,
    fixpoint_by_steps,
    path_nodes,
    real_route_edges,
    red_source_degree,
    replay_trace,
    visits,
)
from strategies import crossing_instances, feasible_instances


def make_state(net, greens, reds):
    return ColoringState(
        net=net,
        green_paths=tuple(EdgePath(tuple(p)) for p in greens),
        red_paths=tuple(EdgePath(tuple(p)) for p in reds),
    )


@pytest.fixture
def shared_first_edge_state():
    # s -e0/e1/e2-> v, then v -> y (e3) and v -> t (e4).
    net = mknet(
        [("s", "v"), ("s", "v"), ("s", "v"), ("v", "y"), ("v", "t")],
        source="s",
        terminals=("y", "t"),
    )
    return make_state(net, greens=[[0, 3]], reds=[[0, 4]])


class TestCond:
    def test_all_green_path_satisfies(self):
        net = parallel_net(2, 1)
        state = make_state(net, greens=[[0]], reds=[[2]])
        assert cond(state.green_paths[0], state)

    def test_dual_first_edge_satisfies_regardless_of_rest(self, shared_first_edge_state):
        state = shared_first_edge_state
        assert edge_colors(state).get(0, frozenset()) == frozenset({"green", "red"})
        assert cond(state.green_paths[0], state)

    def test_interior_dual_edge_violates(self):
        # Green s->a->b->y, red shares only the middle edge a->b.
        net = mknet(
            [("s", "a"), ("a", "b"), ("b", "y"), ("s", "a"), ("b", "t")],
            source="s",
            terminals=("y", "t"),
        )
        state = make_state(net, greens=[[0, 1, 2]], reds=[[3, 1, 4]])
        assert not cond(state.green_paths[0], state)


class TestAlgorithmA:
    def test_disjoint_state_halts(self):
        net = parallel_net(1, 1)
        state = make_state(net, greens=[[0]], reds=[[1]])
        new_state, step = algorithm_a(0, state)
        assert step is None
        assert new_state == state

    def test_shared_first_edge_swap_is_identity(self, shared_first_edge_state):
        state = shared_first_edge_state
        new_state, step = algorithm_a(0, state)
        assert step is not None
        assert step.shared_edge == 0
        assert step.prefix_swapped == EdgePath((0,))
        assert new_state.red_paths == state.red_paths  # swapped prefix is identical
        assert cond(new_state.green_paths[0], new_state)

    def test_middle_edge_share_moves_red_onto_green_prefix(self):
        # Green s->a->m->n->y and red s->b->m->n->t share m->n.
        net = mknet(
            [
                ("s", "a"),   # 0 green
                ("a", "m"),   # 1 green
                ("m", "n"),   # 2 shared
                ("n", "y"),   # 3 green
                ("s", "b"),   # 4 red
                ("b", "m"),   # 5 red
                ("n", "t"),   # 6 red
            ],
            source="s",
            terminals=("y", "t"),
        )
        state = make_state(net, greens=[[0, 1, 2, 3]], reds=[[4, 5, 2, 6]])
        assert not cond(state.green_paths[0], state)
        new_state, step = algorithm_a(0, state)
        assert step.shared_edge == 2
        assert new_state.red_paths[0] == EdgePath((0, 1, 2, 6))
        # The abandoned red prefix lost its color; the green prefix gained red.
        assert edge_colors(new_state).get(4, frozenset()) == frozenset()
        assert edge_colors(new_state).get(5, frozenset()) == frozenset()
        assert edge_colors(new_state).get(0, frozenset()) == frozenset({"green", "red"})
        assert cond(new_state.green_paths[0], new_state)
        assert new_state.green_paths == state.green_paths


class TestRunToFixpoint:
    def test_disjoint_families_need_zero_steps(self):
        net = parallel_net(2, 2)
        state = make_state(net, greens=[[0], [1]], reds=[[2], [3]])
        final, trace = run_to_fixpoint(state)
        assert final == state
        assert trace.steps == ()

    def test_budget_zero_trips_on_required_work(self):
        net = mknet(
            [("s", "a"), ("a", "b"), ("b", "y"), ("s", "a"), ("b", "t")],
            source="s",
            terminals=("y", "t"),
        )
        state = make_state(net, greens=[[0, 1, 2]], reds=[[3, 1, 4]])
        with pytest.raises(NonterminationError):
            run_to_fixpoint(state, budget=0)

    def test_a_step_that_frees_an_earlier_green_path_returns_to_it(self):
        # Green 0 (s-a-b-y) starts on red 0's first edge, so it holds; green 1
        # (s-c-d-y) meets red 0 at c->d. Stepping green 1 hands red 0 the
        # prefix s->c->d, and red 0 gives up s->a and a->c, so green 0's first
        # red edge moves on to b->y, on red 1, and the next step is on green 0.
        net = mknet(
            [("s", "a"), ("a", "b"), ("b", "y"), ("s", "c"), ("c", "d"), ("d", "y"),
             ("a", "c"), ("d", "t"), ("s", "b")],
            source="s",
            terminals=("y", "t"),
        )
        state = make_state(net, greens=[[0, 1, 2], [3, 4, 5]], reds=[[0, 6, 4, 7], [8, 2]])
        final, trace = run_to_fixpoint(state)
        assert [
            (step.green_index, step.shared_edge, step.red_index, step.prefix_swapped.edges)
            for step in trace.steps
        ] == [(1, 4, 0, (3, 4)), (0, 2, 1, (0, 1, 2))]
        assert [p.edges for p in final.red_paths] == [(3, 4, 7), (0, 1, 2)]
        assert (final, trace) == fixpoint_by_steps(state)

    def test_fig2_pass_one_reaches_the_forced_route(self, fig2):
        d = Demand(2, 1, 1)
        result = single_pass(fig2, d)
        ext = result.state.net
        assert ext == build_augmented(fig2, d)
        exclusive = exclusively_green(result.state)
        assert len(exclusive) == 1
        assert visits(ext, exclusive[0], T1P)
        assert exclusive[0].edges[0] == 0  # the outer branch toward T1
        assert len(result.routes) == 1
        red_edges = {eid for p in result.state.red_paths for eid in p.edges}
        for p in exclusive:
            assert not set(p.edges) & red_edges

    def test_replay_reproduces_fixpoint_exactly(self, fig2):
        d = Demand(2, 1, 1)
        result = single_pass(fig2, d)
        replayed = replay_trace(result.initial, result.trace)
        assert replayed == result.state

    def test_red_count_is_conserved_after_every_step(self, fig2):
        d = Demand(2, 1, 1)
        net = build_augmented(fig2, d)
        gflow = max_flow(net, "1", {Y1})
        rflow = max_flow(net, "1", {T2P})
        state = ColoringState(
            net=net,
            green_paths=tuple(decompose_paths(net, gflow, "1", Y1)),
            red_paths=tuple(decompose_paths(net, rflow, "1", T2P)),
        )
        final, trace = run_to_fixpoint(state)
        expected = d.h0 + d.h2
        assert red_source_degree(state) == expected
        for n_steps in range(1, len(trace.steps) + 1):
            partial = replay_trace(
                state, type(trace)(steps=trace.steps[:n_steps])
            )
            assert red_source_degree(partial) == expected
            # Rerouting must keep every red path a source -> T2' walk.
            for p in partial.red_paths:
                assert net.edge(p.edges[0]).tail == "1"
                assert net.edge(p.edges[-1]).head == T2P
        assert red_source_degree(final) == expected
        assert len(final.red_paths) == len(state.red_paths)
        assert len(final.green_paths) == len(state.green_paths)
        assert final.green_paths == state.green_paths  # greens never change shape

    @pytest.mark.parametrize(
        "greens, reds, error",
        [
            ([[0, 1, 2]], [[3]], "path leaves the source again"),  # back through a -> s
            ([[2]], [[0, 1, 3]], "path leaves the source again"),  # two source out-edges
            ([[]], [[3]], "empty path in coloring state"),
            ([[2]], [[1, 3]], "path does not start at the source"),
            ([[0, 2]], [[3]], "path is not contiguous"),  # s -> a, then s -> y
            ([[2]], [[3], [3]], "paths within one color share an edge"),
            ([[2], [9]], [[3]], "no edge with id 9"),
            ([[0, 1]], [[3]], None),  # a path may end back at the source
        ],
    )
    def test_the_oracle_refuses_the_states_run_to_fixpoint_trusts(self, greens, reds, error):
        # run_to_fixpoint does not check its state; the acceptance sweeps run
        # this oracle on every pass's first and final state instead.
        net = mknet(
            [("s", "a"), ("a", "s"), ("s", "y"), ("s", "t")],
            source="s",
            terminals=("y", "t"),
        )
        state = make_state(net, greens=greens, reds=reds)
        if error is None:
            check_coloring(state)
            return
        with pytest.raises((InvariantError, UnknownEdgeError), match=f"^{error}$"):
            check_coloring(state)

    def test_arrival_reads_heads_and_refuses_any_miss(self):
        net = mknet([("s", "a"), ("a", "t"), ("t", "y")], source="s", terminals=("y", "t"))
        assert _arrival(net, EdgePath((0, 1, 2)), "t") == 1
        assert _arrival(net, EdgePath((0, 1, 2)), "y") == 2
        for edges, node in (((0, 9, 1), "t"), ((0, 1, 9), "t"), ((0, 1), "y")):
            with pytest.raises(InvariantError, match=f"^path never reaches {node!r}$"):
                _arrival(net, EdgePath(edges), node)

    def test_only_the_final_state_is_built(self, monkeypatch):
        result = next(
            r for r in _passes(_layered_instances(random.Random(5), count=1))
            if len(r.trace.steps) >= 3
        )
        built = []
        init = ColoringState.__init__

        def counting(state, *args, **kwargs):
            built.append(state)
            init(state, *args, **kwargs)

        monkeypatch.setattr(ColoringState, "__init__", counting)
        final, trace = run_to_fixpoint(result.initial)
        assert len(trace.steps) >= 3
        assert len(built) == 1 and built[0] is final


def _layered_instances(rng, count, width=16, layers=6):
    """Layered DAGs whose columns cross often, each with its maximal demands.

    The source feeds `width` columns of `layers` nodes; every node also links
    to two random nodes of the next layer, and every last-layer node to T1,
    T2 or both. For each shared rate h0 the private rates are as large as the
    cuts allow. Crossing columns make the recoloring take many steps.
    """
    out = []
    for _ in range(count):
        pairs = [("s", f"n0_{j}") for j in range(width)]
        for i in range(layers - 1):
            for j in range(width):
                for k in (j, *rng.sample([k for k in range(width) if k != j], 2)):
                    pairs.append((f"n{i}_{j}", f"n{i + 1}_{k}"))
        for j in range(width):
            for t in rng.choice([("t1",), ("t2",), ("t1", "t2")]):
                pairs.append((f"n{layers - 1}_{j}", t))
        net = mknet(pairs, source="s", terminals=("t1", "t2"))
        c1, c2, c12 = check_feasibility(net, Demand(0, 0, 0)).cuts
        for h0 in range(min(c1, c2) + 1):
            h1 = c1 - h0
            out.append((net, Demand(h0, h1, min(c2 - h0, c12 - h0 - h1))))
    return out


def _passes(instances):
    for net, d in instances:
        passes = symmetric_pass(net, d)
        yield passes.pass1
        yield passes.pass2


def _outcome(fixpoint, state, budget=None):
    try:
        return fixpoint(state, budget)
    except NonterminationError:
        return NonterminationError


def _matches_reference(result) -> int:
    """run_to_fixpoint against the reference stepper on one pass; the step count."""
    expected = fixpoint_by_steps(result.initial)
    assert run_to_fixpoint(result.initial) == expected == (result.state, result.trace)
    for budget in (0, 1):
        got = _outcome(run_to_fixpoint, result.initial, budget)
        assert got == _outcome(fixpoint_by_steps, result.initial, budget)
        assert (got is NonterminationError) == (len(expected[1].steps) > budget)
    return len(expected[1].steps)


class TestAgainstReferenceStepper:
    def test_fixpoints_and_traces_match_on_seeded_instances(self, fig2):
        instances = [(fig2, Demand(2, 1, 1))]
        instances += random_feasible_instances(seed=1905, count=150)
        instances += _layered_instances(random.Random(2009), count=10)
        steps = [_matches_reference(result) for result in _passes(instances)]
        assert sum(steps) >= 200
        assert sum(n >= 2 for n in steps) >= 10  # both budgets trip on these

    @pytest.mark.parametrize("cyclic", [False, True], ids=["dag", "cyclic"])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_fixpoints_and_traces_match_on_random_instances(self, cyclic, data):
        instance = data.draw(crossing_instances(acyclic=not cyclic))
        for result in _passes([instance]):
            _matches_reference(result)


class TestExtract:
    def test_h1_zero_returns_empty(self):
        net = parallel_net(1, 1)
        state = make_state(net, greens=[[0]], reds=[[1]])
        assert extract_exclusive_green(state, gate="t1", count=0) == []

    def test_shortage_is_a_theorem_violation(self):
        net = parallel_net(1, 1)
        state = make_state(net, greens=[[0]], reds=[[0]])
        with pytest.raises(TheoremViolationError):
            extract_exclusive_green(state, gate="t1", count=1)

    def test_gate_miss_is_a_theorem_violation(self):
        net = parallel_net(1, 1)
        state = make_state(net, greens=[[0]], reds=[[1]])
        with pytest.raises(TheoremViolationError):
            extract_exclusive_green(state, gate="t2", count=1)

    def test_a_route_stops_before_the_edge_into_the_gate(self):
        net = mknet([("s", "t1"), ("t1", "g"), ("s", "t2"), ("t2", "g")],
                    source="s", terminals=("t1", "t2"))
        state = make_state(net, greens=[[0, 1], [2, 3]], reds=[])
        assert extract_exclusive_green(state, gate="g", count=2) == [
            EdgePath((0,)), EdgePath((2,))
        ]

    def test_a_spare_path_that_misses_the_gate_is_a_theorem_violation(self):
        # Only the first path is asked for, but every exclusive one is cut.
        net = mknet([("s", "t1"), ("t1", "g"), ("s", "t2")], source="s", terminals=("t1", "t2"))
        state = make_state(net, greens=[[0, 1], [2]], reds=[])
        with pytest.raises(TheoremViolationError, match="misses the virtual terminal 'g'"):
            extract_exclusive_green(state, gate="g", count=1)

    def test_spare_capacity_yields_surplus_and_first_h1_are_taken(self):
        # Four disjoint chains; with demand (1, 1, 1) two paths end up
        # exclusively green but only h1 = 1 is requested.
        pairs = []
        for i, t in enumerate(["t1", "t2", "t2", "t1"]):
            pairs.append(("s", f"m{i}"))
            pairs.append((f"m{i}", t))
        net = mknet(pairs, source="s", terminals=("t1", "t2"))
        d = Demand(1, 1, 1)
        result = single_pass(net, d)
        assert len(exclusively_green(result.state)) == 2
        assert len(result.routes) == 1


class TestSymmetricPass:
    def test_parallel_bundles_route_everything(self):
        d = Demand(0, 2, 3)
        net = parallel_net(d.h1, d.h2)
        result = symmetric_pass(net, d)
        assert len(result.pass1.routes) == 2
        assert len(result.pass2.routes) == 3
        assert not real_route_edges(result.pass1) & real_route_edges(result.pass2)

    def test_zero_private_rates_give_empty_routes(self, butterfly):
        d = Demand(2, 0, 0)
        result = symmetric_pass(butterfly, d)
        assert result.pass1.routes == ()
        assert result.pass2.routes == ()

    def test_fig2_routes_forced_onto_outer_branches(self, fig2):
        d = Demand(2, 1, 1)
        result = symmetric_pass(fig2, d)
        assert [p.edges for p in result.pass1.routes] == [(0, 4)]
        assert [p.edges for p in result.pass2.routes] == [(3, 5)]
        assert real_route_edges(result.pass1) == {0, 4}
        assert real_route_edges(result.pass2) == {3, 5}

    @given(feasible_instances())
    @settings(max_examples=100, deadline=None)
    def test_routes_are_disjoint_and_leave_shared_capacity(self, instance):
        net, d = instance
        result = symmetric_pass(net, d)
        assert len(result.pass1.routes) == d.h1
        assert len(result.pass2.routes) == d.h2
        for result_pass, terminal in zip((result.pass1, result.pass2), net.terminals):
            for p in result_pass.routes:
                check_path(net, p, net.source, terminal)  # base edges only
        e1 = real_route_edges(result.pass1)
        e2 = real_route_edges(result.pass2)
        assert not e1 & e2
        residual = remove_edges(net, e1 | e2)
        t1, t2 = net.terminals
        assert max_flow(residual, net.source, {t1}).value >= d.h0
        assert max_flow(residual, net.source, {t2}).value >= d.h0


def _assert_coded_paths_avoid_the_routes(net, d):
    result = symmetric_pass(net, d)
    routed = real_route_edges(result.pass1) | real_route_edges(result.pass2)
    for family, terminal in zip(result.coded_paths, net.terminals):
        assert len(family) == d.h0
        used = [eid for p in family for eid in p.edges]
        assert len(used) == len(set(used))  # edge-disjoint within the family
        assert routed.isdisjoint(used)
        for p in family:
            check_path(net, p, net.source, terminal)  # real edges only
            assert terminal not in path_nodes(net, p)[:-1]  # cut at the first arrival


class TestCodedPaths:
    def test_fig2_paths_stay_in_the_butterfly_core(self, fig2):
        d = Demand(2, 1, 1)
        result = symmetric_pass(fig2, d)
        core = {1, 2, 6, 7, 8, 9, 10, 11, 12}
        for family in result.coded_paths:
            assert {eid for p in family for eid in p.edges} <= core
        _assert_coded_paths_avoid_the_routes(fig2, d)

    def test_cyclic_networks(self):
        rng = random.Random(11)
        checked = 0
        for _ in range(40):
            net = small_cyclic_network(rng)
            for h0, h1, h2 in ((1, 0, 0), (2, 0, 0), (2, 1, 0), (1, 1, 1), (2, 1, 1)):
                d = Demand(h0, h1, h2)
                if check_feasibility(net, d).feasible:
                    _assert_coded_paths_avoid_the_routes(net, d)
                    checked += 1
        assert checked > 20



def _hand_off_instances():
    cyclic = small_cyclic_network(random.Random(49))
    return [
        pytest.param(fig2_network(), Demand(2, 1, 1), 0, id="fig2"),
        pytest.param(wide_network(), Demand(5, 1, 0), 0, id="wide"),
        # Pass 1 reroutes once here, so its final red paths are not its first.
        pytest.param(cyclic, Demand(1, 1, 2), 1, id="cyclic"),
    ]


class TestHandOff:
    """Pass 2 starts from pass 1's final coloring on the same augmented graph."""

    @pytest.mark.parametrize("net, d, pass1_steps", _hand_off_instances())
    def test_pass_two_starts_from_pass_one_final_coloring(self, net, d, pass1_steps):
        result = symmetric_pass(net, d)
        p1, p2 = result.pass1, result.pass2
        ext = p1.state.net
        assert p2.state.net is ext
        assert len(p1.trace.steps) == pass1_steps
        assert len(p1.state.red_paths) == d.h0 + d.h2
        assert p2.initial.green_paths == p1.state.red_paths
        # A route is its green path up to T1', without the edge into T1'.
        routes = {p.edges for p in p1.routes}
        through_t1p = [
            p.edges[:-1] for p in p1.state.green_paths
            if path_nodes(ext, p)[-2] == T1P
        ]
        assert len(through_t1p) == d.h0 + d.h1
        assert p2.initial.red_paths == tuple(
            EdgePath(edges) for edges in through_t1p if edges[:-1] not in routes
        )
        assert len(p2.initial.red_paths) == d.h0

    @pytest.mark.parametrize(
        "net, d",
        [
            *(pytest.param(*p.values[:2], id=p.id) for p in _hand_off_instances()),
            pytest.param(fig2_network(), Demand(1, 0, 2), id="fig2-102"),
            # Both passes reroute on this one.
            pytest.param(*_layered_instances(random.Random(1), count=7)[75], id="layered"),
        ],
    )
    def test_every_state_of_both_passes_is_a_valid_coloring(self, net, d):
        # run_to_fixpoint does not check the coloring it is given: pass 1's comes
        # from Dinic's paths, pass 2's from pass 1's final coloring, and each
        # step must keep it valid. The oracle checks it after every step.
        result = symmetric_pass(net, d)
        for p in (result.pass1, result.pass2):
            for n_steps in range(len(p.trace.steps) + 1):
                steps = type(p.trace)(steps=p.trace.steps[:n_steps])
                check_coloring(replay_trace(p.initial, steps))
            check_coloring(p.state)

    @pytest.mark.parametrize("broken", ["routes", "red_paths"])
    def test_a_wrong_count_from_pass_one_is_a_theorem_violation(self, fig2, broken):
        d = Demand(2, 1, 1)
        pass1 = symmetric_pass(fig2, d).pass1
        if broken == "routes":
            # No path counts as a route: three non-route paths through T1', not h0 = 2.
            pass1 = dataclasses.replace(pass1, routes=())
        else:
            # h0+h2-1 red paths to T2', one short of the green paths pass 2 needs.
            state = dataclasses.replace(pass1.state, red_paths=pass1.state.red_paths[:-1])
            pass1 = dataclasses.replace(pass1, state=state)
        with pytest.raises(TheoremViolationError, match="pass 1 left"):
            second_pass(pass1, d)

    def test_trace_ids_are_edges_of_the_full_augmented_graph(self):
        # What `export-dot --augmented` draws for the same demand. Pass 2
        # seldom reroutes; the seventh of these graphs makes both passes do so.
        instances = _layered_instances(random.Random(1), count=7)
        steps = [0, 0]
        for seed, (net, d) in enumerate(instances):
            _, passes = synthesize_with_diagnostics(net, d, seed)
            drawn = build_augmented(net, d)
            for k, result in enumerate((passes.pass1, passes.pass2)):
                steps[k] += len(result.trace.steps)
                for step in result.trace.steps:
                    for eid in (step.shared_edge, *step.prefix_swapped.edges):
                        assert drawn.edge(eid) == result.state.net.edge(eid)
        assert min(steps) > 0
