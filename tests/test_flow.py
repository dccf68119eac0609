from __future__ import annotations

import inspect
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualcast import flow
from dualcast.augment import T2P, Y1, build_augmented
from dualcast.errors import (
    CyclicSupportError,
    InfeasibleDemandError,
    InputError,
    InvariantError,
    TheoremViolationError,
    UnknownEdgeError,
    UnknownNodeError,
)
from dualcast.fixtures import fig2_network
from dualcast.flow import (
    FlowResult,
    _augment,
    _flow_ends,
    check_path,
    decompose_paths,
    edge_disjoint_paths,
    max_flow,
    paths_to_t2,
    terminal_cuts,
)
from dualcast.netgraph import Demand, Edge, Network, add_virtual, remove_edges
from dualcast.planner import (
    check_feasibility,
    synthesize,
    synthesize_with_diagnostics,
    verify_plan,
)
from dualcast.recolor import single_pass, symmetric_pass

from conftest import mknet, parallel_net, random_network, small_cyclic_network
from oracles import (
    augment_reference,
    decompose_paths_reference,
    edge_disjoint,
    max_flow_edmonds_karp,
    min_cut_value,
    mincut_enumerate,
    path_nodes,
    saturated,
)
from strategies import crossing_instances, dag_networks, demands, digraphs, feasible_instances


class TestMaxFlowValues:
    def test_fig2_joint_cut_is_four(self, fig2):
        assert max_flow(fig2, "1", {"T1", "T2"}).value == 4

    def test_fig2_per_terminal_cuts_are_three(self, fig2):
        for t in ("T1", "T2"):
            value = min_cut_value(fig2, "1", {t})
            assert value == 3
            assert value == mincut_enumerate(fig2, "1", {t})

    def test_unreachable_sink_gives_zero(self):
        net = mknet([("s", "t1")], source="s", terminals=("t1", "t2"))
        assert max_flow(net, "s", {"t2"}).value == 0

    def test_butterfly_single_terminal_is_two(self, butterfly):
        assert max_flow(butterfly, "s", {"t1"}).value == 2
        assert mincut_enumerate(butterfly, "s", {"t1"}) == 2

    def test_parallel_bottleneck(self):
        net = parallel_net(4, 1)
        assert min_cut_value(net, "s", {"t1"}) == 4

    def test_unknown_node_raises(self, fig2):
        with pytest.raises(Exception):
            max_flow(fig2, "nope", {"T1"})

    def test_source_cannot_be_sink(self, fig2):
        with pytest.raises(InputError):
            max_flow(fig2, "1", {"1", "T1"})

    def test_empty_sink_set_rejected(self, fig2):
        with pytest.raises(InputError):
            max_flow(fig2, "1", set())


def independent_cuts(net: Network) -> tuple[int, int, int]:
    """The three terminal cuts from three fresh max_flow runs."""
    t1, t2 = net.terminals
    return tuple(min_cut_value(net, net.source, sinks) for sinks in ({t1}, {t2}, {t1, t2}))


class TestTerminalCuts:
    """terminal_cuts: two Dinic runs, the pair cut continuing the flow to T1."""

    def test_fig2(self, fig2):
        assert terminal_cuts(fig2) == independent_cuts(fig2) == (3, 3, 4)

    def test_seeded_dags_and_cyclic_networks(self):
        rng = random.Random(13)
        nets = [random_network(rng) for _ in range(150)]
        nets += [small_cyclic_network(rng) for _ in range(150)]
        for net in nets:
            assert terminal_cuts(net) == independent_cuts(net), net

    @pytest.mark.parametrize(
        "pairs, cuts",
        [
            # T1's only in-edge leaves T2, so the flow to T1 passes through T2.
            ([("s", "a"), ("a", "t2"), ("s", "t2"), ("t2", "t1")], (1, 2, 2)),
            # The mirror case: T2 is fed only through T1.
            ([("s", "a"), ("a", "t1"), ("s", "t1"), ("t1", "t2")], (2, 1, 2)),
            # The pair run must reroute the T1 flow: its one path reaches T2 only
            # by undoing the T1 flow's use of a->x.
            (
                [("s", "a"), ("s", "b"), ("a", "x"), ("b", "x"), ("x", "t1"), ("a", "t2")],
                (1, 1, 2),
            ),
        ],
    )
    def test_hand_built(self, pairs, cuts):
        net = mknet(pairs, "s", ("t1", "t2"))
        assert terminal_cuts(net) == independent_cuts(net) == cuts

    def test_no_edges(self):
        net = Network(nodes=("s", "t1", "t2"), edges=(), source="s", terminals=("t1", "t2"))
        assert terminal_cuts(net) == (0, 0, 0)


def _enumerated_cuts(net: Network) -> tuple[int, int, int]:
    t1, t2 = net.terminals
    return tuple(mincut_enumerate(net, net.source, sinks) for sinks in ({t1}, {t2}, {t1, t2}))


class TestTerminalCutBounds:
    """Each Dinic run of terminal_cuts stops at a degree or cut bound."""

    @pytest.fixture
    def runs_of(self, monkeypatch):
        """terminal_cuts(net), checked, and the (limit, value added) of each of its runs."""
        calls = []
        augment = flow._augment

        def recording(graph, s, is_sink, residual, limit, *rest):
            result = augment(graph, s, is_sink, residual, limit, *rest)
            calls.append((limit, result[0]))
            return result

        def runs_of(net):
            monkeypatch.setattr(flow, "_augment", recording)
            cuts = terminal_cuts(net)
            monkeypatch.undo()
            assert cuts == independent_cuts(net) == _enumerated_cuts(net)
            return cuts, calls

        return runs_of

    def test_t1_cut_at_the_source_out_degree_leaves_the_pair_run_limit_zero(self, runs_of):
        net = mknet([("s", "t1"), ("s", "a"), ("a", "t1"), ("a", "t2")], "s", ("t1", "t2"))
        assert runs_of(net) == ((2, 1, 2), [(2, 2), (0, 0), (1, 1)])

    def test_t2_cut_below_both_degree_bounds_ends_its_run_on_a_search(self, runs_of):
        # Two edges a->b bound every flow; the source has out-degree 3 and T2
        # in-degree 4, so the T2 run, bounded by 3, adds 2 paths and ends on
        # a search that reaches no sink.
        pairs = [("s", "a")] * 3 + [("a", "b")] * 2 + [("b", "t2")] * 3
        pairs += [("b", "t1"), ("t1", "t2")]
        net = mknet(pairs, "s", ("t1", "t2"))
        cuts, runs = runs_of(net)
        assert cuts == (1, 2, 2) and runs[-1] == (3, 2)

    def test_parallel_edges_between_the_terminals(self, runs_of):
        pairs = [("s", "t1"), ("s", "t2"), ("s", "a"), ("a", "t1")]
        pairs += [("t1", "t2"), ("t1", "t2"), ("t2", "t1")]
        net = mknet(pairs, "s", ("t1", "t2"))
        assert runs_of(net) == ((3, 3, 3), [(3, 3), (0, 0), (3, 3)])

    @pytest.mark.parametrize(
        "pairs, cuts, runs",
        [
            ([("s", "a"), ("a", "t2"), ("t1", "t2")], (0, 1, 1), [(0, 0), (1, 1), (1, 1)]),
            ([("s", "a"), ("a", "t1"), ("t2", "t1")], (1, 0, 1), [(1, 1), (0, 0), (0, 0)]),
        ],
    )
    def test_a_terminal_with_no_in_edge(self, runs_of, pairs, cuts, runs):
        assert runs_of(mknet(pairs, "s", ("t1", "t2"))) == (cuts, runs)

    def test_the_network_keeps_the_checks_run_to_t2(self, runs_of):
        # The third run is the network's run to T2, one path per unit of the
        # cut; the network keeps it, so the next check runs only the first two.
        net = fig2_network()
        assert runs_of(net) == ((3, 3, 4), [(3, 3), (1, 1), (3, 3)])
        assert net._terminal_cuts == (3, 3, 4) and len(net._t2_run) == 3
        graph = net._residual_arcs
        for path in net._t2_run:
            assert path[0] in graph.arcs[graph.index["1"]]
            assert graph.arc_head[path[-1]] == graph.index["T2"]
        assert runs_of(net)[1][3:] == [(3, 3), (1, 1)]


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(digraphs(), digraphs(max_nodes=30, max_edges=90)),
    st.sampled_from([(0,), (1,), (0, 1)]),
)
def test_augment_stopped_at_a_bound_leaves_the_residual_of_a_full_run(net, which):
    graph = net._residual_arcs
    sinks = [net.terminals[i] for i in which]
    s, is_sink, bound = _flow_ends(graph, net.source, sinks)
    full = bytearray(b"\x01\x00") * len(graph.eids)
    value = _augment(graph, s, is_sink, full, len(graph.eids) + 1)[0]
    assert value == max_flow_edmonds_karp(net, net.source, sinks) <= bound
    for limit in {value, bound}:
        residual = bytearray(b"\x01\x00") * len(graph.eids)
        assert _augment(graph, s, is_sink, residual, limit)[0] == value
        assert residual == full


# In both networks a run's first search sends a -> c -> t and leaves b blocked
# at c; the path that follows is s b c a e f t, through the reverse of a -> c.
# Here t is T1, so the flow to Y1 for (1, 1, 0) needs two phases, and the one
# path to T2' needs one.
Y1_TWO_PHASES = (
    [("s", "a"), ("s", "b"), ("a", "c"), ("b", "c"), ("c", "t1"), ("a", "e"), ("e", "f")]
    + [("f", "t1"), ("s", "g"), ("g", "t2")],
    Demand(1, 1, 0),
)
# Here t is T2, so the first h0+h2 = 2 paths of the run to T2, and the flow to
# T2', span two phases; the flow to Y1 for (2, 0, 0) enters T1 from x and y in one.
T2_TWO_PHASES = (
    [("s", "a"), ("s", "b"), ("a", "c"), ("b", "c"), ("c", "t2"), ("a", "e"), ("e", "f")]
    + [("f", "t2"), ("s", "x"), ("x", "t1"), ("s", "y"), ("y", "t1")],
    Demand(2, 0, 0),
)
# A path into t2 longer than both of T2_TWO_PHASES's, which a run to t2 takes
# in a third phase.
T2_THIRD_PATH = [("s", "p"), ("p", "q"), ("q", "r"), ("r", "u"), ("u", "v"), ("v", "w")]
T2_THIRD_PATH += [("w", "t2")]


def _phases_of_a_run(graph, s, is_sink, limit):
    """A fresh _augment run's record, the record's length as each phase began,
    and the residual the run left.

    The phases are counted from outside the run: a trace function notes
    each time _augment reaches the line that starts a phase's search.
    """
    lines, first = inspect.getsourcelines(flow._augment)
    (start,) = [first + i for i, line in enumerate(lines) if "level = [-1] * n" in line]
    code = flow._augment.__code__
    record: list = []
    starts: list[int] = []
    residual = bytearray(b"\x01\x00") * len(graph.eids)

    def in_augment(frame, event, arg):
        if event == "line" and frame.f_lineno == start:
            starts.append(len(record))
        return in_augment

    before = sys.gettrace()
    sys.settrace(lambda frame, event, arg: in_augment if frame.f_code is code else None)
    try:
        _augment(graph, s, is_sink, residual, limit, record)
    finally:
        sys.settrace(before)
    return record, starts, residual


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        digraphs(),
        digraphs(max_nodes=12, max_edges=30),
        st.sampled_from([Y1_TWO_PHASES[0], T2_TWO_PHASES[0]]).map(
            lambda pairs: mknet(pairs, "s", ("t1", "t2"))
        ),
    ),
    st.sampled_from([(0,), (1,), (0, 1)]),
    st.booleans(),
)
def test_a_one_phase_prefix_of_a_run_is_its_own_decomposition(net, which, bounded):
    """Equal first and k-th path lengths mark a prefix of the first phase, and
    such a prefix's recorded paths are what _decompose takes out of its flow.
    _recorded_paths gives that decomposition for every prefix, and replaying
    the whole record rebuilds the residual the run left."""
    graph = net._residual_arcs
    s, is_sink, bound = _flow_ends(graph, net.source, [net.terminals[i] for i in which])
    limit = bound if bounded else len(graph.eids) + 1
    record, starts, left = _phases_of_a_run(graph, s, is_sink, limit)
    first_phase = starts[1] if len(starts) > 1 else len(record)
    residual = bytearray(b"\x01\x00") * len(graph.eids)
    for k, path in enumerate(record, 1):
        for a in path:
            residual[a] = 0
            residual[a ^ 1] = 1
        want = flow._decompose(net, s, is_sink, residual[1::2], k)
        assert flow._recorded_paths(net, s, is_sink, record[:k]) == want
        one_phase = len(record[0]) == len(record[k - 1])
        assert one_phase == (k <= first_phase)
        if one_phase:
            assert [p.edges for p in want] == [
                tuple(graph.eids[a >> 1] for a in path) for path in record[:k]
            ]
    assert residual == left


def _assert_kernels_agree(net, sinks, limit, more_limit):
    """_augment and the full-list reference make the same run from the zero
    flow to sinks, and then the same continuation, to limit and more_limit,
    with both terminals added to the sinks, as terminal_cuts continues its run
    to T1 into the pair cut. Records, residual bytes, values and levels must
    all match. The continuation starts from the zero flow only when the first
    run found none."""
    graph = net._residual_arcs
    s, is_sink, _ = _flow_ends(graph, net.source, sinks)
    more_sinks = bytearray(is_sink)
    for t in net.terminals:
        more_sinks[graph.index[t]] = 1
    runs = []
    for kernel in (_augment, augment_reference):
        residual = bytearray(b"\x01\x00") * len(graph.eids)
        record: list = []
        first = kernel(graph, s, is_sink, residual, limit, record)
        then = kernel(graph, s, more_sinks, residual, more_limit, record)
        runs.append((first, then, record, residual))
    assert runs[0] == runs[1]


def _networks_with_a_sink_set():
    """Digraphs, and the networks of feasible and crossing instances and of the
    two-phase hand cases, as they are and as build_augmented extends them,
    each with a sink set: a terminal, the pair, or Y1 where it exists."""
    instances = st.one_of(
        feasible_instances(cyclic=True),
        crossing_instances(),
        st.sampled_from([Y1_TWO_PHASES, T2_TWO_PHASES]).map(
            lambda case: (mknet(case[0], "s", ("t1", "t2")), case[1])
        ),
    )
    networks = st.one_of(
        digraphs(),
        instances.map(lambda instance: instance[0]),
        instances.map(lambda instance: build_augmented(*instance)),
    )

    def with_sinks(net):
        t1, t2 = net.terminals
        sink_sets = [{t1}, {t2}, {t1, t2}] + ([{Y1}] if Y1 in net.nodes else [])
        return st.tuples(st.just(net), st.sampled_from(sink_sets))

    return networks.flatmap(with_sinks)


@settings(max_examples=300, deadline=None)
@given(_networks_with_a_sink_set(), st.data())
def test_scanning_out_lists_from_the_zero_flow_changes_no_run(net_and_sinks, data):
    net, sinks = net_and_sinks
    graph = net._residual_arcs
    bound = _flow_ends(graph, net.source, sinks)[2]
    limits = st.sampled_from([bound, len(graph.eids) + 1]) | st.integers(0, 3)
    _assert_kernels_agree(net, sinks, data.draw(limits), data.draw(limits))


@pytest.mark.parametrize("augmented", [False, True])
@pytest.mark.parametrize("case", [Y1_TWO_PHASES, T2_TWO_PHASES], ids=["Y1", "T2"])
def test_two_phase_runs_match_the_full_list_kernel(case, augmented):
    # Each network's run to its t takes a second phase through a reverse arc.
    net = mknet(case[0], "s", ("t1", "t2"))
    if augmented:
        net = build_augmented(net, case[1])
    sink_sets = [{"t1"}, {"t2"}, {"t1", "t2"}] + ([{Y1}] if augmented else [])
    for sinks in sink_sets:
        bound = _flow_ends(net._residual_arcs, net.source, sinks)[2]
        for limit in (bound, 1, len(net.edges) + 1):
            _assert_kernels_agree(net, sinks, limit, len(net.edges) + 1)


@settings(max_examples=150, deadline=None)
@given(digraphs())
def test_terminal_cuts_match_independent_flows_and_enumeration(net):
    cuts = terminal_cuts(net)
    assert cuts == independent_cuts(net)
    t1, t2 = net.terminals
    assert cuts == tuple(
        mincut_enumerate(net, net.source, sinks) for sinks in ({t1}, {t2}, {t1, t2})
    )


@settings(max_examples=50, deadline=None)
@given(digraphs(max_nodes=30, max_edges=90))
def test_terminal_cuts_match_independent_flows_on_larger_graphs(net):
    assert terminal_cuts(net) == independent_cuts(net)


class TestFlowStructure:
    def test_flow_conserves_at_interior_nodes(self, fig2):
        res = max_flow(fig2, "1", {"T1", "T2"})
        for v in fig2.nodes:
            inflow = sum(res.edge_flow[e.eid] for e in fig2.edges if e.head == v)
            outflow = sum(res.edge_flow[e.eid] for e in fig2.edges if e.tail == v)
            if v == "1":
                assert outflow - inflow == res.value
            elif v not in ("T1", "T2"):
                assert inflow == outflow

    def test_duality_value_equals_cut_from_source_side(self, fig2):
        res = max_flow(fig2, "1", {"T1", "T2"})
        crossing = sum(
            1
            for e in fig2.edges
            if e.tail in res.source_side and e.head not in res.source_side
        )
        assert crossing == res.value

    def test_value_invariant_under_edge_permutation(self, fig2):
        shuffled = Network(
            nodes=fig2.nodes,
            edges=tuple(reversed(fig2.edges)),
            source=fig2.source,
            terminals=fig2.terminals,
        )
        assert max_flow(shuffled, "1", {"T1"}).value == 3


class TestAdjacencyCache:
    def test_repeated_calls_give_equal_results(self, fig2):
        for sinks in ({"T1"}, {"T2"}, {"T1", "T2"}, {"T1"}):
            assert max_flow(fig2, "1", sinks) == max_flow(fig2, "1", sinks)

    def test_derived_networks_see_their_own_edges(self, fig2):
        assert max_flow(fig2, "1", {"T1"}).value == 3
        fewer = remove_edges(fig2, [0])  # 1 -> 6, one of T1's three routes
        assert max_flow(fewer, "1", {"T1"}).value == 2
        assert max_flow(fewer, "1", {"T1", "T2"}).value == 3
        more = add_virtual(fig2, ["x"], [("1", "x"), ("x", "T1"), ("x", "T1")])
        res = max_flow(more, "1", {"T1"})
        assert res.value == 4
        assert set(res.edge_flow) == {e.eid for e in more.edges}
        assert res.edge_flow[more.edges[len(fig2.edges)].eid] == 1
        assert max_flow(fig2, "1", {"T1"}).value == 3
        for net in (fewer, more):
            for sinks in ({"T1"}, {"T2"}, {"T1", "T2"}):
                assert max_flow(net, "1", sinks).value == max_flow_edmonds_karp(net, "1", sinks)


class TestDecomposePaths:
    def test_zero_flow_gives_no_paths(self):
        net = mknet([("s", "t1")], source="s", terminals=("t1", "t2"))
        res = max_flow(net, "s", {"t2"})
        assert decompose_paths(net, res, "s", "t2") == []

    def test_parallel_edges_give_single_edge_paths(self):
        net = parallel_net(3, 1)
        res = max_flow(net, "s", {"t1"})
        paths = decompose_paths(net, res, "s", "t1")
        assert sorted(p.edges for p in paths) == [(0,), (1,), (2,)]

    def test_fig2_joint_flow_splits_into_four_disjoint_paths(self, fig2):
        res = max_flow(fig2, "1", {"T1", "T2"})
        paths = decompose_paths(fig2, res, "1", {"T1", "T2"})
        assert len(paths) == 4
        assert edge_disjoint(p.edges for p in paths)
        firsts = {p.edges[0] for p in paths}
        assert firsts == {0, 1, 2, 3}
        for p in paths:
            end = fig2.edge(p.edges[-1]).head
            assert end in ("T1", "T2")
            check_path(fig2, p, "1", end)

    def test_cycle_flow_is_discarded(self):
        net = mknet(
            [("s", "a"), ("a", "t1"), ("a", "b"), ("b", "a")],
            source="s",
            terminals=("t1", "t2"),
        )
        res = FlowResult(
            value=1,
            edge_flow={0: 1, 1: 1, 2: 1, 3: 1},
            source_side=frozenset({"s"}),
        )
        paths = decompose_paths(net, res, "s", "t1")
        assert [p.edges for p in paths] == [(0, 1)]

    def test_cycle_entered_past_the_source_is_pinched_off(self):
        # The walk takes a -> b -> a before a -> t1, closes the cycle at a and
        # resumes from a with only edge 0 kept.
        net = mknet(
            [("s", "a"), ("a", "b"), ("b", "a"), ("a", "t1"), ("s", "c"), ("c", "d"),
             ("d", "c"), ("c", "t1")],
            source="s",
            terminals=("t1", "t2"),
        )
        res = FlowResult(
            value=2, edge_flow={eid: 1 for eid in range(8)}, source_side=frozenset({"s"})
        )
        paths = decompose_paths(net, res, "s", "t1")
        assert [p.edges for p in paths] == [(0, 3), (4, 7)]
        assert paths == decompose_paths_reference(net, res, "s", "t1")

    def test_unknown_edge_or_node_raises(self):
        net = mknet([("s", "t1")], source="s", terminals=("t1", "t2"))
        stray = FlowResult(value=1, edge_flow={0: 1, 99: 1}, source_side=frozenset({"s"}))
        with pytest.raises(UnknownEdgeError):
            decompose_paths(net, stray, "s", "t1")
        with pytest.raises(UnknownNodeError):
            decompose_paths(net, max_flow(net, "s", {"t1"}), "s", "nope")

    def test_conservation_violation_raises(self):
        net = mknet([("s", "a"), ("a", "t1"), ("a", "t2")], source="s", terminals=("t1", "t2"))
        bad = FlowResult(value=1, edge_flow={0: 1, 1: 1, 2: 1}, source_side=frozenset())
        with pytest.raises(InvariantError):
            decompose_paths(net, bad, "s", "t1")


@settings(max_examples=150, deadline=None)
@given(digraphs())
def test_max_flow_matches_enumerated_min_cut(net):
    for sinks in ({net.terminals[0]}, {net.terminals[1]}, set(net.terminals)):
        assert max_flow(net, net.source, sinks).value == mincut_enumerate(
            net, net.source, sinks
        )


@settings(max_examples=100, deadline=None)
@given(dag_networks())
def test_pair_cut_bounds(net):
    t1, t2 = net.terminals
    c1 = min_cut_value(net, net.source, {t1})
    c2 = min_cut_value(net, net.source, {t2})
    c12 = min_cut_value(net, net.source, {t1, t2})
    assert max(c1, c2) <= c12 <= c1 + c2


@settings(max_examples=100, deadline=None)
@given(digraphs())
def test_duality_holds_on_random_graphs(net):
    res = max_flow(net, net.source, set(net.terminals))
    crossing = sum(
        1 for e in net.edges if e.tail in res.source_side and e.head not in res.source_side
    )
    assert crossing == res.value
    assert not (set(net.terminals) & res.source_side)


@settings(max_examples=100, deadline=None)
@given(digraphs(max_nodes=30, max_edges=90))
def test_max_flow_matches_reference_on_larger_graphs(net):
    src = net.source
    for sinks in ({net.terminals[0]}, {net.terminals[1]}, set(net.terminals)):
        res = max_flow(net, src, sinks)
        assert res.value == max_flow_edmonds_karp(net, src, sinks)
        assert set(res.edge_flow) == {e.eid for e in net.edges}
        assert set(res.edge_flow.values()) <= {0, 1}
        balance = {v: 0 for v in net.nodes}
        for e in net.edges:
            balance[e.tail] += res.edge_flow[e.eid]
            balance[e.head] -= res.edge_flow[e.eid]
        assert balance[src] == res.value
        assert all(balance[v] == 0 for v in net.nodes if v != src and v not in sinks)
        crossing = [
            e.eid
            for e in net.edges
            if e.tail in res.source_side and e.head not in res.source_side
        ]
        assert len(crossing) == res.value
        assert src in res.source_side
        assert not (sinks & res.source_side)


@settings(max_examples=150, deadline=None)
@given(digraphs())
def test_decomposition_is_exact_and_disjoint(net):
    for sink in net.terminals:
        res = max_flow(net, net.source, {sink})
        paths = decompose_paths(net, res, net.source, sink)
        assert len(paths) == res.value
        assert edge_disjoint(p.edges for p in paths)
        for p in paths:
            check_path(net, p, net.source, sink)
            nodes = path_nodes(net, p)
            assert len(set(nodes)) == len(nodes)  # decomposition emits simple paths
        used = {eid for p in paths for eid in p.edges}
        assert used <= saturated(res)


def _decomposition_outcome(fn, net, flow, src, sinks):
    try:
        return [p.edges for p in fn(net, flow, src, sinks)]
    except Exception as exc:  # the reference's exceptions are part of the contract
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(digraphs(), st.data())
def test_decomposition_matches_the_label_based_reference(net, data):
    """Same paths, or the same exception and message, as the reference.

    Covers the network as drawn, with its edges listed in reverse id order,
    after remove_edges and after add_virtual, single and two-sink flows, and
    max-flows corrupted by flipping edges and shifting the value.
    """
    dropped = data.draw(st.sets(st.sampled_from([e.eid for e in net.edges] or [None])))
    labels = st.sampled_from(net.nodes + ("x",))
    pairs = st.tuples(labels, labels).filter(lambda pair: pair[0] != pair[1])
    x_edges = data.draw(st.lists(pairs, max_size=6))
    variants = [
        net,
        Network(nodes=net.nodes, edges=tuple(reversed(net.edges)), source=net.source,
                terminals=net.terminals),
        remove_edges(net, dropped - {None}),
        add_virtual(net, ["x"], x_edges),
    ]
    t1, t2 = net.terminals
    for variant in variants:
        for sinks in ({t1}, {t2}, {t1, t2}):
            res = max_flow(variant, variant.source, sinks)
            flows = [res]
            for _ in range(2):
                edge_flow = dict(res.edge_flow)
                flipped = st.sampled_from(sorted(edge_flow) or [None])
                for eid in data.draw(st.sets(flipped, max_size=3)) - {None}:
                    edge_flow[eid] ^= 1
                value = res.value + data.draw(st.integers(-1, 1))
                flows.append(FlowResult(value, edge_flow, res.source_side))
            for flow in flows:
                want = _decomposition_outcome(
                    decompose_paths_reference, variant, flow, variant.source, sinks
                )
                got = _decomposition_outcome(decompose_paths, variant, flow, variant.source, sinks)
                assert got == want


@settings(max_examples=150, deadline=None)
@given(st.one_of(dag_networks(), digraphs()), demands(), st.data())
def test_edge_disjoint_paths_equal_the_decomposed_max_flow(net, d, data):
    """The same paths as decompose_paths on max_flow, on the network and its augmentation.

    Sink sets: each terminal, the pair, and one or two nodes drawn at random.
    """
    t1, t2 = net.terminals
    others = st.sampled_from(net.nodes[1:])
    drawn = data.draw(st.sets(others, min_size=1, max_size=2))
    ext = build_augmented(net, d)
    cases = [(net, sinks) for sinks in ({t1}, {t2}, {t1, t2}, drawn)]
    cases += [(ext, {Y1}), (ext, {T2P}), (ext, {Y1, T2P})]
    for variant, sinks in cases:
        src = variant.source
        want = decompose_paths(variant, max_flow(variant, src, sinks), src, sinks)
        assert edge_disjoint_paths(variant, src, sinks) == want


def test_edge_disjoint_paths_refuse_what_max_flow_refuses(fig2):
    for sinks, error in (([], InputError), (["1"], InputError), (["nowhere"], UnknownNodeError)):
        for fn in (max_flow, edge_disjoint_paths):
            with pytest.raises(error):
                fn(fig2, "1", sinks)


def test_a_single_sink_label_is_one_sink_not_its_characters(fig2):
    # "T1" names one node; as a set of characters it would be {"T", "1"}.
    for sink in ("T1", "T2"):
        assert max_flow(fig2, "1", sink) == max_flow(fig2, "1", {sink})
        assert edge_disjoint_paths(fig2, "1", sink) == edge_disjoint_paths(fig2, "1", {sink})
    with pytest.raises(UnknownNodeError, match="'nowhere'"):
        max_flow(fig2, "1", "nowhere")
    with pytest.raises(InputError, match="source cannot be a sink"):
        edge_disjoint_paths(fig2, "1", "1")


def _fresh(net):
    """The same network, with nothing derived yet."""
    return Network(net.nodes, net.edges, net.source, net.terminals)


class TestPathsViaT2:
    """Pass 1's paths to T2' are the base network's paths to T2, continued into T2'."""

    @staticmethod
    def _pass1_or_refusal(net, d, want):
        """Pass 1 on net starts from the red paths want, or refuses an infeasible d."""
        try:
            pass1 = single_pass(net, d)
        except TheoremViolationError:
            assert not check_feasibility(net, d).feasible
        else:
            assert pass1.initial.red_paths == tuple(want)

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            feasible_instances(), feasible_instances(cyclic=True), crossing_instances()
        ),
        demands(),
    )
    def test_replay_equals_the_flow_to_t2p(self, instance, other):
        net, feasible = instance
        for d in (feasible, other):
            want = edge_disjoint_paths(build_augmented(_fresh(net), d), net.source, {T2P})
            for checked in (False, True):
                base = _fresh(net)
                if checked:
                    base._terminal_cuts  # makes the run to T2
                prefix = paths_to_t2(base, d.h0 + d.h2)
                assert [p.edges for p in prefix] == [p.edges[:-1] for p in want]
                self._pass1_or_refusal(base, d, want)
        assert len(want) == min(other.h0 + other.h2, net._terminal_cuts[1])

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(digraphs(), feasible_instances().map(lambda pair: pair[0])), demands())
    def test_augmenting_runs_no_flow_on_the_base(self, net, d):
        # Neither network holds a run to T2 until a check or pass 1 asks for one.
        base = _fresh(net)
        ext = build_augmented(base, d)
        assert "_t2_run" not in vars(base) and "_t2_run" not in vars(ext)

    @pytest.mark.parametrize("d", [Demand(2, 1, 1), Demand(1, 2, 1), Demand(0, 1, 0)])
    def test_without_a_check_the_run_to_t2_goes_to_the_cut_first(self, monkeypatch, d):
        # fig2's cut to T2 is 3, as is T2's in-degree. Pass 1 on a network
        # that holds no run to T2 makes it, whatever h0+h2, after the flow to
        # Y1; the paths to T2' read it with no search of their own.
        calls = []
        augment = flow._augment

        def recording(graph, s, is_sink, residual, limit, *rest):
            result = augment(graph, s, is_sink, residual, limit, *rest)
            calls.append((limit, result[0]))
            return result

        monkeypatch.setattr(flow, "_augment", recording)
        synthesize(fig2_network(), d, seed=0)
        assert calls == [(d.total, d.total), (3, 3)]

    @pytest.mark.parametrize(
        "pairs, d",
        [
            # T2 with out-edges, to T1 and to a relay that feeds T1.
            (
                [("s", "a"), ("a", "t2"), ("s", "t2"), ("t2", "t1"), ("t2", "b"), ("b", "t1")],
                Demand(1, 0, 1),
            ),
            # T1 fed only through T2: the cuts to T1, T2 and the pair are 1, 2, 2.
            ([("s", "a"), ("a", "t2"), ("s", "t2"), ("t2", "t1")], Demand(1, 0, 1)),
            # Parallel edges into T2.
            (
                [("s", "a")] * 3 + [("a", "t2")] * 2 + [("s", "t2"), ("s", "t1")],
                Demand(1, 0, 2),
            ),
            # h0 + h2 = 0: no path to T2'.
            ([("s", "t1"), ("s", "t2")], Demand(0, 1, 0)),
            # T2_TWO_PHASES with a third, longer path into T2: the cut to T2 is
            # 3, and the first h0+h2 = 2 paths of the run span two phases.
            (T2_TWO_PHASES[0] + T2_THIRD_PATH, T2_TWO_PHASES[1]),
        ],
    )
    @pytest.mark.parametrize("checked", [False, True])
    def test_hand_cases(self, pairs, d, checked):
        net = mknet(pairs, "s", ("t1", "t2"))
        if checked:
            assert check_feasibility(net, d).feasible
        want = edge_disjoint_paths(build_augmented(net, d), "s", {T2P})
        assert len(want) == d.h0 + d.h2
        assert single_pass(net, d).initial.red_paths == tuple(want)
        plan, passes = synthesize_with_diagnostics(net, d, seed=0)
        assert passes.pass1.initial.red_paths == tuple(want)

    def test_the_last_hand_case_takes_a_two_phase_prefix(self):
        # Its run to T2 has three phases, one path each, and h0+h2 = 2.
        net = mknet(T2_TWO_PHASES[0] + T2_THIRD_PATH, "s", ("t1", "t2"))
        assert [len(path) for path in net._t2_run] == [3, 6, 7]

    @pytest.mark.parametrize("checked", [False, True])
    def test_unreachable_t2_is_refused_as_before(self, checked):
        # T2 has an in-edge, so the demand passes the size check, but the
        # source cannot reach it: the flow to Y1 goes through T1 and the
        # network has no path to T2, so none to T2'.
        net = mknet([("s", "t1"), ("x", "t2")], "s", ("t1", "t2"))
        d = Demand(1, 0, 0)
        if checked:
            assert not check_feasibility(net, d).feasible
        ext = build_augmented(net, d)
        assert paths_to_t2(net, 1) == edge_disjoint_paths(ext, "s", {T2P}) == []
        with pytest.raises(TheoremViolationError, match="paths to '__T2P', found 0"):
            single_pass(net, d)
        with pytest.raises(InfeasibleDemandError, match="ineq2") as exc:
            synthesize(net, d, seed=0)
        assert exc.value.report == check_feasibility(net, d)

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(feasible_instances(cyclic=True), crossing_instances()),
        demands(),
        st.lists(st.sampled_from(["check", "feasible", "other"]), min_size=1, max_size=5),
    )
    def test_one_network_makes_one_run_to_t2(self, instance, other, steps):
        # Checks and syntheses on one network, in any order, share one Dinic
        # run to T2; a flow to T2', which is entered only from T2, would be
        # another run to T2.
        net, feasible = instance
        net = _fresh(net)
        sink_sets = []
        augment = flow._augment

        def recording(graph, s, is_sink, *rest):
            sink_sets.append({v for v, i in graph.index.items() if is_sink[i]})
            return augment(graph, s, is_sink, *rest)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(flow, "_augment", recording)
            for step in steps:
                if step == "check":
                    check_feasibility(net, other)
                    continue
                try:
                    synthesize(net, feasible if step == "feasible" else other, seed=0)
                except (InfeasibleDemandError, CyclicSupportError):
                    pass
        to_t2 = [sinks for sinks in sink_sets if sinks in ({net.terminals[1]}, {T2P})]
        assert to_t2 == [{net.terminals[1]}]

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(feasible_instances(cyclic=True), crossing_instances()))
    def test_checked_and_unchecked_syntheses_take_the_same_paths_to_t2p(self, instance):
        net, d = instance
        want = edge_disjoint_paths(build_augmented(_fresh(net), d), net.source, {T2P})
        plans = []
        for checked in (False, True):
            base = _fresh(net)
            if checked:
                assert check_feasibility(base, d).feasible
            try:
                plan, passes = synthesize_with_diagnostics(base, d, seed=0)
            except CyclicSupportError:
                plan, passes = None, symmetric_pass(base, d)
            assert passes.pass1.initial.red_paths == tuple(want)
            plans.append(plan)
        assert plans[0] == plans[1]


class TestPathsFromTheRecord:
    """Pass 1's paths are a one-phase run's record; a longer run is decomposed."""

    @staticmethod
    def _counted_synthesis(monkeypatch, net, d):
        calls = []
        decompose = flow._decompose

        def counting(*args):
            calls.append(args)
            return decompose(*args)

        monkeypatch.setattr(flow, "_decompose", counting)
        result = synthesize_with_diagnostics(net, d, seed=0)
        monkeypatch.undo()
        return result, len(calls)

    @pytest.mark.parametrize("pairs, d", [Y1_TWO_PHASES, T2_TWO_PHASES], ids=["Y1", "T2"])
    @pytest.mark.parametrize("checked", [False, True])
    def test_a_two_phase_flow_is_decomposed_once(self, monkeypatch, pairs, d, checked):
        net = mknet(pairs, "s", ("t1", "t2"))
        if checked:
            assert check_feasibility(net, d).feasible
        (plan, passes), decomposed = self._counted_synthesis(monkeypatch, net, d)
        assert decomposed == 1
        ext = build_augmented(net, d)
        greens = decompose_paths(ext, max_flow(ext, "s", {Y1}), "s", Y1)
        reds = edge_disjoint_paths(ext, "s", {T2P})
        assert reds == decompose_paths(ext, max_flow(ext, "s", {T2P}), "s", T2P)
        assert passes.pass1.initial.green_paths == tuple(greens)
        assert passes.pass1.initial.red_paths == tuple(reds)
        assert verify_plan(net, plan, trials=20).passed

    # On fig2, (1, 1, 1) takes both flows from records. For (2, 1, 1) the
    # flow to Y1 finds paths of 4, 4, 4 and 8 edges, and the first three
    # paths of the run to T2 have 2, 2 and 4, so each is decomposed.
    @pytest.mark.parametrize("d, decompositions", [(Demand(1, 1, 1), 0), (Demand(2, 1, 1), 2)])
    def test_a_checked_fig2_synthesis(self, monkeypatch, fig2, d, decompositions):
        assert check_feasibility(fig2, d).feasible
        (plan, _), decomposed = self._counted_synthesis(monkeypatch, fig2, d)
        assert decomposed == decompositions
        assert verify_plan(fig2, plan, trials=20).passed
