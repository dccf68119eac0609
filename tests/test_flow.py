from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualcast.augment import build_augmented
from dualcast.errors import InputError, InvariantError, UnknownEdgeError, UnknownNodeError
from dualcast.flow import (
    FlowResult,
    check_path,
    decompose_paths,
    edge_disjoint_paths,
    max_flow,
    terminal_cuts,
)
from dualcast.netgraph import Edge, Network, add_virtual, remove_edges

from conftest import mknet, parallel_net, random_network, small_cyclic_network
from oracles import (
    decompose_paths_reference,
    edge_disjoint,
    max_flow_edmonds_karp,
    min_cut_value,
    mincut_enumerate,
    path_nodes,
    saturated,
)
from strategies import dag_networks, demands, digraphs


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
        more, new_ids = add_virtual(fig2, ["x"], [("1", "x"), ("x", "T1"), ("x", "T1")])
        res = max_flow(more, "1", {"T1"})
        assert res.value == 4
        assert set(res.edge_flow) == {e.eid for e in more.edges}
        assert res.edge_flow[new_ids[0]] == 1
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
        add_virtual(net, ["x"], x_edges)[0],
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
    aug = build_augmented(net, d)
    cases = [(net, sinks) for sinks in ({t1}, {t2}, {t1, t2}, drawn)]
    cases += [(aug.net, {aug.y1}), (aug.net, {aug.t2p}), (aug.net, {aug.y1, aug.y2})]
    for variant, sinks in cases:
        src = variant.source
        want = decompose_paths(variant, max_flow(variant, src, sinks), src, sinks)
        assert edge_disjoint_paths(variant, src, sinks) == want


def test_edge_disjoint_paths_refuse_what_max_flow_refuses(fig2):
    for sinks, error in (([], InputError), (["1"], InputError), (["nowhere"], UnknownNodeError)):
        for fn in (max_flow, edge_disjoint_paths):
            with pytest.raises(error):
                fn(fig2, "1", sinks)
