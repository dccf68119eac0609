from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualcast.augment import build_augmented
from dualcast.errors import InputError, UnknownEdgeError, UnknownNodeError
from dualcast.flow import max_flow
from dualcast.netgraph import (
    MAX_UNIT_EDGES,
    Demand,
    Edge,
    Network,
    add_virtual,
    expand_capacities,
    remove_edges,
)
from dualcast.planner import check_feasibility

from conftest import mknet
from oracles import in_edges, mincut_enumerate, out_edges
from strategies import demands, digraphs

labels = st.sampled_from(["a", "b", "c", "d", "e"])
weighted_lists = st.lists(
    st.tuples(labels, labels, st.integers(1, 4)).filter(lambda t: t[0] != t[1]),
    max_size=8,
)
ends = st.sampled_from(["s", "t1", "t2", "x"])  # "x" is not a node of the networks below


class TestExpandCapacities:
    def test_capacity_three_gives_three_parallel_edges(self):
        edges = expand_capacities([("a", "b", 3)])
        assert [(e.tail, e.head) for e in edges] == [("a", "b")] * 3
        assert len({e.eid for e in edges}) == 3

    def test_unit_capacity_is_identity(self):
        edges = expand_capacities([("a", "b", 1)])
        assert edges == [Edge(0, "a", "b")]

    def test_virtual_terminal_bundle_for_rates_2_1(self):
        # A terminal-entry bundle is sized h0+h1; for (2, 1, 0) that is 3 edges.
        d = Demand(2, 1, 0)
        edges = expand_capacities([("T1", "T1p", d.h0 + d.h1)])
        assert len(edges) == 3
        assert all((e.tail, e.head) == ("T1", "T1p") for e in edges)

    @pytest.mark.parametrize("cap", [0, -1, -7, True])
    def test_nonpositive_capacity_rejected(self, cap):
        with pytest.raises(InputError):
            expand_capacities([("a", "b", cap)])

    @pytest.mark.parametrize("cap", [True, 1.0])
    def test_capacity_equal_to_one_but_not_an_int_is_rejected(self, cap):
        with pytest.raises(InputError, match="capacity must be a positive integer"):
            expand_capacities([("a", "b", 2), ("a", "b", cap)])

    def test_one_capacity_past_the_unit_edge_bound_is_refused(self):
        with pytest.raises(InputError, match=r"edge #0 \(a->b\) takes the capacities past"):
            expand_capacities([("a", "b", MAX_UNIT_EDGES + 1)])

    def test_capacities_adding_up_past_the_bound_name_the_edge_that_passes_it(self):
        half = (MAX_UNIT_EDGES >> 1) + 1
        with pytest.raises(InputError, match=r"edge #1 \(b->c\) takes the capacities past"):
            expand_capacities([("a", "b", half), ("b", "c", half)])

    @given(weighted_lists)
    def test_grouping_by_pair_recovers_capacities(self, weighted):
        edges = expand_capacities(weighted)
        assert len(edges) == sum(cap for _, _, cap in weighted)
        counts: dict[tuple[str, str], int] = {}
        for e in edges:
            counts[(e.tail, e.head)] = counts.get((e.tail, e.head), 0) + 1
        expect: dict[tuple[str, str], int] = {}
        for tail, head, cap in weighted:
            expect[(tail, head)] = expect.get((tail, head), 0) + cap
        assert counts == expect


class TestNetworkValidation:
    def test_source_equal_terminal_rejected(self):
        with pytest.raises(InputError):
            mknet([("s", "t")], source="s", terminals=("s", "t"))

    def test_equal_terminals_rejected(self):
        with pytest.raises(InputError):
            mknet([("s", "t")], source="s", terminals=("t", "t"))

    @pytest.mark.parametrize("field", ["nodes", "edges", "terminals"])
    def test_a_list_field_is_refused(self, field):
        # A list would let a caller change the network under its cached cuts.
        fields = dict(
            nodes=("s", "t1", "t2"),
            edges=(Edge(0, "s", "t1"), Edge(1, "s", "t2")),
            source="s",
            terminals=("t1", "t2"),
        )
        fields[field] = list(fields[field])
        with pytest.raises(InputError, match=f"^{field} must be a tuple, got list$"):
            Network(**fields)

    @pytest.mark.parametrize("terminals", [(), ("t1",), ("t1", "t2", "t1")])
    def test_terminals_other_than_a_pair_are_refused(self, terminals):
        with pytest.raises(InputError, match=f"terminals must be a pair, got {len(terminals)}"):
            Network(nodes=("s", "t1", "t2"), edges=(), source="s", terminals=terminals)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(nodes=(0, 1, 2), edges=(Edge(0, 0, 1),), source=0, terminals=(1, 2)),
             "node labels must be strings, got 0"),
            (dict(edges=(Edge(0, "s", "t1"), (1, "s", "t2"))),
             "edges must be Edge values, got (1, 's', 't2')"),
            (dict(edges=(Edge("0", "s", "t1"),)), "edge ids must be integers, got '0'"),
            (dict(edges=(Edge(0.0, "s", "t1"),)), "edge ids must be integers, got 0.0"),
            (dict(edges=(Edge(True, "s", "t1"),)), "edge ids must be integers, got True"),
            (dict(source=["s"]), "source and terminals must be strings, got ['s']"),
            (dict(terminals=("t1", ["t2"])), "source and terminals must be strings, got ['t2']"),
        ],
        ids=["int-labels", "plain-tuple-edge", "str-edge-id", "float-edge-id",
             "bool-edge-id", "list-source", "list-terminal"],
    )
    def test_elements_a_later_call_would_crash_on_are_refused(self, fields, message):
        # Each of these used to pass construction and fail later untyped:
        # AttributeError in synthesize or check_feasibility, or a bare TypeError.
        fields = dict(
            dict(nodes=("s", "t1", "t2"), edges=(Edge(0, "s", "t1"),), source="s",
                 terminals=("t1", "t2")),
            **fields,
        )
        with pytest.raises(InputError, match=re.escape(message)) as exc:
            Network(**fields)
        assert type(exc.value) is InputError

    def test_self_loop_rejected(self):
        with pytest.raises(InputError):
            Network(
                nodes=("s", "t1", "t2"),
                edges=(Edge(0, "s", "s"),),
                source="s",
                terminals=("t1", "t2"),
            )

    def test_duplicate_edge_id_rejected(self):
        with pytest.raises(InputError):
            Network(
                nodes=("s", "t1", "t2"),
                edges=(Edge(0, "s", "t1"), Edge(0, "s", "t2")),
                source="s",
                terminals=("t1", "t2"),
            )

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(UnknownNodeError):
            Network(
                nodes=("s", "t1", "t2"),
                edges=(Edge(0, "s", "zzz"),),
                source="s",
                terminals=("t1", "t2"),
            )

    @pytest.mark.parametrize(
        "edges, error, message",
        [
            ((Edge(0, "s", "zzz"), Edge(1, "t1", "t1")), UnknownNodeError, "edge 0 references"),
            ((Edge(0, "t1", "t1"), Edge(1, "s", "zzz")), InputError, "self-loop at 't1'"),
            ((Edge(0, "s", "t1"), Edge(0, "s", "t2"), Edge(1, "t2", "t2")), InputError,
             "duplicate edge id 0"),
            ((Edge(0, "s", "t1"), Edge(1, "t2", "t2"), Edge(0, "s", "t2")), InputError,
             "self-loop at 't2'"),
        ],
    )
    def test_first_offending_edge_names_the_error(self, edges, error, message):
        with pytest.raises(error, match=message) as exc:
            Network(nodes=("s", "t1", "t2"), edges=edges, source="s", terminals=("t1", "t2"))
        assert type(exc.value) is error

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), ends, ends)))
    def test_validation_raises_what_a_per_edge_walk_raises(self, triples):
        edges = tuple(Edge(*t) for t in triples)
        want = _first_edge_error_reference(edges, {"s", "t1", "t2"})
        try:
            Network(nodes=("s", "t1", "t2"), edges=edges, source="s", terminals=("t1", "t2"))
        except (InputError, UnknownNodeError) as exc:
            assert (type(exc), str(exc)) == want
        else:
            assert want is None

    def test_demand_rejects_negative_rates(self):
        with pytest.raises(InputError):
            Demand(1, -1, 0)

    @pytest.mark.parametrize("rates", [(True, 0, 0), (2, True, 1), (0, 0, False)])
    def test_demand_rejects_boolean_rates(self, rates):
        with pytest.raises(InputError, match="nonnegative integer"):
            Demand(*rates)


def _first_edge_error_reference(edges, node_set):
    """The error a walk over the edges in order raises first, as (type, message)."""
    seen = set()
    for e in edges:
        if e.tail == e.head:
            return InputError, f"self-loop at {e.tail!r}"
        if e.tail not in node_set or e.head not in node_set:
            return UnknownNodeError, f"edge {e.eid} references unknown node"
        if e.eid in seen:
            return InputError, f"duplicate edge id {e.eid}"
        seen.add(e.eid)
    return None


class TestOutEdges:
    def test_fig2_source_has_its_four_marked_edges(self, fig2):
        ids = out_edges(fig2, "1")
        pairs = [(fig2.edge(i).tail, fig2.edge(i).head) for i in ids]
        assert pairs == [("1", "6"), ("1", "2"), ("1", "3"), ("1", "7")]

    def test_isolated_node_has_no_out_edges(self):
        net = mknet([("s", "t1")], source="s", terminals=("t1", "t2"), extra_nodes=("x",))
        assert out_edges(net, "x") == []
        assert in_edges(net, "x") == []

    def test_parallel_out_edges_are_distinct(self):
        net = mknet([("s", "t1"), ("s", "t1")], source="s", terminals=("t1", "t2"))
        ids = out_edges(net, "s")
        assert len(ids) == 2 and ids[0] != ids[1]


class TestRemoveEdges:
    def test_remove_nothing_is_identity(self, fig2):
        assert remove_edges(fig2, set()) == fig2

    def test_remove_all_source_out_edges_kills_flow(self, fig2):
        net = remove_edges(fig2, set(out_edges(fig2, "1")))
        assert max_flow(net, "1", {"T1", "T2"}).value == 0

    def test_fig2_minus_routing_paths_leaves_coded_core(self, fig2):
        # Dropping the two outer branches leaves the 2-to-each-terminal core.
        outer = {0, 4, 3, 5}  # 1->6, 6->T1, 1->7, 7->T2
        net = remove_edges(fig2, outer)
        for t in ("T1", "T2"):
            assert max_flow(net, "1", {t}).value == 2
            assert mincut_enumerate(net, "1", {t}) == 2

    def test_unknown_id_raises(self, fig2):
        with pytest.raises(UnknownEdgeError):
            remove_edges(fig2, {999})

    def test_surviving_ids_are_stable(self, fig2):
        net = remove_edges(fig2, {0, 5})
        assert {e.eid for e in net.edges} == set(range(13)) - {0, 5}
        assert net.edge(7) == fig2.edge(7)

    @given(st.sets(st.integers(0, 12), max_size=6))
    def test_split_removal_matches_joint_removal(self, fig2, ids):
        ids = set(ids)
        half = {i for i in ids if i % 2 == 0}
        rest = ids - half
        joint = remove_edges(fig2, ids)
        split = remove_edges(remove_edges(fig2, half), rest)
        assert joint == split


def _fresh(net: Network) -> Network:
    return Network(nodes=net.nodes, edges=net.edges, source=net.source, terminals=net.terminals)


def _assert_out_lists_head_the_arc_lists(net: Network) -> None:
    """Each node's out list is the even-numbered head of its arc list, and
    its degrees are the parity counts of that list."""
    graph = net._residual_arcs
    assert len(graph.out) == len(graph.arcs) == len(net.nodes)
    for v, (node_arcs, out) in enumerate(zip(graph.arcs, graph.out)):
        n_in = sum(a & 1 for a in node_arcs)
        assert out == node_arcs[: len(out)] == [a for a in node_arcs if not a & 1]
        assert graph.degrees(v) == (len(node_arcs) - n_in, n_in)


def _assert_caches_match_a_fresh_build(net: Network) -> None:
    fresh = _fresh(net)  # runs the checks add_virtual does not repeat
    assert net == fresh
    assert net._residual_arcs == fresh._residual_arcs  # the out lists too
    _assert_out_lists_head_the_arc_lists(net)
    _assert_out_lists_head_the_arc_lists(fresh)
    assert list(net._edge_index.items()) == list(fresh._edge_index.items())
    assert net.next_edge_id() == fresh.next_edge_id()


@settings(max_examples=150, deadline=None)
@given(digraphs(), st.booleans())
def test_out_lists_of_a_fresh_network(net, reverse):
    if reverse:
        net = Network(nodes=net.nodes, edges=net.edges[::-1], source=net.source,
                      terminals=net.terminals)
    _assert_out_lists_head_the_arc_lists(net)
    graph = net._residual_arcs
    for v, label in enumerate(net.nodes):
        assert graph.degrees(v) == (
            sum(e.tail == label for e in net.edges),
            sum(e.head == label for e in net.edges),
        )


class TestAddVirtualInheritsCaches:
    """An extended network's derived caches equal those of a fresh build."""

    @settings(max_examples=150, deadline=None)
    @given(digraphs(), demands(), st.booleans(), st.booleans(), st.data())
    def test_build_augmented(self, net, d, warm, reverse, data):
        # Ids need not be listed in order nor be contiguous.
        dropped = data.draw(st.sets(st.sampled_from([e.eid for e in net.edges] or [0])))
        net = remove_edges(net, dropped & {e.eid for e in net.edges})
        if reverse:
            net = Network(nodes=net.nodes, edges=net.edges[::-1], source=net.source,
                          terminals=net.terminals)
        if warm:
            check_feasibility(net, d)  # caches the base's adjacency and cuts
        ext = build_augmented(net, d)
        _assert_caches_match_a_fresh_build(ext)
        assert ext.edges[: len(net.edges)] == net.edges
        assert [e.eid for e in ext.edges[len(net.edges) :]] == list(
            range(net.next_edge_id(), ext.next_edge_id())
        )

    @settings(max_examples=150, deadline=None)
    @given(digraphs(), st.booleans(), st.data())
    def test_new_edges_on_any_base_or_new_node(self, net, warm, data):
        if warm:
            net._residual_arcs
        base_arcs = _fresh(net)._residual_arcs
        labels = st.sampled_from(net.nodes + ("x", "y"))
        pairs = st.tuples(labels, labels).filter(lambda pair: pair[0] != pair[1])
        new_edges = data.draw(st.lists(pairs, max_size=8))
        more = add_virtual(net, ["x", "y"], new_edges)
        assert more.edges[: len(net.edges)] == net.edges
        assert [e.eid for e in more.edges[len(net.edges) :]] == list(
            range(net.next_edge_id(), net.next_edge_id() + len(new_edges))
        )
        _assert_caches_match_a_fresh_build(more)
        # An extension of an extension inherits the inherited caches.
        labels = st.sampled_from(more.nodes + ("z",))
        pairs = st.tuples(labels, labels).filter(lambda pair: pair[0] != pair[1])
        again = add_virtual(more, ["z"], data.draw(st.lists(pairs, max_size=4)))
        _assert_caches_match_a_fresh_build(again)
        # The base's shared arc lists are left as they were.
        assert net._residual_arcs == base_arcs

    def test_invalid_new_edge_is_refused_as_in_a_fresh_build(self, fig2):
        with pytest.raises(UnknownNodeError, match="references unknown node"):
            add_virtual(fig2, ["x"], [("x", "nowhere")])
        with pytest.raises(InputError, match="self-loop"):
            add_virtual(fig2, ["x"], [("x", "x")])
        with pytest.raises(InputError, match="duplicate node labels"):
            add_virtual(fig2, ["T1"], [])
        with pytest.raises(InputError, match="node labels must be strings, got 7"):
            add_virtual(fig2, [7], [])
