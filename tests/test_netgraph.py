from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dualcast.errors import InputError, UnknownEdgeError, UnknownNodeError
from dualcast.flow import max_flow
from dualcast.netgraph import (
    Demand,
    Edge,
    Network,
    expand_capacities,
    remove_edges,
)

from conftest import mknet
from oracles import in_edges, mincut_enumerate, out_edges

labels = st.sampled_from(["a", "b", "c", "d", "e"])
weighted_lists = st.lists(
    st.tuples(labels, labels, st.integers(1, 4)).filter(lambda t: t[0] != t[1]),
    max_size=8,
)


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

    def test_demand_rejects_negative_rates(self):
        with pytest.raises(InputError):
            Demand(1, -1, 0)

    @pytest.mark.parametrize("rates", [(True, 0, 0), (2, True, 1), (0, 0, False)])
    def test_demand_rejects_boolean_rates(self, rates):
        with pytest.raises(InputError, match="nonnegative integer"):
            Demand(*rates)


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
