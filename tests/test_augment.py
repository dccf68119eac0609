from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualcast.augment import T1P, T2P, Y1, build_augmented
from dualcast.errors import InputError
from dualcast.netgraph import Demand, Edge, Network

from conftest import mknet, parallel_net
from oracles import (
    Y2, check_lemma, in_edges, mincut_enumerate, out_edges, with_second_collector,
)
from strategies import dag_networks, demands, feasible_instances


def bundle_count(ext, tail, head):
    return sum(1 for e in ext.edges if (e.tail, e.head) == (tail, head))


class TestBuildAugmented:
    def test_fig2_demand_211_bundle_sizes(self, fig2):
        ext = build_augmented(fig2, Demand(2, 1, 1))
        t1, t2 = fig2.terminals
        assert bundle_count(ext, t1, T1P) == 3
        assert bundle_count(ext, T1P, Y1) == 3
        assert bundle_count(ext, t2, T2P) == 3
        assert bundle_count(ext, T2P, Y1) == 1
        assert len(in_edges(ext, Y1)) == 4
        assert len(in_edges(ext, T1P)) == 3
        assert len(in_edges(ext, T2P)) == 3

    def test_no_second_collector(self, fig2):
        ext = build_augmented(fig2, Demand(2, 1, 1))
        assert ext.nodes[len(fig2.nodes):] == (T1P, T2P, Y1)

    def test_zero_demand_leaves_collectors_isolated(self, fig2):
        ext = build_augmented(fig2, Demand(0, 0, 0))
        assert ext.edges == fig2.edges
        for v in (T1P, T2P, Y1):
            assert in_edges(ext, v) == [] and out_edges(ext, v) == []

    def test_demand_102_asymmetric_bundles(self, fig2):
        ext = build_augmented(fig2, Demand(1, 0, 2))
        assert bundle_count(ext, T1P, Y1) == 1
        assert bundle_count(ext, T2P, Y1) == 2

    def test_collector_has_no_out_edges(self, fig2):
        ext = build_augmented(fig2, Demand(2, 1, 1))
        assert out_edges(ext, Y1) == []

    def test_original_graph_is_untouched(self, fig2):
        ext = build_augmented(fig2, Demand(2, 1, 1))
        assert ext.edges[: len(fig2.edges)] == fig2.edges
        assert set(fig2.nodes) < set(ext.nodes)
        # The virtual edges come after the base's, and only they touch a virtual node.
        virtual = {T1P, T2P, Y1}
        for e in ext.edges[len(fig2.edges):]:
            assert e.eid >= fig2.next_edge_id() and {e.tail, e.head} & virtual

    def test_reserved_labels_rejected(self):
        net = Network(
            nodes=("s", "t1", "t2", "__Y1"),
            edges=(Edge(0, "s", "t1"), Edge(1, "s", "t2")),
            source="s",
            terminals=("t1", "t2"),
        )
        with pytest.raises(InputError):
            build_augmented(net, Demand(0, 1, 1))

    def test_reserved_label_error_names_the_first_one_on_every_call(self):
        net = Network(
            nodes=("s", "__a", "t1", "__b", "t2"),
            edges=(Edge(0, "s", "t1"), Edge(1, "s", "t2")),
            source="s",
            terminals=("t1", "t2"),
        )
        # The label is looked up once and cached on the network; a second
        # demand on it is refused with the same text.
        for d in (Demand(0, 1, 1), Demand(1, 0, 0)):
            with pytest.raises(InputError) as exc:
                build_augmented(net, d)
            assert str(exc.value) == "node label '__a' uses the reserved '__' prefix"

    @given(demands())
    @settings(max_examples=40, deadline=None)
    def test_node_and_edge_deltas(self, fig2, d):
        ext = build_augmented(fig2, d)
        assert len(ext.nodes) - len(fig2.nodes) == 3
        expected = 3 * d.h0 + 2 * d.h1 + 2 * d.h2
        assert len(ext.edges) - len(fig2.edges) == expected


class TestCheckLemma:
    def test_fig2_identities(self, fig2):
        d = Demand(2, 1, 1)
        ext = build_augmented(fig2, d)
        report = check_lemma(ext, fig2, d)
        assert report.applicable and report.ok
        assert (report.cut_t1p, report.cut_t2p) == (3, 3)
        assert report.cut_pair >= 4
        assert (report.cut_y1, report.cut_y2) == (4, 4)
        # Cross-check every reported cut against subset enumeration.
        assert report.cut_t1p == mincut_enumerate(ext, "1", {T1P})
        assert report.cut_t2p == mincut_enumerate(ext, "1", {T2P})
        assert report.cut_pair == mincut_enumerate(ext, "1", {T1P, T2P})
        assert report.cut_y1 == mincut_enumerate(ext, "1", {Y1})
        assert report.cut_y2 == mincut_enumerate(with_second_collector(ext, d), "1", {Y2})

    def test_zero_demand_trivially_satisfied(self, fig2):
        report = check_lemma(build_augmented(fig2, Demand(0, 0, 0)), fig2, Demand(0, 0, 0))
        assert report.ok
        assert (report.cut_t1p, report.cut_t2p, report.cut_pair) == (0, 0, 0)
        assert (report.cut_y1, report.cut_y2) == (0, 0)

    def test_virtual_bundle_caps_oversized_cut(self):
        # Plenty of raw capacity toward T1; the virtual bundle still pins the cut.
        d = Demand(2, 1, 0)
        net = parallel_net(d.h0 + d.h1 + 5, d.h0)
        report = check_lemma(build_augmented(net, d), net, d)
        assert report.cut_t1p == d.h0 + d.h1
        assert report.ok

    def test_infeasible_demand_flagged_not_applicable(self, fig2):
        d = Demand(4, 1, 1)
        report = check_lemma(build_augmented(fig2, d), fig2, d)
        assert not report.applicable
        assert not report.ok

    @given(feasible_instances())
    @settings(max_examples=120, deadline=None)
    def test_identities_hold_whenever_base_cuts_do(self, instance):
        net, d = instance
        report = check_lemma(build_augmented(net, d), net, d)
        assert report.applicable
        assert report.ok, report

    @given(dag_networks(), demands())
    @settings(max_examples=80, deadline=None)
    def test_t1p_cut_never_exceeds_its_bundle(self, net, d):
        report = check_lemma(build_augmented(net, d), net, d)
        assert report.cut_t1p <= d.h0 + d.h1
        assert report.cut_t2p <= d.h0 + d.h2
