"""Hypothesis strategies for small random networks and demands."""

from __future__ import annotations

from hypothesis import strategies as st

from dualcast.netgraph import Demand, Edge, Network

from oracles import min_cut_value


@st.composite
def dag_networks(draw, max_nodes: int = 7, max_extra: int = 8) -> Network:
    """Connected random DAG; node index order is a topological order.

    v0 is the source, the two highest-numbered nodes are the terminals. Every
    node gets a backbone in-edge from an earlier node; extra forward edges
    (parallels allowed) are layered on top.
    """
    n = draw(st.integers(3, max_nodes))
    labels = [f"v{i}" for i in range(n)]
    pairs: list[tuple[str, str]] = []
    for j in range(1, n):
        i = draw(st.integers(0, j - 1))
        pairs.append((labels[i], labels[j]))
    for _ in range(draw(st.integers(0, max_extra))):
        i = draw(st.integers(0, n - 2))
        j = draw(st.integers(i + 1, n - 1))
        pairs.append((labels[i], labels[j]))
    return Network(
        nodes=tuple(labels),
        edges=tuple(Edge(k, t, h) for k, (t, h) in enumerate(pairs)),
        source=labels[0],
        terminals=(labels[-2], labels[-1]),
    )


@st.composite
def digraphs(draw, max_nodes: int = 6, max_edges: int = 10) -> Network:
    """Random directed multigraph, cycles allowed (no self-loops)."""
    n = draw(st.integers(3, max_nodes))
    labels = [f"v{i}" for i in range(n)]
    m = draw(st.integers(0, max_edges))
    pairs: list[tuple[str, str]] = []
    for _ in range(m):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 2))
        if j >= i:
            j += 1
        pairs.append((labels[i], labels[j]))
    return Network(
        nodes=tuple(labels),
        edges=tuple(Edge(k, t, h) for k, (t, h) in enumerate(pairs)),
        source=labels[0],
        terminals=(labels[-2], labels[-1]),
    )


@st.composite
def crossing_digraphs(
    draw, max_width: int = 6, max_layers: int = 5, max_back: int = 8, acyclic: bool = False
) -> Network:
    """Layered multigraph whose columns cross, with extra edges that make cycles unless acyclic.

    The source s feeds the first of `layers` layers of `width` nodes. Node j
    links to node j of the next layer and to two drawn nodes there, so equal
    draws give parallel edges; each last-layer node links to t1, t2 or both.
    Up to max_back extra edges then run from any node but s, the terminals
    included, to any layer node, closing cycles. With acyclic they run
    forward instead, from a layer node to a node of a later layer or to a
    terminal, and the graph stays a DAG. Many paths cross, so recoloring
    reroutes.
    """
    width = draw(st.integers(2, max_width))
    layers = draw(st.integers(2, max_layers))
    labels = ["s"] + [f"n{i}_{j}" for i in range(layers) for j in range(width)] + ["t1", "t2"]
    pairs = [("s", f"n0_{j}") for j in range(width)]
    column = st.integers(0, width - 1)
    for i in range(layers - 1):
        for j in range(width):
            for k in (j, draw(column), draw(column)):
                pairs.append((f"n{i}_{j}", f"n{i + 1}_{k}"))
    for j in range(width):
        for t in draw(st.sampled_from((("t1",), ("t2",), ("t1", "t2")))):
            pairs.append((f"n{layers - 1}_{j}", t))
    for _ in range(draw(st.integers(0, max_back))):
        if acyclic:
            i = draw(st.integers(0, layers - 1))
            tail = f"n{i}_{draw(column)}"
            head = draw(st.sampled_from(labels[1 + (i + 1) * width:]))
        else:
            tail = draw(st.sampled_from(labels[1:]))
            head = draw(st.sampled_from(labels[1:-2]))
        if tail != head:
            pairs.append((tail, head))
    return Network(
        nodes=tuple(labels),
        edges=tuple(Edge(k, t, h) for k, (t, h) in enumerate(pairs)),
        source="s",
        terminals=("t1", "t2"),
    )


def demands(max_total: int = 4) -> st.SearchStrategy[Demand]:
    return st.tuples(
        st.integers(0, max_total), st.integers(0, max_total), st.integers(0, max_total)
    ).filter(lambda t: sum(t) <= max_total).map(lambda t: Demand(*t))


@st.composite
def feasible_instances(draw, max_nodes: int = 7, cyclic: bool = False) -> tuple[Network, Demand]:
    """A DAG, or with cyclic a digraph, with a demand known to meet the three cut conditions."""
    net = draw(digraphs(max_nodes=max_nodes) if cyclic else dag_networks(max_nodes=max_nodes))
    t1, t2 = net.terminals
    c1 = min_cut_value(net, net.source, {t1})
    c2 = min_cut_value(net, net.source, {t2})
    c12 = min_cut_value(net, net.source, {t1, t2})
    h0 = draw(st.integers(0, min(c1, c2, c12, 3)))
    h1 = draw(st.integers(0, min(c1 - h0, c12 - h0, 3)))
    h2 = draw(st.integers(0, min(c2 - h0, c12 - h0 - h1, 3)))
    return net, Demand(h0, h1, h2)


@st.composite
def crossing_instances(draw, acyclic: bool = False) -> tuple[Network, Demand]:
    """A crossing_digraphs network with a drawn h0 and private rates as large as the cuts allow."""
    net = draw(crossing_digraphs(acyclic=acyclic))
    t1, t2 = net.terminals
    c1 = min_cut_value(net, net.source, {t1})
    c2 = min_cut_value(net, net.source, {t2})
    c12 = min_cut_value(net, net.source, {t1, t2})
    h0 = draw(st.integers(0, min(c1, c2)))
    h1 = min(c1 - h0, c12 - h0)
    return net, Demand(h0, h1, min(c2 - h0, c12 - h0 - h1))
