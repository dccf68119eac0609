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


def demands(max_total: int = 4) -> st.SearchStrategy[Demand]:
    return st.tuples(
        st.integers(0, max_total), st.integers(0, max_total), st.integers(0, max_total)
    ).filter(lambda t: sum(t) <= max_total).map(lambda t: Demand(*t))


@st.composite
def feasible_instances(
    draw, max_nodes: int = 7, cyclic: bool = False
) -> tuple[Network, Demand]:
    """A network with a demand already known to satisfy the three cut conditions.

    The network is a DAG, or with cyclic=True a digraph that may hold cycles.
    """
    net = draw((digraphs if cyclic else dag_networks)(max_nodes=max_nodes))
    t1, t2 = net.terminals
    c1 = min_cut_value(net, net.source, {t1})
    c2 = min_cut_value(net, net.source, {t2})
    c12 = min_cut_value(net, net.source, {t1, t2})
    h0 = draw(st.integers(0, min(c1, c2, c12, 3)))
    h1 = draw(st.integers(0, min(c1 - h0, c12 - h0, 3)))
    h2 = draw(st.integers(0, min(c2 - h0, c12 - h0 - h1, 3)))
    return net, Demand(h0, h1, h2)
