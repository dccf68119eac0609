from __future__ import annotations

import random

import pytest

from dualcast.fixtures import fig2_network
from dualcast.netgraph import Edge, Network


def mknet(pairs, source, terminals, extra_nodes=()) -> Network:
    """Small-network builder: edge ids follow the order of `pairs`."""
    nodes: list[str] = []
    for tail, head in pairs:
        for v in (tail, head):
            if v not in nodes:
                nodes.append(v)
    for v in (source, *terminals, *extra_nodes):
        if v not in nodes:
            nodes.append(v)
    return Network(
        nodes=tuple(nodes),
        edges=tuple(Edge(i, t, h) for i, (t, h) in enumerate(pairs)),
        source=source,
        terminals=tuple(terminals),
    )


@pytest.fixture(scope="session")
def fig2() -> Network:
    return fig2_network()


@pytest.fixture(scope="session")
def butterfly() -> Network:
    """The classic 7-node coded-bottleneck network; min-cut 2 to each terminal."""
    return mknet(
        [
            ("s", "a"),
            ("s", "b"),
            ("a", "t1"),
            ("b", "t2"),
            ("a", "m"),
            ("b", "m"),
            ("m", "n"),
            ("n", "t1"),
            ("n", "t2"),
        ],
        source="s",
        terminals=("t1", "t2"),
    )


def parallel_net(k1: int, k2: int) -> Network:
    """k1 parallel edges source->T1 plus k2 parallel edges source->T2."""
    pairs = [("s", "t1")] * k1 + [("s", "t2")] * k2
    return mknet(pairs, source="s", terminals=("t1", "t2"))


def small_cyclic_network(rng: random.Random) -> Network:
    """A random digraph with cycles: 4-8 nodes, 8-16 edges, v0 the source."""
    n = rng.randint(4, 8)
    labels = tuple(f"v{i}" for i in range(n))
    edges = []
    for eid in range(rng.randint(8, 16)):
        tail = rng.randrange(n)
        head = rng.randrange(n - 1)
        edges.append(Edge(eid, labels[tail], labels[head + (head >= tail)]))
    return Network(nodes=labels, edges=tuple(edges), source="v0", terminals=labels[-2:])
