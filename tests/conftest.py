from __future__ import annotations

import faulthandler
import os
import random
import sys

import pytest

from dualcast.fixtures import fig2_network
from dualcast.netgraph import Demand, Edge, Network
from dualcast.planner import check_feasibility

# A test item (setup, call and teardown together) still running after this
# many seconds is taken to hang: every thread's traceback is dumped and the
# run exits with status 1, so a hang fails instead of stalling the suite.
# The slowest item, the acceptance sweep's setup, takes a few seconds.
HANG_SECONDS = 120
_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # A copy of stderr taken while output is not captured, so the dump is seen.
    config.stash[_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(HANG_SECONDS, exit=True, file=item.config.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()


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


def wide_network(width: int = 6, layers: int = 3) -> Network:
    """s feeds `width` nodes; each layer node feeds 3 of the next; the last feeds both terminals."""
    pairs = [("s", f"L0n{i}") for i in range(width)]
    for k in range(layers - 1):
        for i in range(width):
            pairs += [(f"L{k}n{i}", f"L{k + 1}n{(i + step) % width}") for step in (0, 1, 3)]
    for i in range(width):
        pairs += [(f"L{layers - 1}n{i}", "t1"), (f"L{layers - 1}n{i}", "t2")]
    return mknet(pairs, "s", ("t1", "t2"))


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


def random_network(
    rng: random.Random, max_nodes: int = 8, max_edges: int = 14
) -> Network:
    """A random connected DAG with the source first and the terminals last.

    Nodes are v0..v{n-1} in topological order; every node beyond v0 gets a
    backbone in-edge from an earlier node, then extra forward edges (parallels
    allowed) are added up to the edge budget.
    """
    n = rng.randint(4, max_nodes)
    labels = [f"v{i}" for i in range(n)]
    pairs: list[tuple[str, str]] = []
    for j in range(1, n):
        pairs.append((labels[rng.randint(0, j - 1)], labels[j]))
    extra = rng.randint(0, max_edges - (n - 1))
    for _ in range(extra):
        i = rng.randint(0, n - 2)
        j = rng.randint(i + 1, n - 1)
        pairs.append((labels[i], labels[j]))
    edges = tuple(Edge(k, tail, head) for k, (tail, head) in enumerate(pairs))
    return Network(
        nodes=tuple(labels),
        edges=edges,
        source=labels[0],
        terminals=(labels[n - 2], labels[n - 1]),
    )


def all_demands(max_total: int = 4) -> list[Demand]:
    """Every demand triple with h0+h1+h2 <= max_total, in lexicographic order."""
    return [
        Demand(h0, h1, h2)
        for h0 in range(max_total + 1)
        for h1 in range(max_total + 1 - h0)
        for h2 in range(max_total + 1 - h0 - h1)
    ]


def random_feasible_instances(
    seed: int, count: int = 50, max_total: int = 4
) -> list[tuple[Network, Demand]]:
    """Seeded sample of (network, demand) pairs that pass the feasibility check.

    Demands are drawn nonzero; graphs that cannot support any nonzero demand
    are skipped, so the result always has exactly `count` entries.
    """
    rng = random.Random(seed)
    demands = [d for d in all_demands(max_total) if d.total > 0]
    out: list[tuple[Network, Demand]] = []
    while len(out) < count:
        net = random_network(rng)
        candidates = demands[:]
        rng.shuffle(candidates)
        for d in candidates:
            if check_feasibility(net, d).feasible:
                out.append((net, d))
                break
    return out
