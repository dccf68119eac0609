"""Seeded instance generators for the three benchmark workloads.

Every generated case is plain data: a network document in the CLI's JSON
format, the demands to run on it, the synthesis seed, the initial field size
and the three min-cut values (to T1, to T2, to both). The cut values come from
the benchmark itself, never from dualcast, so no change to the program can
change a workload, and check_feasibility's answers can be checked against
them. Demands are chosen from cut values only: those are the same for every
correct program, unlike paths or plans.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

WORKLOADS = ("ladder", "small-sweep", "coded-gf16")

# The butterfly example that dualcast ships as data/fig2.json, kept here so a
# change to the package data cannot change the ladder.
FIG2 = {
    "nodes": ["1", "2", "3", "4", "5", "6", "7", "T1", "T2"],
    "edges": [
        {"from": a, "to": b}
        for a, b in (
            ("1", "6"), ("1", "2"), ("1", "3"), ("1", "7"), ("6", "T1"), ("7", "T2"),
            ("2", "T1"), ("3", "T2"), ("2", "4"), ("3", "4"), ("4", "5"), ("5", "T1"),
            ("5", "T2"),
        )
    ],
    "source": "1",
    "terminals": ["T1", "T2"],
}
FIG2_CUTS = (3, 3, 4)

# (width, networks of each kind): about the same time on every rung, and
# over 100 instances in all, so that p90 has ten beyond it.
LADDER_RUNGS = ((8, 28), (16, 12), (32, 6), (64, 3), (128, 1))
LADDER_LAYERS = 4
CODED_WIDTHS = (4, 5, 6)
CODED_LAYERS = 4
CODED_PER_WIDTH = 36
CODED_PRIVATE_RATES = ((0, 0), (1, 1), (1, 0), (0, 1))
SWEEP_NETWORKS = 100  # of each kind, DAG and cyclic, per pass
SWEEP_MAX_TOTAL = 4
TRIALS = 100  # verify_plan's trial count, the CLI default


@dataclass(frozen=True)
class Case:
    """One network and the demands the benchmark runs on it."""

    group: str  # breakdown label, e.g. "w64-cyclic" or "dag"
    doc: dict
    cuts: tuple[int, int, int]
    demands: tuple[tuple[int, int, int], ...]
    seed: int
    field_bits: int

    @property
    def edge_count(self) -> int:
        return len(self.doc["edges"])


def feasible(cuts: tuple[int, int, int], demand: tuple[int, int, int]) -> bool:
    h0, h1, h2 = demand
    return h0 + h1 <= cuts[0] and h0 + h2 <= cuts[1] and h0 + h1 + h2 <= cuts[2]


def _doc(labels: list[str], pairs: list[tuple[int, int]], source: int, t1: int, t2: int) -> dict:
    return {
        "nodes": labels,
        "edges": [{"from": labels[a], "to": labels[b]} for a, b in pairs],
        "source": labels[source],
        "terminals": [labels[t1], labels[t2]],
    }


def layered(
    rng: random.Random, width: int, layers: int, *, both: int, back_edges: int
) -> tuple[dict, tuple[int, int, int]]:
    """A layered network with out-degree 3 whose three min-cuts are known.

    The source feeds every node of layer 0. Node j of each layer links to node
    j of the next layer and to two other random nodes there, so the `width`
    columns are edge-disjoint paths. `both` last-layer nodes link to T1 and T2;
    the others link to one terminal, half to each. Then the cut to both
    terminals is the source's out-degree, `width`, and the cut to one terminal
    is its in-degree, because the columns reach all of its in-edges at once.
    Back edges between layers make the graph cyclic without touching either
    bound.
    """
    labels = ["s"] + [f"n{i}_{j}" for i in range(layers) for j in range(width)] + ["T1", "T2"]
    t1, t2 = len(labels) - 2, len(labels) - 1

    def node(i: int, j: int) -> int:
        return 1 + i * width + j

    pairs = [(0, node(0, j)) for j in range(width)]
    for i in range(layers - 1):
        for j in range(width):
            others = rng.sample([k for k in range(width) if k != j], 2)
            pairs += [(node(i, j), node(i + 1, k)) for k in (j, *others)]
    only_t1 = (width - both) // 2
    targets = [(t1, t2)] * both + [(t1,)] * only_t1 + [(t2,)] * (width - both - only_t1)
    rng.shuffle(targets)
    for j, heads in enumerate(targets):
        pairs += [(node(layers - 1, j), t) for t in heads]
    for _ in range(back_edges):
        i = rng.randrange(1, layers)
        k = rng.randrange(0, i)
        pairs.append((node(i, rng.randrange(width)), node(k, rng.randrange(width))))
    cuts = (both + only_t1, width - only_t1, width)
    return _doc(labels, pairs, 0, t1, t2), cuts


def small_dag(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """Acceptance-size DAG: 4-8 nodes in topological order, at most 14 edges."""
    n = rng.randint(4, 8)
    pairs = [(rng.randint(0, j - 1), j) for j in range(1, n)]
    for _ in range(rng.randint(0, 14 - (n - 1))):
        i = rng.randint(0, n - 2)
        pairs.append((i, rng.randint(i + 1, n - 1)))
    return n, pairs


def small_cyclic(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """Random digraph, cycles allowed: 4-9 nodes, 8-20 edges, parallels allowed."""
    n = rng.randint(4, 9)
    pairs: list[tuple[int, int]] = []
    for _ in range(rng.randint(8, 20)):
        a = rng.randrange(n)
        b = rng.randrange(n - 1)
        pairs.append((a, b + (b >= a)))
    return n, pairs


def max_flow_value(n: int, pairs: list[tuple[int, int]], source: int, sinks: list[int]) -> int:
    """Unit-capacity max-flow by shortest augmenting paths on a capacity matrix.

    Meant for the small sweep graphs only; the sinks drain into a super-sink.
    """
    sink = n
    cap = [[0] * (n + 1) for _ in range(n + 1)]
    for a, b in pairs:
        cap[a][b] += 1
    for v in sinks:
        cap[v][sink] = len(pairs)
    value = 0
    while True:
        parent = [-1] * (n + 1)
        parent[source] = source
        queue = [source]
        for u in queue:
            for v in range(n + 1):
                if cap[u][v] and parent[v] < 0:
                    parent[v] = u
                    queue.append(v)
        if parent[sink] < 0:
            return value
        v = sink
        while v != source:
            u = parent[v]
            cap[u][v] -= 1
            cap[v][u] += 1
            v = u
        value += 1


def _sweep_case(rng: random.Random, group: str, n: int, pairs: list[tuple[int, int]]) -> Case:
    t1, t2 = n - 2, n - 1
    cuts = (
        max_flow_value(n, pairs, 0, [t1]),
        max_flow_value(n, pairs, 0, [t2]),
        max_flow_value(n, pairs, 0, [t1, t2]),
    )
    m = SWEEP_MAX_TOTAL
    demands = tuple(
        (h0, h1, h2)
        for h0 in range(m + 1)
        for h1 in range(m + 1 - h0)
        for h2 in range(m + 1 - h0 - h1)
    )
    labels = [f"v{i}" for i in range(n)]
    return Case(group, _doc(labels, pairs, 0, t1, t2), cuts, demands, rng.randrange(2**31), 8)


def generate(workload: str, seed: int) -> list[Case]:
    """The cases of one pass of `workload`; the same seed gives the same cases."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    cases: list[Case] = []
    if workload == "ladder":
        cases.append(Case("fig2", FIG2, FIG2_CUTS, ((2, 1, 1),), rng.randrange(2**31), 8))
        for cyclic in (False, True):
            for w, count in LADDER_RUNGS:
                for _ in range(count):
                    back = w * LADDER_LAYERS // 4 if cyclic else 0
                    doc, (c1, c2, c12) = layered(
                        rng, w, LADDER_LAYERS, both=max(1, w // 10), back_edges=back
                    )
                    h0 = c1 + c2 - c12  # the smallest shared rate with h1, h2 maximal
                    group = f"w{w}-{'cyclic' if cyclic else 'acyclic'}"
                    demand = (h0, c1 - h0, c2 - h0)
                    synth_seed = rng.randrange(2**31)
                    cases.append(Case(group, doc, (c1, c2, c12), (demand,), synth_seed, 8))
    elif workload == "small-sweep":
        for group, make in (("dag", small_dag), ("cyclic", small_cyclic)):
            for _ in range(SWEEP_NETWORKS):
                cases.append(_sweep_case(rng, group, *make(rng)))
    elif workload == "coded-gf16":
        for w in CODED_WIDTHS:
            for i in range(CODED_PER_WIDTH):
                h1, h2 = CODED_PRIVATE_RATES[i % len(CODED_PRIVATE_RATES)]
                doc, cuts = layered(rng, w, CODED_LAYERS, both=w, back_edges=0)
                demand = (w - h1 - h2, h1, h2)  # every cut is w
                cases.append(Case(f"w{w}", doc, cuts, (demand,), rng.randrange(2**31), 16))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return cases


def canonical_bytes(cases: list[Case]) -> bytes:
    """Byte form of a pass's inputs; its digest identifies the workload."""
    return json.dumps(
        [[c.group, c.doc, c.cuts, c.demands, c.seed, c.field_bits] for c in cases],
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
