"""Integral max-flow / min-cut on unit-capacity multigraphs, plus path decomposition.

Unit capacities keep everything combinatorial: a flow is a set of edges, and a
maximum flow decomposes into value-many edge-disjoint source-to-sink paths
(constructive Menger). Maximum flows come from Dinic's blocking-flow
algorithm, in which any sink of a sink set ends a search branch, over a
residual adjacency that each Network builds once (Network._residual_arcs).
The same loop can continue from a flow it already found: terminal_cuts gets
a network's three terminal min-cuts from two Dinic runs, the pair cut
continuing the flow to T1, and each Network caches them
(Network._terminal_cuts). All tie-breaking is by ascending edge id, out-arcs
before in-arcs, so identical inputs always produce identical flows and paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import InputError, InvariantError, UnknownEdgeError, UnknownNodeError
from .netgraph import EdgeId, Network, NodeId, ResidualArcs


@dataclass(frozen=True)
class EdgePath:
    """A walk of distinct edges; consecutive edges share head -> tail."""

    edges: tuple[EdgeId, ...]


def check_path(net: Network, path: EdgePath, src: NodeId, sink: NodeId) -> None:
    """Raise InvariantError unless path is a contiguous src -> sink walk of distinct edges."""
    if not path.edges:
        raise InvariantError("empty path")
    if len(set(path.edges)) != len(path.edges):
        raise InvariantError("repeated edge within path")
    if net.edge(path.edges[0]).tail != src:
        raise InvariantError(f"path does not start at {src!r}")
    if net.edge(path.edges[-1]).head != sink:
        raise InvariantError(f"path does not end at {sink!r}")
    for a, b in zip(path.edges, path.edges[1:]):
        if net.edge(a).head != net.edge(b).tail:
            raise InvariantError(f"edges {a} and {b} are not contiguous")


@dataclass(frozen=True)
class FlowResult:
    """An integral flow: value, a 0/1 assignment per edge, and the residual source side.

    source_side is the set of nodes reachable from the source in the final
    residual graph; edges crossing out of it form a minimum cut.
    """

    value: int
    edge_flow: dict[EdgeId, int]
    source_side: frozenset[NodeId]


def max_flow(net: Network, src: NodeId, sinks: Iterable[NodeId]) -> FlowResult:
    """Maximum integral flow from src to the sink set, by Dinic's algorithm.

    A thin wrapper over _augment, run from the zero flow. Every sink absorbs
    flow, so a sink set needs no super-sink. Arcs are tried in ascending edge
    id, a node's out-arcs before its in-arcs, so identical inputs give
    identical flows. The residual adjacency is built once per Network and
    shared by every call.
    """
    sink_set = set(sinks)
    if not sink_set:
        raise InputError("sink set must be nonempty")
    if src in sink_set:
        raise InputError("source cannot be a sink")
    index, eids, _, _ = graph = net._residual_arcs
    for v in [src, *sink_set]:
        if v not in index:
            raise UnknownNodeError(f"node {v!r} not in network")
    is_sink = bytearray(len(index))
    for v in sink_set:
        is_sink[index[v]] = 1
    residual = bytearray(b"\x01\x00") * len(eids)
    value, level = _augment(graph, index[src], is_sink, residual)
    # The last search reached no sink, so its levels mark the residual
    # reachable set: the source side of a minimum cut.
    edge_flow = dict(zip(eids, residual[1::2]))
    source_side = frozenset(v for v, lv in zip(net.nodes, level) if lv >= 0)
    return FlowResult(value=value, edge_flow=edge_flow, source_side=source_side)


def terminal_cuts(net: Network) -> tuple[int, int, int]:
    """Min-cut values from the source to T1, to T2 and to the pair, by two Dinic runs.

    The flow to {T1} is continued with T2 added to the sink set: a flow into
    T1 is also a flow into the pair, and augmenting any feasible flow until no
    sink is reachable reaches the maximum (Ford-Fulkerson 1956), so the pair
    cut is the T1 cut plus the added augmentations. The flow to {T2} runs
    fresh. Network caches the result (Network._terminal_cuts).
    """
    index, eids, _, _ = graph = net._residual_arcs
    s = index[net.source]
    t1, t2 = (index[t] for t in net.terminals)
    is_sink = bytearray(len(index))
    is_sink[t1] = 1
    residual = bytearray(b"\x01\x00") * len(eids)
    cut_t1 = _augment(graph, s, is_sink, residual)[0]
    is_sink[t2] = 1
    cut_pair = cut_t1 + _augment(graph, s, is_sink, residual)[0]
    is_sink[t1] = 0
    cut_t2 = _augment(graph, s, is_sink, bytearray(b"\x01\x00") * len(eids))[0]
    return cut_t1, cut_t2, cut_pair


def _augment(
    graph: ResidualArcs, s: int, is_sink: bytearray, residual: bytearray
) -> tuple[int, list[int]]:
    """Augment the flow held in residual until no sink is reachable from s.

    residual holds one byte per arc of graph (1 while the arc is residual)
    and is updated in place; the flow it starts from may be any feasible flow
    into the sinks. Returns the value added and the last phase's levels, which
    are >= 0 exactly on the residual source side. Each phase levels the
    residual graph by breadth-first search from s and then adds a blocking
    flow along level-increasing arcs, by an iterative depth-first search that
    keeps a current-arc pointer per node; a search branch ends at the first
    sink it reaches. With unit capacities this takes O(E * sqrt(E)) time
    (Even-Tarjan 1975).
    """
    _, _, arc_head, arcs = graph
    n = len(arcs)
    value = 0
    while True:
        level = [-1] * n
        level[s] = 0
        sink_level = n  # no sink reached yet
        queue = [s]
        for u in queue:
            if level[u] == sink_level:
                break  # deeper nodes cannot lie on a shortest augmenting path
            next_level = level[u] + 1
            for a in arcs[u]:
                v = arc_head[a]
                if residual[a] and level[v] < 0:
                    level[v] = next_level
                    if is_sink[v]:
                        sink_level = next_level
                    queue.append(v)
        if sink_level == n:
            break

        ptr = [0] * n
        path: list[int] = []  # arcs from s to u
        u = s
        while True:
            if is_sink[u]:
                for a in path:
                    residual[a] = 0
                    residual[a ^ 1] = 1
                value += 1
                path.clear()
                u = s
                continue
            node_arcs = arcs[u]
            end = len(node_arcs)
            i = ptr[u]
            next_level = level[u] + 1
            while i < end:
                a = node_arcs[i]
                if residual[a] and level[arc_head[a]] == next_level:
                    break
                i += 1
            ptr[u] = i
            if i < end:
                path.append(a)
                u = arc_head[a]
            elif u == s:
                break
            else:
                level[u] = -1  # dead end for the rest of this phase
                u = arc_head[path.pop() ^ 1]
                ptr[u] += 1
    return value, level


def decompose_paths(
    net: Network, flow: FlowResult, src: NodeId, sinks: NodeId | Iterable[NodeId]
) -> list[EdgePath]:
    """Split an integral flow into flow.value edge-disjoint src -> sink paths.

    An edge carries flow when its edge_flow entry is 1. Flow on directed
    cycles carries no src -> sink data and is dropped. Paths are node-simple
    and returned in the deterministic order extraction finds them: at every
    step the walk takes its node's smallest unused carrying out-edge id.
    The work runs on the adjacency max_flow uses (Network._residual_arcs):
    edges are read in ascending id, so each node's carrying out-edges come
    out sorted, conservation and sink quotas are counted per node index, and
    the walk follows arc heads. A flow that does not conserve, does not match
    its value or strands the walk raises InvariantError.
    """
    sink_set = {sinks} if isinstance(sinks, str) else set(sinks)
    index, eids, arc_head, _ = net._residual_arcs
    for v in [src, *sink_set]:
        if v not in index:
            raise UnknownNodeError(f"node {v!r} not in network")
    flows = list(map(flow.edge_flow.get, eids))
    if flows.count(1) != list(flow.edge_flow.values()).count(1):
        raise UnknownEdgeError("flow carries an edge that is not in the network")

    nodes = net.nodes
    s = index[src]
    is_sink = bytearray(len(nodes))
    balance = [0] * len(nodes)  # out-flow minus in-flow
    out: list[list[int]] = [[] for _ in nodes]  # carrying edges by tail, ascending id
    for i, f in enumerate(flows):
        if f == 1:
            tail = arc_head[2 * i + 1]
            balance[tail] += 1
            balance[arc_head[2 * i]] -= 1
            out[tail].append(i)

    quota = [0] * len(nodes)  # flow each sink absorbs
    for v in sink_set:
        is_sink[index[v]] = 1
        quota[index[v]] = -balance[index[v]]
    for v, b in enumerate(balance):
        if v == s:
            if b != flow.value:
                raise InvariantError(f"source imbalance {b} != value {flow.value}")
        elif is_sink[v]:
            if b > 0:
                raise InvariantError(f"sink {nodes[v]!r} emits more flow than it receives")
        elif b:
            raise InvariantError(f"conservation violated at {nodes[v]!r}")
    if sum(quota) != flow.value:
        raise InvariantError("sink absorption does not match flow value")

    paths: list[EdgePath] = []
    used = [0] * len(nodes)  # carrying out-edges each node has consumed
    for _ in range(flow.value):
        order = [s]
        pos = {s: 0}
        walk: list[EdgeId] = []
        u = s
        while True:
            k = used[u]
            if k == len(out[u]):
                raise InvariantError(f"walk stuck at {nodes[u]!r} with no remaining flow edge")
            used[u] = k + 1
            i = out[u][k]
            v = arc_head[2 * i]
            walk.append(eids[i])
            if v in pos:
                # Pinch off the cycle just closed and resume from its entry node.
                k = pos[v]
                del walk[k:]
                for dropped in order[k + 1 :]:
                    del pos[dropped]
                del order[k + 1 :]
                u = v
                continue
            if quota[v] > 0:
                quota[v] -= 1
                paths.append(EdgePath(tuple(walk)))
                break
            pos[v] = len(order)
            order.append(v)
            u = v
    return paths
