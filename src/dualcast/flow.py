"""Integral max-flow / min-cut on unit-capacity multigraphs, plus path decomposition.

Unit capacities keep everything combinatorial: a flow is a set of edges, and a
maximum flow decomposes into value-many edge-disjoint source-to-sink paths
(constructive Menger). Maximum flows come from Dinic's blocking-flow
algorithm, in which any sink of a sink set ends a search branch, over a
residual adjacency that each Network builds once (Network._residual_arcs).
Every run starts from the zero flow. Each Network levels its graph once,
by one breadth-first search from the source (Network._source_levels), and
terminal_cuts runs the flows to T1, to T2 and to the pair from those
levels; the run to T2 is the network's (Network._t2_run), and each
Network caches its cuts (Network._terminal_cuts). A run stops as soon as
its value reaches a bound it is given, the source's out-degree or the
sinks' in-degree, so it skips the final search that would only confirm it.
edge_disjoint_paths, pass 1's flow to Y1 and the run to T2 record their
augmenting paths by _run_record, and _recorded_paths turns them into paths;
paths_to_t2 hands it the first paths of the network's run to T2, which
pass 1 continues into T2'. A network extended by add_virtual runs on the
adjacency it inherits from its base. The adjacency also keeps each node's
out-arcs as a list of their own, and a run's first phase scans only those,
with the same result (see _augment). All tie-breaking is by ascending edge
id, out-arcs before in-arcs, so identical inputs always produce identical
flows and paths.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import InputError, InvariantError, UnknownEdgeError, UnknownNodeError

if TYPE_CHECKING:  # netgraph imports this module, for the flows a Network caches
    from .netgraph import EdgeId, Network, NodeId, ResidualArcs


@dataclass(frozen=True)
class EdgePath:
    """A walk of distinct edges; consecutive edges share head -> tail."""

    edges: tuple[EdgeId, ...]


def check_path(net: Network, path: EdgePath, src: NodeId, sink: NodeId) -> None:
    """Raise InvariantError unless path is a contiguous src -> sink walk of distinct edges.

    Checks run in a fixed order (empty, repeated edge, start, end, then each
    junction), so the error names the path's first fault; a route edge not in
    net raises UnknownEdgeError. planner.check_plan relies on this to name
    the fault of a route its own walk refuses.
    """
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


def max_flow(net: Network, src: NodeId, sinks: NodeId | Iterable[NodeId]) -> FlowResult:
    """Maximum integral flow from src to the sink set, by Dinic's algorithm.

    A thin wrapper over _augment, run from the zero flow. Every sink absorbs
    flow, so a sink set needs no super-sink. Arcs are tried in ascending edge
    id, a node's out-arcs before its in-arcs, so identical inputs give
    identical flows. The residual adjacency is built once per Network and
    shared by every call.
    """
    graph = net._residual_arcs
    s, is_sink, _ = _flow_ends(graph, src, sinks)
    residual = bytearray(b"\x01\x00") * len(graph.eids)
    # A limit no flow reaches: the run ends on a search that reaches no sink,
    # so its levels mark the residual reachable set, the source side of a
    # minimum cut.
    value, level = _augment(graph, s, is_sink, residual, len(graph.eids) + 1)
    edge_flow = dict(zip(graph.eids, residual[1::2]))
    source_side = frozenset(v for v, lv in zip(net.nodes, level) if lv >= 0)
    return FlowResult(value=value, edge_flow=edge_flow, source_side=source_side)


def edge_disjoint_paths(
    net: Network, src: NodeId, sinks: NodeId | Iterable[NodeId]
) -> list[EdgePath]:
    """A maximum set of edge-disjoint src -> sink paths: max_flow, then decompose_paths.

    Equal to decompose_paths(net, max_flow(net, src, sinks), src, sinks):
    the Dinic run's record goes through _recorded_paths. The run stops once
    its value reaches the degree bound of src and the sinks; the search it
    skips would find no augmenting path, so the record is that of a full run.
    """
    graph = net._residual_arcs
    s, is_sink, bound = _flow_ends(graph, src, sinks)
    return _recorded_paths(net, s, is_sink, _run_record(graph, s, is_sink, bound))


def paths_to_t2(net: Network, k: int) -> list[EdgePath]:
    """The first k paths, at most, of the network's run to T2 (Network._t2_run).

    The run stops at its degree bound, so with k at or past the cut to T2
    these are edge_disjoint_paths(net, net.source, {T2}). No search runs
    here: the record goes through _recorded_paths, with T2 as the sink.
    """
    s, is_sink, _ = _ends(net, net.terminals[1])
    return _recorded_paths(net, s, is_sink, net._t2_run[:k])


def _run_record(
    graph: ResidualArcs, s: int, is_sink: bytearray, limit: int, dist: list[int] | None = None
) -> list[tuple[int, ...]]:
    """The augmenting paths, as arcs from s, of a Dinic run from the zero flow to limit.

    dist, when given, levels the first phase (see _augment)."""
    record: list[tuple[int, ...]] = []
    _augment(graph, s, is_sink, bytearray(b"\x01\x00") * len(graph.eids), limit, record, dist)
    return record


def _recorded_paths(
    net: Network, s: int, is_sink: bytearray, record: list[tuple[int, ...]]
) -> list[EdgePath]:
    """The paths _decompose takes out of the flow a Dinic run's record carries.

    record is a prefix of the augmenting paths of a run from the zero flow.
    A record whose first and last paths have equal lengths lies in the first
    phase (see _augment) and is returned as it is: there only forward arcs
    are admissible and each path climbs one level per arc, so no cycle forms
    and no sink is passed, and each node's current-arc pointer hands its
    carrying out-arcs to the paths through it in record order, by ascending
    edge id, as the walk does. Any other record is replayed into a fresh
    residual for _decompose: the run wrote exactly these bytes, in this
    order, so the replay rebuilds its residual byte for byte.
    """
    eids = net._residual_arcs.eids
    if not record or len(record[0]) == len(record[-1]):
        return [EdgePath(tuple([eids[a >> 1] for a in path])) for path in record]
    residual = bytearray(b"\x01\x00") * len(eids)
    for path in record:
        for a in path:
            residual[a] = 0
            residual[a ^ 1] = 1
    return _decompose(net, s, is_sink, residual[1::2], len(record))


def _flow_ends(
    graph: ResidualArcs, src: NodeId, sinks: NodeId | Iterable[NodeId]
) -> tuple[int, bytearray, int]:
    """src's node number, a flag per node marking the sinks, and a bound on the flow.

    sinks is a sink set, or one sink label. The bound is the smaller of
    src's out-degree and the sinks' total in-degree: no flow from src into
    the sinks is larger.
    """
    sink_set = {sinks} if isinstance(sinks, str) else set(sinks)
    if not sink_set:
        raise InputError("sink set must be nonempty")
    if src in sink_set:
        raise InputError("source cannot be a sink")
    index = graph.index
    for v in [src, *sink_set]:
        if v not in index:
            raise UnknownNodeError(f"node {v!r} not in network")
    is_sink = bytearray(len(index))
    in_degree = 0
    for v in sink_set:
        is_sink[index[v]] = 1
        in_degree += graph.degrees(index[v])[1]
    s = index[src]
    return s, is_sink, min(graph.degrees(s)[0], in_degree)


def _ends(net: Network, sink: NodeId) -> tuple[int, bytearray, int]:
    """The source's node number, a flag per node marking sink, and min(out(s), in(sink)).

    Unlike _flow_ends it checks no label: sink is T2, which the network
    checked when built, or Y1, which build_augmented adds."""
    graph = net._residual_arcs
    s, t = graph.index[net.source], graph.index[sink]
    is_sink = bytearray(len(graph.arcs))
    is_sink[t] = 1
    return s, is_sink, min(len(graph.out[s]), graph.degrees(t)[1])


def terminal_cuts(net: Network) -> tuple[int, int, int]:
    """Min-cut values from the source to T1, to T2 and to the pair.

    Dinic runs from the zero flow, whose first phases take their levels from
    the network's one search (Network._source_levels). The runs to T1 and to
    T2 stop at the source's out-degree or the terminal's in-degree; the one
    to T2 is the network's (Network._t2_run).
    A T1 min-cut and a T2 min-cut together cut off both terminals, so the
    pair cut lies between max(c1, c2) and min(out(s), c1 + c2): it takes a
    run, stopped at the upper bound, only when the two differ. Network
    caches the result (Network._terminal_cuts).
    """
    graph, dist = net._residual_arcs, net._source_levels
    s, t1, t2 = map(graph.index.__getitem__, (net.source, *net.terminals))
    to_t1 = bytearray(len(dist))
    to_t1[t1] = 1
    out_s = len(graph.out[s])
    zero = bytearray(b"\x01\x00") * len(graph.eids)
    cut_t1 = _augment(graph, s, to_t1, zero[:], min(out_s, graph.degrees(t1)[1]), None, dist)[0]
    cut_t2 = len(net._t2_run)
    bound = min(out_s, cut_t1 + cut_t2)
    if max(cut_t1, cut_t2) == bound:
        return cut_t1, cut_t2, bound
    to_pair = bytearray(to_t1)
    to_pair[t2] = 1
    return cut_t1, cut_t2, _augment(graph, s, to_pair, zero, bound, None, dist)[0]


def _distances(graph: ResidualArcs, s: int) -> list[int]:
    """Each node's distance from s along edges, and -1 for the nodes s does not reach.

    These are the levels of the zero flow's residual graph, in which only
    out-arcs are residual: one breadth-first search over the out lists.
    """
    arc_head, out = graph.arc_head, graph.out
    dist = [-1] * len(out)
    dist[s] = 0
    queue = [s]
    for u in queue:
        d = dist[u] + 1
        for a in out[u]:
            v = arc_head[a]
            if dist[v] < 0:
                dist[v] = d
                queue.append(v)
    return dist


def _augment(
    graph: ResidualArcs,
    s: int,
    is_sink: bytearray,
    residual: bytearray,
    limit: int,
    record: list[tuple[int, ...]] | None = None,
    dist: list[int] | None = None,
) -> tuple[int, list[int]]:
    """Augment from the zero flow held in residual until no sink is reachable or limit is reached.

    residual holds one byte per arc of graph (1 while the arc is residual),
    starts as the zero flow (even arcs 1, odd arcs 0) and is updated in
    place. Returns the flow's value and the last phase's levels; they are
    >= 0 exactly on the residual source side only when the run ended on a
    phase that reached no sink, not when it stopped at limit. Each phase
    levels the residual graph by breadth-first search from s and then adds a
    blocking flow along level-increasing arcs, by an iterative depth-first
    search that keeps a current-arc pointer per node; a search branch ends at
    the first sink it reaches. With unit capacities this takes O(E * sqrt(E))
    time (Even-Tarjan 1975).

    record, when given, gets each augmenting path's arcs from s, in order.
    Every path of a phase has the phase's sink level as its length, and each
    phase's is strictly larger than the last's (Even-Tarjan 1975), so a
    record, or a prefix of one, whose first and last paths have equal
    lengths lies in the first phase; _recorded_paths turns a record into
    paths.

    limit is checked before each phase and at the augmentation that reaches
    it, so a limit of 0 runs no search. A limit that bounds every flow (a
    degree bound, say) leaves the residual exactly as a run without it:
    once the value reaches it no augmenting path exists, so the skipped
    searches would change no byte.

    The first phase scans only the out lists (graph.out), with the same
    result as the full lists: under the zero flow no in-arc is residual, so
    its search levels no node through one, and an in-arc an augmentation of
    the phase makes residual leads one level down, so it is never
    admissible; in-arcs follow out-arcs in each list, so every pointer and
    dead end falls as on the full list. Every later phase scans the full
    lists. dist, when given, is _distances(graph, s), and the first phase
    takes as its levels the distances up to the nearest sink's, -1 beyond,
    without a search: its own search stops where they are cut, at the first
    node it dequeues at the sink level, so the run is the same.
    """
    _, _, arc_head, arcs, out = graph
    n = len(arcs)
    adj = out
    value = 0
    level: list[int] = []
    while value < limit:
        if dist is not None:
            sink_level = min([d for d in compress(dist, is_sink) if d >= 0], default=n)
            top = min(sink_level, n - 1)  # no sink reached: keep every distance
            level = list(map([*range(top + 1), *[-1] * (n - top)].__getitem__, dist))
            dist = None
        else:
            level = [-1] * n
            level[s] = 0
            sink_level = n  # no sink reached yet
            queue = [s]
            for u in queue:
                if level[u] == sink_level:
                    break  # deeper nodes cannot lie on a shortest augmenting path
                next_level = level[u] + 1
                for a in adj[u]:
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
                if record is not None:
                    record.append(tuple(path))
                value += 1
                if value == limit:
                    return value, level
                path.clear()
                u = s
                continue
            node_arcs = adj[u]
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
        adj = arcs
    return value, level


def decompose_paths(
    net: Network, flow: FlowResult, src: NodeId, sinks: NodeId | Iterable[NodeId]
) -> list[EdgePath]:
    """Split an integral flow into flow.value edge-disjoint src -> sink paths.

    An edge carries flow when its edge_flow entry is 1. Flow on directed
    cycles carries no src -> sink data and is dropped. Paths are node-simple
    and returned in the deterministic order extraction finds them: at every
    step the walk takes its node's smallest unused carrying out-edge id.
    A flow that names an edge or node the network lacks raises
    UnknownEdgeError or UnknownNodeError; one that does not conserve, does
    not match its value or strands the walk raises InvariantError.
    """
    sink_set = {sinks} if isinstance(sinks, str) else set(sinks)
    graph = net._residual_arcs
    index = graph.index
    for v in [src, *sink_set]:
        if v not in index:
            raise UnknownNodeError(f"node {v!r} not in network")
    carries = [f == 1 for f in map(flow.edge_flow.get, graph.eids)]
    if carries.count(True) != list(flow.edge_flow.values()).count(1):
        raise UnknownEdgeError("flow carries an edge that is not in the network")
    is_sink = bytearray(len(index))
    for v in sink_set:
        is_sink[index[v]] = 1
    return _decompose(net, index[src], is_sink, carries, flow.value)


def _decompose(
    net: Network, s: int, is_sink: bytearray, carries: Sequence[int], value: int
) -> list[EdgePath]:
    """The walk behind decompose_paths, on the adjacency max_flow uses.

    carries flags each edge, in ascending id order, that carries flow; only
    those edges are visited, so each node's carrying out-edges come out
    sorted. Conservation and sink quotas are counted per node number, and the
    walk follows arc heads.
    """
    graph = net._residual_arcs
    eids, arc_head = graph.eids, graph.arc_head
    nodes = net.nodes
    balance = [0] * len(nodes)  # out-flow minus in-flow
    out: list[list[int]] = [[] for _ in nodes]  # carrying edges by tail, ascending id
    for i in compress(range(len(eids)), carries):
        tail = arc_head[2 * i + 1]
        balance[tail] += 1
        balance[arc_head[2 * i]] -= 1
        out[tail].append(i)

    quota = [0] * len(nodes)  # flow each sink absorbs
    for v in compress(range(len(nodes)), is_sink):
        quota[v] = -balance[v]
    for v, b in enumerate(balance):
        if v == s:
            if b != value:
                raise InvariantError(f"source imbalance {b} != value {value}")
        elif is_sink[v]:
            if b > 0:
                raise InvariantError(f"sink {nodes[v]!r} emits more flow than it receives")
        elif b:
            raise InvariantError(f"conservation violated at {nodes[v]!r}")
    if sum(quota) != value:
        raise InvariantError("sink absorption does not match flow value")

    paths: list[EdgePath] = []
    used = [0] * len(nodes)  # carrying out-edges each node has consumed
    for _ in range(value):
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
