"""Independent brute-force oracles the tests check the real implementations against.

Everything here is deliberately naive: subset enumeration for cuts, one BFS
per augmenting path for flows, DFS enumeration for paths, schoolbook
polynomial arithmetic for fields, one full simulation per trial for plan
verification, check_path on every route and one edge at a time for the
plan check, a color map and a checked snapshot per step for recoloring,
label lookups for path decomposition and the residual adjacency, the
earlier full-list Dinic kernel for the one that scans out-arcs alone from
the zero flow, separate passes and a parity search on every edge for the
code builder, and five separate min-cuts for the augmentation identities.
Keep these free of any imports from the modules they are used to check
(graph containers excepted; the simulation reference evaluates the code
itself and builds on the reference plan check, which builds on check_path,
which it does not test, the recoloring reference on recolor's state and
trace containers, and the identity check on max-flow and the feasibility
report). The small helpers that only the oracles and tests need (decoding,
a single min-cut value, a flow's used edges, a plan's or a pass's route
edges, a network's JSON document) live here too, not in the package, and so
does the reference plan writer: the plan's document through the stdlib's
indenting encoder.
"""

from __future__ import annotations

import heapq
import json
import random
from collections import deque
from dataclasses import dataclass
from functools import reduce
from operator import xor

from typing import Any

from dualcast.augment import T1P, T2P, Y1
from dualcast.errors import (
    CyclicSupportError,
    InputError,
    InvariantError,
    NonterminationError,
    PlanMismatchError,
    UnknownEdgeError,
)
from dualcast.flow import EdgePath, FlowResult, check_path, max_flow
from dualcast.nccode import MulticastCode
from dualcast.netgraph import Demand, EdgeId, Network, NodeId, ResidualArcs, add_virtual
from dualcast.planner import TransferPlan, check_feasibility
from dualcast.recolor import ColoringState, PassResult, ReroutingTrace, TraceStep

GREEN = "green"
RED = "red"
_GREEN_ONLY = frozenset({GREEN})
_BOTH = frozenset({GREEN, RED})


def mincut_enumerate(net: Network, src: NodeId, sinks) -> int:
    """Minimum cut by enumerating every node subset containing src and no sink."""
    sink_set = {sinks} if isinstance(sinks, str) else set(sinks)
    others = [v for v in net.nodes if v != src and v not in sink_set]
    best: int | None = None
    for mask in range(1 << len(others)):
        side = {src}
        for i, v in enumerate(others):
            if (mask >> i) & 1:
                side.add(v)
        cap = sum(1 for e in net.edges if e.tail in side and e.head not in side)
        if best is None or cap < best:
            best = cap
    return best if best is not None else 0


def max_flow_edmonds_karp(net: Network, src: NodeId, sinks) -> int:
    """Max-flow value by one breadth-first augmenting path at a time.

    Several sinks are joined to a super-sink by |E| parallel edges each.
    """
    sink_set = {sinks} if isinstance(sinks, str) else set(sinks)
    index = {v: i for i, v in enumerate(net.nodes)}
    tails = [index[e.tail] for e in net.edges]
    heads = [index[e.head] for e in net.edges]
    t_idx = len(net.nodes)
    for v in sink_set:
        for _ in range(max(len(net.edges), 1)):
            tails.append(index[v])
            heads.append(t_idx)
    n_nodes = t_idx + 1
    out_adj: list[list[int]] = [[] for _ in range(n_nodes)]
    in_adj: list[list[int]] = [[] for _ in range(n_nodes)]
    for i in range(len(tails)):
        out_adj[tails[i]].append(i)
        in_adj[heads[i]].append(i)

    flow = bytearray(len(tails))
    s_idx = index[src]
    value = 0
    while True:
        parent: list[tuple[int, int] | None] = [None] * n_nodes
        seen = [False] * n_nodes
        seen[s_idx] = True
        queue = deque([s_idx])
        while queue and not seen[t_idx]:
            u = queue.popleft()
            for i in out_adj[u]:
                v = heads[i]
                if not seen[v] and not flow[i]:
                    seen[v] = True
                    parent[v] = (i, 1)
                    queue.append(v)
            for i in in_adj[u]:
                v = tails[i]
                if not seen[v] and flow[i]:
                    seen[v] = True
                    parent[v] = (i, 0)
                    queue.append(v)
        if not seen[t_idx]:
            return value
        v = t_idx
        while v != s_idx:
            i, f = parent[v]  # type: ignore[misc]
            flow[i] = f
            v = tails[i] if f else heads[i]
        value += 1


def all_simple_paths(net: Network, src: NodeId, sink: NodeId) -> list[tuple[int, ...]]:
    """Every node-simple src -> sink path, as edge-id tuples."""
    found: list[tuple[int, ...]] = []
    out = {v: out_edges(net, v) for v in net.nodes}

    def dfs(u: NodeId, visited: set[NodeId], edges: list[int]) -> None:
        if u == sink:
            found.append(tuple(edges))
            return
        for eid in out[u]:
            head = net.edge(eid).head
            if head not in visited:
                edges.append(eid)
                dfs(head, visited | {head}, edges)
                edges.pop()

    dfs(src, {src}, [])
    return found


def routing_only_exists(net: Network, d: Demand) -> bool:
    """Exhaustive search for a pure-routing solution (no coding anywhere).

    Each shared symbol needs a subgraph containing a path to each terminal (a
    replication tree, enumerated as unions of path pairs); each private symbol
    needs a single path. Distinct symbols may not share edges.
    """
    t1, t2 = net.terminals
    paths1 = [frozenset(p) for p in all_simple_paths(net, net.source, t1)]
    paths2 = [frozenset(p) for p in all_simple_paths(net, net.source, t2)]
    if d.h0 + d.h1 > 0 and not paths1:
        return False
    if d.h0 + d.h2 > 0 and not paths2:
        return False
    shared = sorted({a | b for a in paths1 for b in paths2}, key=sorted)
    slots = [shared] * d.h0 + [paths1] * d.h1 + [paths2] * d.h2

    def backtrack(i: int, used: frozenset[int]) -> bool:
        if i == len(slots):
            return True
        for candidate in slots[i]:
            if not (candidate & used) and backtrack(i + 1, used | candidate):
                return True
        return False

    return backtrack(0, frozenset())


def gf_mul_reference(a: int, b: int, bits: int, modulus: int) -> int:
    """Field product by carry-less schoolbook multiply, then long division."""
    prod = 0
    for i in range(b.bit_length()):
        if (b >> i) & 1:
            prod ^= a << i
    while prod.bit_length() > bits:
        prod ^= modulus << (prod.bit_length() - bits - 1)
    return prod


def is_irreducible_reference(poly: int) -> bool:
    """Trial division by every polynomial of degree 1..deg/2 over GF(2)."""
    degree = poly.bit_length() - 1

    def poly_rem(a: int, m: int) -> int:
        while a.bit_length() >= m.bit_length():
            a ^= m << (a.bit_length() - m.bit_length())
        return a

    for d in range(1, degree // 2 + 1):
        for low in range(1 << d):
            if poly_rem(poly, (1 << d) | low) == 0:
                return False
    return True


def multiplicative_order_of_x(poly: int) -> int:
    """The least n > 0 with x^n = 1 modulo poly, or 0 if none is below 2^degree.

    Repeated multiplication by x; poly is primitive exactly when this is
    2^degree - 1.
    """
    degree = poly.bit_length() - 1
    power = 1
    for n in range(1, 1 << degree):
        power <<= 1
        if power >> degree:
            power ^= poly
        if power == 1:
            return n
    return 0


def edge_disjoint(paths) -> bool:
    seen: set[int] = set()
    for p in paths:
        for eid in p:
            if eid in seen:
                return False
            seen.add(eid)
    return True


def augment_reference(
    graph: ResidualArcs,
    s: int,
    is_sink: bytearray,
    residual: bytearray,
    limit: int,
    record: list[tuple[int, ...]] | None = None,
) -> tuple[int, list[int]]:
    """flow._augment as it was before it scanned only out-arcs from the zero flow.

    Every phase levels and searches on each node's full arc list, out-arcs
    and then in-arcs. The body is the earlier kernel's, word for word, but
    for reading the two lists by name: the same arguments but dist, the same
    residual updates, the same record and the same returned value and levels.
    """
    arc_head, arcs = graph.arc_head, graph.arcs
    n = len(arcs)
    value = 0
    level: list[int] = []
    while value < limit:
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
                if record is not None:
                    record.append(tuple(path))
                value += 1
                if value == limit:
                    return value, level
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


def decompose_paths_reference(
    net: Network, flow: FlowResult, src: NodeId, sinks
) -> list[EdgePath]:
    """decompose_paths on node labels and net.edge lookups; the reference for it.

    Same contract and error messages: conservation and quotas are checked per
    label, carrying out-edges are sorted by id per tail, and each walk pops
    the smallest, pinching off any cycle it closes.
    """
    sink_set = {sinks} if isinstance(sinks, str) else set(sinks)
    carrying = saturated(flow)

    out_by_node: dict[NodeId, list[int]] = {}
    inflow: dict[NodeId, int] = {}
    outflow: dict[NodeId, int] = {}
    for eid in carrying:
        e = net.edge(eid)
        out_by_node.setdefault(e.tail, []).append(eid)
        outflow[e.tail] = outflow.get(e.tail, 0) + 1
        inflow[e.head] = inflow.get(e.head, 0) + 1
    for lst in out_by_node.values():
        lst.sort(reverse=True)  # consume by popping the smallest id from the end

    for v in net.nodes:
        balance = outflow.get(v, 0) - inflow.get(v, 0)
        if v == src:
            if balance != flow.value:
                raise InvariantError(f"source imbalance {balance} != value {flow.value}")
        elif v in sink_set:
            if balance > 0:
                raise InvariantError(f"sink {v!r} emits more flow than it receives")
        elif balance != 0:
            raise InvariantError(f"conservation violated at {v!r}")

    quota = {v: inflow.get(v, 0) - outflow.get(v, 0) for v in sink_set}
    if sum(quota.values()) != flow.value:
        raise InvariantError("sink absorption does not match flow value")

    paths: list[EdgePath] = []
    for _ in range(flow.value):
        order: list[NodeId] = [src]
        pos: dict[NodeId, int] = {src: 0}
        walk: list[int] = []
        u = src
        while True:
            avail = out_by_node.get(u)
            if not avail:
                raise InvariantError(f"walk stuck at {u!r} with no remaining flow edge")
            eid = avail.pop()
            v = net.edge(eid).head
            walk.append(eid)
            if v in pos:
                k = pos[v]
                walk = walk[:k]
                for dropped in order[k + 1 :]:
                    del pos[dropped]
                order = order[: k + 1]
                u = order[-1]
                continue
            if quota.get(v, 0) > 0:
                quota[v] -= 1
                paths.append(EdgePath(tuple(walk)))
                break
            pos[v] = len(order)
            order.append(v)
            u = v
    return paths


def residual_arcs_reference(net: Network) -> ResidualArcs:
    """The adjacency the ResidualArcs docstring describes, built from labels edge by edge.

    Nodes are numbered in `nodes` order and edges in ascending id. Edge i
    gives arc 2i (tail -> head) and arc 2i+1 (head -> tail). Each node lists
    its out-arcs and then its in-arcs, each group ascending; out holds the
    out-arcs alone.
    """
    number = {v: i for i, v in enumerate(net.nodes)}
    edges = sorted(net.edges, key=lambda e: e.eid)
    arc_head = []
    for e in edges:
        arc_head += [number[e.head], number[e.tail]]
    out = [[2 * i for i, e in enumerate(edges) if e.tail == v] for v in net.nodes]
    into = [[2 * i + 1 for i, e in enumerate(edges) if e.head == v] for v in net.nodes]
    arcs = [o + i for o, i in zip(out, into)]
    return ResidualArcs(number, [e.eid for e in edges], arc_head, arcs, out)


def in_edges(net: Network, v: NodeId) -> list[int]:
    """Edge ids entering v, by scanning every edge."""
    return [e.eid for e in net.edges if e.head == v]


def out_edges(net: Network, v: NodeId) -> list[int]:
    """Edge ids leaving v, by scanning every edge."""
    return [e.eid for e in net.edges if e.tail == v]


def path_nodes(net: Network, path: EdgePath) -> list[NodeId]:
    """Node sequence a path visits (one more than its edges; empty path -> [])."""
    if not path.edges:
        return []
    return [net.edge(path.edges[0]).tail] + [net.edge(eid).head for eid in path.edges]


def visits(net: Network, path: EdgePath, v: NodeId) -> bool:
    return v in path_nodes(net, path)


def structurally_equal(a: Network, b: Network) -> bool:
    """Same node labels and same tail/head multiset, ignoring edge ids."""
    if set(a.nodes) != set(b.nodes):
        return False
    if a.source != b.source or a.terminals != b.terminals:
        return False
    pairs_a = sorted((e.tail, e.head) for e in a.edges)
    pairs_b = sorted((e.tail, e.head) for e in b.edges)
    return pairs_a == pairs_b


def gf_rank(field, a) -> int:
    """Rank of a matrix over `field` by row reduction; the reference for mat_inv."""
    rows = [list(r) for r in a]
    rank = 0
    n_cols = len(rows[0]) if rows else 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        scale = field.inv(rows[rank][col])
        rows[rank] = [field.mul(scale, x) for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x ^ field.mul(factor, y) for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def gf2_rank(a) -> int:
    """Rank over GF(2) of a matrix of 0/1 entries, by elimination on row bit masks."""
    pivots: dict[int, int] = {}  # top bit: the reduced row with that top bit
    for row in a:
        v = sum(bit << j for j, bit in enumerate(row))
        while v and v.bit_length() in pivots:
            v ^= pivots[v.bit_length()]
        if v:
            pivots[v.bit_length()] = v
    return len(pivots)


def gf_mat_mul(field, a, b) -> list[list[int]]:
    """Matrix product over `field`."""
    cols = list(zip(*b)) if b else []
    return [[reduce(xor, map(field.mul, row, col), 0) for col in cols] for row in a]


def check_plan_reference(net: Network, plan: TransferPlan) -> None:
    """planner.check_plan by check_path on every route; the reference for it.

    Each route edge then goes through a shared-route test of its own.
    Routes: the demanded number of source paths to each terminal, disjoint
    from each other and from the code (a route edge not in net raises
    UnknownEdgeError). Support: distinct network edges, each after the coded
    edges feeding it, with local inputs for exactly those edges, sorted and
    without repeats. Each terminal decodes h0 coded edges entering it with
    h0 rows of positions below h0, sorted and without repeats. The first
    input or position that breaks a rule names its fault, each prefix of a
    list checked whole.
    """
    t1, t2 = net.terminals
    code = plan.multicast
    all_route_edges: set[EdgeId] = set()
    try:
        for routes, sink, n_expected, label in (
            (plan.x1_routes, t1, plan.demand.h1, "x1"),
            (plan.x2_routes, t2, plan.demand.h2, "x2"),
        ):
            if len(routes) != n_expected:
                raise PlanMismatchError(f"{label} route count != demand")
            for p in routes:
                check_path(net, p, net.source, sink)
                for eid in p.edges:
                    if eid in all_route_edges:
                        raise PlanMismatchError("routes share an edge")
                    all_route_edges.add(eid)
    except InvariantError as exc:
        raise PlanMismatchError(str(exc)) from exc
    coded = []
    for eid in code.support:
        try:
            coded.append(net.edge(eid))
        except UnknownEdgeError:
            raise PlanMismatchError(f"coded edge {eid} is not in the network") from None
    for eid in sorted(code.support):
        if eid in all_route_edges:
            raise PlanMismatchError(f"coded support overlaps a route at edge {eid}")
    if code.h0 != plan.demand.h0:
        raise PlanMismatchError("code rate != demand")
    head_of: dict[EdgeId, NodeId] = {}  # the coded edges checked so far
    for e in coded:
        eid = e.eid
        if eid in head_of:
            raise PlanMismatchError(f"coded edge {eid} is listed twice in the support")
        keys = code.local_inputs.get(eid)
        if keys is None:
            raise PlanMismatchError(f"coded edge {eid} has no local inputs")
        for n, (kind, ref) in enumerate(keys):
            if kind == "msg":
                if e.tail != net.source or not 0 <= ref < code.h0:
                    raise PlanMismatchError(f"bad message input on edge {eid}")
            elif kind == "edge":
                if head_of.get(ref) != e.tail:
                    raise PlanMismatchError(f"bad edge input {ref} on edge {eid}")
            else:
                raise PlanMismatchError(f"unknown input kind {kind!r}")
            if list(keys[: n + 1]) != sorted(set(keys[: n + 1])):
                raise PlanMismatchError(
                    f"local inputs of edge {eid} are not in increasing order without repeats"
                )
        head_of[eid] = e.head
    if extra := code.local_inputs.keys() - head_of:
        raise PlanMismatchError(f"support and local_inputs disagree on edge {min(extra)}")
    for inputs, term in ((code.inputs_t1, t1), (code.inputs_t2, t2)):
        if len(inputs) != code.h0:
            raise PlanMismatchError(f"decode input count of {term!r} != rate")
        for eid in inputs:
            if head_of.get(eid) != term:
                raise PlanMismatchError(f"decode input {eid} does not enter {term!r}")
    for rows, label in ((code.decode_t1, "T1"), (code.decode_t2, "T2")):
        if len(rows) != code.h0:
            raise PlanMismatchError(f"decode row count of {label} != rate")
        for i, row in enumerate(rows):
            for n, k in enumerate(row):
                if not 0 <= k < code.h0:
                    raise PlanMismatchError(
                        f"decode row {i} of {label} names a position outside 0..{code.h0 - 1}"
                    )
                if list(row[: n + 1]) != sorted(set(row[: n + 1])):
                    raise PlanMismatchError(
                        f"decode row {i} of {label} is not in increasing order without repeats"
                    )


def build_multicast_code_reference(paths_t1, paths_t2, *, field_bits: int) -> MulticastCode:
    """nccode.build_multicast_code in separate passes; the reference for it.

    One walk of both path families lists, per coded edge, the (terminal,
    path, input) of each path it continues; a second pass over those lists
    builds each edge's set of feeders; Kahn's algorithm, smallest ready id
    first, orders them, with its own waiting counts and fed lists. Every
    edge then runs the a / b / a+b parity search against the duals of the
    paths it continues, copies included, and updates the duals of each path
    whose vector changed.
    """
    h0 = len(paths_t1)
    if len(paths_t2) != h0:
        raise InputError(f"need as many paths to T2 as to T1, got {len(paths_t2)} and {h0}")
    continues: dict[EdgeId, list] = {}
    for t, paths in enumerate((paths_t1, paths_t2)):
        for l, p in enumerate(paths):
            prev = ("msg", l)
            for eid in p.edges:
                on = continues.setdefault(eid, [])
                if on and on[-1][0] == t:
                    raise InputError(f"edge {eid} is used twice by the paths to T{t + 1}")
                on.append((t, l, prev))
                prev = ("edge", eid)
    feeders: dict[EdgeId, set[EdgeId]] = {}
    for eid, on in continues.items():
        if len({kind for _, _, (kind, _) in on}) > 1:
            raise InputError(f"edge {eid} starts a path but another path feeds it")
        feeders[eid] = {ref for _, _, (kind, ref) in on if kind == "edge"}
    waiting = {eid: len(f) for eid, f in feeders.items()}
    fed: dict[EdgeId, list[EdgeId]] = {}
    for eid, f in feeders.items():
        for j in f:
            fed.setdefault(j, []).append(eid)
    ready = [eid for eid, n in waiting.items() if n == 0]
    heapq.heapify(ready)
    ordered: list[EdgeId] = []
    while ready:
        eid = heapq.heappop(ready)
        ordered.append(eid)
        for k in fed.get(eid, ()):
            waiting[k] -= 1
            if not waiting[k]:
                heapq.heappush(ready, k)
    if len(ordered) < len(feeders):
        walk = [min(e for e, n in waiting.items() if n)]
        while (eid := min(j for j in feeders[walk[-1]] if waiting[j])) not in walk:
            walk.append(eid)
        cycle = walk[walk.index(eid) :][::-1]
        raise CyclicSupportError(f"the coded paths make edges {cycle} feed each other in a cycle")

    vector = {("msg", j): 1 << j for j in range(h0)}
    duals = [[1 << j for j in range(h0)] for _ in range(2)]
    local = {}
    for eid in ordered:
        on = continues[eid]
        keys = sorted({key for _, _, key in on})
        a, b = vector[keys[0]], vector[keys[-1]]
        for coeffs in ((1, 0), (0, 1), (1, 1)):
            v = a * coeffs[0] ^ b * coeffs[1]
            if all((duals[t][l] & v).bit_count() & 1 for t, l, _ in on):
                break
        for t, l, key in on:
            if v != vector[key]:
                dl = duals[t][l]
                duals[t] = [dk ^ dl if (dk & v).bit_count() & 1 else dk for dk in duals[t]]
                duals[t][l] = dl
        vector[("edge", eid)] = v
        local[eid] = tuple(key for key, c in zip(keys, coeffs) if c)
    rows = []
    for d in duals:
        rows.append(tuple(tuple(k for k, dk in enumerate(d) if dk >> i & 1) for i in range(h0)))
    return MulticastCode(
        field_bits=field_bits,
        h0=h0,
        support=tuple(ordered),
        local_inputs=local,
        inputs_t1=tuple(p.edges[-1] for p in paths_t1),
        inputs_t2=tuple(p.edges[-1] for p in paths_t2),
        decode_t1=rows[0],
        decode_t2=rows[1],
    )


def evaluate_code(code: MulticastCode, x0) -> dict[EdgeId, int]:
    """Every coded edge's symbol: the XOR of its local inputs, one edge at a time."""
    symbols: dict[EdgeId, int] = {}
    for eid in code.support:
        value = 0
        for kind, ref in code.local_inputs[eid]:
            value ^= x0[ref] if kind == "msg" else symbols[ref]
        symbols[eid] = value
    return symbols


def verify_by_simulation(net: Network, plan, trials: int = 100, seed: int = 0):
    """verify_plan by one end-to-end simulation per trial; the reference for it.

    Each trial draws m-bit symbols, copies x1 and x2 along their routes,
    evaluates the code on x0 and decodes at both terminals. Returns the
    failures as (trial, terminal, detail) tuples. When none failed, the
    decode rows are checked exactly against the code run once on each unit
    message, one 0/1 symbol per edge, raising PlanMismatchError on a
    mismatch.
    """
    if type(trials) is not int or trials < 0:
        raise InputError(f"trials must be a nonnegative integer, got {trials!r}")
    check_plan_reference(net, plan)
    code = plan.multicast
    size = 2**code.field_bits
    rng = random.Random(seed)
    d = plan.demand
    failures: list[tuple[int, str, str]] = []
    for trial in range(trials):
        x0 = [rng.randrange(size) for _ in range(d.h0)]
        x1 = [rng.randrange(size) for _ in range(d.h1)]
        x2 = [rng.randrange(size) for _ in range(d.h2)]
        symbols: dict[int, int] = {}
        for private, routes in ((x1, plan.x1_routes), (x2, plan.x2_routes)):
            for r, p in enumerate(routes):
                for eid in p.edges:
                    symbols[eid] = private[r]
        symbols.update(evaluate_code(code, x0))
        for terminal, label, private, routes in (
            (1, "T1", x1, plan.x1_routes),
            (2, "T2", x2, plan.x2_routes),
        ):
            if d.h0:
                got = decode_symbols(code, terminal, symbols)
                if got != x0:
                    failures.append((trial, label, f"decoded {got}, expected {x0}"))
            for r, p in enumerate(routes):
                if symbols[p.edges[-1]] != private[r]:
                    failures.append((trial, label, f"route {r} delivered a wrong symbol"))
    if failures:
        return tuple(failures)
    for j in range(code.h0):
        unit = [int(i == j) for i in range(code.h0)]
        column = evaluate_code(code, unit)
        for terminal in (1, 2):
            if decode_symbols(code, terminal, column) != unit:
                raise PlanMismatchError(
                    f"decode matrix of T{terminal} does not invert its transfer matrix"
                )
    return ()


def decode_symbols(
    code: MulticastCode, terminal: int, symbols: dict[EdgeId, int]
) -> list[int]:
    """Recover the h0 messages at terminal 1 or 2: each row XORs the inputs it lists."""
    if terminal not in (1, 2):
        raise InputError("terminal must be 1 or 2")
    inputs = code.inputs_t1 if terminal == 1 else code.inputs_t2
    rows = code.decode_t1 if terminal == 1 else code.decode_t2
    received = [symbols[eid] for eid in inputs]
    return [reduce(xor, (received[k] for k in row), 0) for row in rows]


def min_cut_value(net: Network, src: NodeId, sinks) -> int:
    """Capacity of a minimum cut separating src from the sinks: one max_flow run."""
    return max_flow(net, src, sinks).value


def saturated(flow: FlowResult) -> set[EdgeId]:
    """The edges a flow uses."""
    return {eid for eid, f in flow.edge_flow.items() if f == 1}


def route_edges(plan: TransferPlan) -> set[EdgeId]:
    """Every edge of a plan's x1 and x2 routes."""
    return {eid for p in (*plan.x1_routes, *plan.x2_routes) for eid in p.edges}


def real_route_edges(result: PassResult) -> set[EdgeId]:
    """Original-graph edge ids used by a recoloring pass's routes."""
    return {eid for p in result.routes for eid in p.edges}


def network_to_dict(net: Network) -> dict[str, Any]:
    """A network document for the CLI loader, parallel unit edges merged into capacities."""
    grouped: dict[tuple[str, str], int] = {}
    for e in net.edges:
        grouped[(e.tail, e.head)] = grouped.get((e.tail, e.head), 0) + 1
    return {
        "nodes": list(net.nodes),
        "edges": [{"from": tail, "to": head, "cap": cap} for (tail, head), cap in grouped.items()],
        "source": net.source,
        "terminals": list(net.terminals),
    }


def edge_colors(state: ColoringState) -> dict[int, frozenset[str]]:
    """The colors of every edge some path uses, derived from the path lists."""
    acc: dict[int, set[str]] = {}
    for p in state.green_paths:
        for eid in p.edges:
            acc.setdefault(eid, set()).add(GREEN)
    for p in state.red_paths:
        for eid in p.edges:
            acc.setdefault(eid, set()).add(RED)
    return {eid: frozenset(colors) for eid, colors in acc.items()}


def check_coloring(state: ColoringState) -> None:
    """Raise InvariantError unless every path is a contiguous walk from the source
    that leaves it only by its first edge, and no two paths of one color share
    an edge: the validity recolor.run_to_fixpoint requires and keeps."""
    net = state.net
    for family in (state.green_paths, state.red_paths):
        seen: set[int] = set()
        for p in family:
            if not p.edges:
                raise InvariantError("empty path in coloring state")
            if net.edge(p.edges[0]).tail != net.source:
                raise InvariantError("path does not start at the source")
            for a, b in zip(p.edges, p.edges[1:]):
                if net.edge(a).head != net.edge(b).tail:
                    raise InvariantError("path is not contiguous")
                if net.edge(b).tail == net.source:
                    raise InvariantError("path leaves the source again")
            for eid in p.edges:
                if eid in seen:
                    raise InvariantError("paths within one color share an edge")
                seen.add(eid)


def red_source_degree(state: ColoringState) -> int:
    """Number of source out-edges carrying red."""
    red = state.red_edges
    return sum(1 for eid in out_edges(state.net, state.net.source) if eid in red)


def exclusively_green(state: ColoringState) -> list[EdgePath]:
    """Green paths none of whose edges carries red."""
    red = state.red_edges
    return [p for p in state.green_paths if red.isdisjoint(p.edges)]


def cond(p: EdgePath, state: ColoringState) -> bool:
    """True iff every edge of p is green-only, or p's first edge carries both colors."""
    colors = edge_colors(state)
    if colors.get(p.edges[0]) == _BOTH:
        return True
    return all(colors.get(eid) == _GREEN_ONLY for eid in p.edges)


def algorithm_a(p_index: int, state: ColoringState) -> tuple[ColoringState, TraceStep | None]:
    """One rewrite step on green path p_index; (state, None) if p has no dual edge.

    The red path through p's first doubly-colored edge e1 is replaced by p's
    prefix up to e1 followed by the old red tail after e1; the new state,
    built from the path lists, is checked whole by check_coloring.
    """
    p = state.green_paths[p_index]
    colors = edge_colors(state)
    e1_pos = next((i for i, eid in enumerate(p.edges) if colors.get(eid) == _BOTH), None)
    if e1_pos is None:
        return state, None
    e1 = p.edges[e1_pos]
    red_index = next(r for r, rp in enumerate(state.red_paths) if e1 in rp.edges)
    rp = state.red_paths[red_index]
    split = rp.edges.index(e1)
    prefix = p.edges[: e1_pos + 1]
    new_reds = list(state.red_paths)
    new_reds[red_index] = EdgePath(prefix + rp.edges[split + 1 :])
    new_state = ColoringState(
        net=state.net, green_paths=state.green_paths, red_paths=tuple(new_reds)
    )
    check_coloring(new_state)
    return new_state, TraceStep(p_index, e1, red_index, EdgePath(prefix))


def fixpoint_by_steps(
    state: ColoringState, budget: int | None = None
) -> tuple[ColoringState, ReroutingTrace]:
    """run_to_fixpoint by one algorithm_a snapshot per step; the reference for it.

    Rescans the green paths from index 0 after every step, and checks the
    whole coloring and the red source degree on entry and after every step.
    """
    check_coloring(state)
    expected_red = len(state.red_paths)
    if red_source_degree(state) != expected_red:
        raise InvariantError("initial red source degree does not match red path count")
    if budget is None:
        budget = max(1, len(state.net.edges)) * max(1, len(state.green_paths)) * max(
            1, len(state.red_paths)
        )
    steps: list[TraceStep] = []
    while True:
        violating = next(
            (i for i, p in enumerate(state.green_paths) if not cond(p, state)), None
        )
        if violating is None:
            return state, ReroutingTrace(tuple(steps))
        state, step = algorithm_a(violating, state)
        if step is None:
            raise InvariantError("path violating cond has no doubly-colored edge")
        if red_source_degree(state) != expected_red:
            raise InvariantError("red source degree changed during rerouting")
        steps.append(step)
        if len(steps) > budget:
            raise NonterminationError(f"recoloring exceeded its budget of {budget} steps")


def replay_trace(initial: ColoringState, trace: ReroutingTrace) -> ColoringState:
    """Re-apply a recorded trace; raises InvariantError if any step diverges."""
    state = initial
    for recorded in trace.steps:
        state, step = algorithm_a(recorded.green_index, state)
        if step != recorded:
            raise InvariantError("trace replay diverged from the recorded step")
    return state


@dataclass(frozen=True)
class LemmaReport:
    """The five virtual min-cuts and how they compare to their required values.

    applicable is False when the underlying network fails the basic cut
    conditions for the demand, in which case the identities are not expected
    to hold and ok carries no meaning.
    """

    applicable: bool
    cut_t1p: int
    cut_t2p: int
    cut_pair: int
    cut_y1: int
    cut_y2: int
    failed: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.applicable and not self.failed


Y2 = "__Y2"


def with_second_collector(ext: Network, d: Demand) -> Network:
    """ext, a network from build_augmented, plus the paper's second collector
    Y2, which the package does not build.

    Y2 takes h1 edges from T1' and h0+h2 from T2', so its in-degree is
    h0+h1+h2, as Y1's is.
    """
    bundles = [(T1P, Y2)] * d.h1 + [(T2P, Y2)] * (d.h0 + d.h2)
    return add_virtual(ext, [Y2], bundles)


def check_lemma(ext: Network, base: Network, d: Demand) -> LemmaReport:
    """Compute the five virtual min-cuts and flag deviations from their identities.

    ext is base extended by build_augmented for d. Expected: cut to T1'
    equals h0+h1, to T2' equals h0+h2, to each collector (Y1, and Y2 from
    with_second_collector) equals h0+h1+h2, and the joint cut to both
    virtual terminals is at least h0+h1+h2.
    """
    s = ext.source
    cut_t1p = min_cut_value(ext, s, {T1P})
    cut_t2p = min_cut_value(ext, s, {T2P})
    cut_pair = min_cut_value(ext, s, {T1P, T2P})
    cut_y1 = min_cut_value(ext, s, {Y1})
    cut_y2 = min_cut_value(with_second_collector(ext, d), s, {Y2})

    applicable = check_feasibility(base, d).feasible
    failed: list[str] = []
    if applicable:
        total = d.total
        if cut_t1p != d.h0 + d.h1:
            failed.append("cut_t1p")
        if cut_t2p != d.h0 + d.h2:
            failed.append("cut_t2p")
        if cut_pair < total:
            failed.append("cut_pair")
        if cut_y1 != total:
            failed.append("cut_y1")
        if cut_y2 != total:
            failed.append("cut_y2")
    return LemmaReport(
        applicable=applicable,
        cut_t1p=cut_t1p,
        cut_t2p=cut_t2p,
        cut_pair=cut_pair,
        cut_y1=cut_y1,
        cut_y2=cut_y2,
        failed=tuple(failed),
    )


def plan_to_dict(plan: TransferPlan) -> dict[str, Any]:
    """The version-3 plan document: the format's keys, each input spelt kind:ref."""
    code = plan.multicast
    return {
        "version": 3,
        "demand": {"h0": plan.demand.h0, "h1": plan.demand.h1, "h2": plan.demand.h2},
        "seed": plan.seed,
        "field": {"bits": code.field_bits},
        "x1_routes": [list(p.edges) for p in plan.x1_routes],
        "x2_routes": [list(p.edges) for p in plan.x2_routes],
        "support": list(code.support),
        "local_inputs": {
            str(eid): [f"{kind}:{ref}" for kind, ref in code.local_inputs[eid]]
            for eid in code.support
        },
        "decode": {
            "t1": {"inputs": list(code.inputs_t1), "rows": [list(r) for r in code.decode_t1]},
            "t2": {"inputs": list(code.inputs_t2), "rows": [list(r) for r in code.decode_t2]},
        },
    }


def reference_plan_text(plan: TransferPlan) -> str:
    """The plan file text as the stdlib writes its document; dump_plan must equal it."""
    return json.dumps(plan_to_dict(plan), indent=2, sort_keys=True) + "\n"
