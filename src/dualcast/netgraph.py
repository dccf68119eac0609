"""Directed multigraph of unit-capacity edges with one source and two terminals.

Networks are immutable after construction; every mutating operation returns a
new value. Parallel edges are first-class: an edge of capacity c in external
formats becomes c unit-capacity edges with distinct ids.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

from .errors import InputError, UnknownEdgeError, UnknownNodeError

NodeId = str
EdgeId = int


class Edge(NamedTuple):
    eid: EdgeId
    tail: NodeId
    head: NodeId


@dataclass(frozen=True)
class Demand:
    """Nonnegative integer message rates: h0 shared, h1 for T1 only, h2 for T2 only."""

    h0: int
    h1: int
    h2: int

    def __post_init__(self) -> None:
        for name in ("h0", "h1", "h2"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise InputError(f"{name} must be a nonnegative integer, got {value!r}")

    @property
    def total(self) -> int:
        return self.h0 + self.h1 + self.h2


class ResidualArcs(NamedTuple):
    """A network as integer arrays for the residual graph of a 0/1 flow.

    Nodes are numbered in `nodes` order and edges in ascending id order. Edge
    i gives arc 2i (tail -> head, residual while unused) and arc 2i+1
    (head -> tail, residual while used). Each node's arcs list its out-arcs
    and then its in-arcs, each group in ascending edge id. A Network caches
    one of these and hands the same lists to every caller, and a network
    extended by add_virtual shares the untouched nodes' lists with its base,
    so callers must not modify them.
    """

    index: dict[NodeId, int]
    eids: list[EdgeId]
    arc_head: list[int]
    arcs: list[list[int]]


@dataclass(frozen=True)
class Network:
    """Finite directed multigraph; all edges have unit capacity (implicit).

    A Network is frozen, so whatever is derived from its fields alone stays
    true for its lifetime and is computed once, on first use: the edge index,
    the residual adjacency every flow runs on, and the three terminal
    min-cuts. dataclasses.replace builds a new Network that derives its own;
    a network extended by add_virtual inherits its base's edge index and
    residual adjacency, and derives only its own cuts. Construction checks
    the edges with set and element-wise comparisons over their transposed
    fields, and only on a failure walks them in order to name the first
    offending edge.
    """

    nodes: tuple[NodeId, ...]
    edges: tuple[Edge, ...]
    source: NodeId
    terminals: tuple[NodeId, NodeId]

    def __post_init__(self) -> None:
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise InputError("duplicate node labels")
        t1, t2 = self.terminals
        if self.source == t1 or self.source == t2:
            raise InputError("source must differ from both terminals")
        if t1 == t2:
            raise InputError("terminals must be distinct")
        for label in (self.source, t1, t2):
            if label not in node_set:
                raise UnknownNodeError(f"node {label!r} not in network")
        eids, tails, heads = zip(*self.edges) if self.edges else ((), (), ())
        if (
            any(map(operator.eq, tails, heads))
            or not node_set.issuperset(tails)
            or not node_set.issuperset(heads)
            or len(set(eids)) != len(eids)
        ):
            _raise_first_edge_error(self.edges, node_set)

    @cached_property
    def _edge_index(self) -> dict[EdgeId, Edge]:
        return {e.eid: e for e in self.edges}

    @cached_property
    def _residual_arcs(self) -> ResidualArcs:
        """Integer adjacency for max-flow, shared by every flow on this network."""
        index = {v: i for i, v in enumerate(self.nodes)}
        edges = sorted(self.edges, key=lambda e: e.eid)
        arc_head: list[int] = []
        out_arcs: list[list[int]] = [[] for _ in self.nodes]
        in_arcs: list[list[int]] = [[] for _ in self.nodes]
        for i, e in enumerate(edges):
            tail, head = index[e.tail], index[e.head]
            arc_head += (head, tail)
            out_arcs[tail].append(2 * i)
            in_arcs[head].append(2 * i + 1)
        return ResidualArcs(
            index=index,
            eids=[e.eid for e in edges],
            arc_head=arc_head,
            arcs=[out + inc for out, inc in zip(out_arcs, in_arcs)],
        )

    @cached_property
    def _terminal_cuts(self) -> tuple[int, int, int]:
        """Min-cut values from the source to T1, to T2 and to the pair."""
        from .flow import terminal_cuts  # flow imports this module

        return terminal_cuts(self)

    def edge(self, eid: EdgeId) -> Edge:
        try:
            return self._edge_index[eid]
        except KeyError:
            raise UnknownEdgeError(f"no edge with id {eid}") from None

    def next_edge_id(self) -> EdgeId:
        eids = self._residual_arcs.eids  # ascending
        return eids[-1] + 1 if eids else 0


def _raise_first_edge_error(edges: tuple[Edge, ...], node_set: set[NodeId]) -> None:
    """Raise for the first edge that is a self-loop, has an unknown end or repeats an id."""
    seen_ids: set[EdgeId] = set()
    for e in edges:
        if e.tail == e.head:
            raise InputError(f"self-loop at {e.tail!r}")
        if e.tail not in node_set or e.head not in node_set:
            raise UnknownNodeError(f"edge {e.eid} references unknown node")
        if e.eid in seen_ids:
            raise InputError(f"duplicate edge id {e.eid}")
        seen_ids.add(e.eid)


def expand_capacities(weighted_edges: Iterable[tuple[NodeId, NodeId, int]]) -> list[Edge]:
    """Split each weighted edge of capacity c into c parallel unit edges.

    Ids are assigned consecutively from 0, in input order.
    """
    out: list[Edge] = []
    eid = 0
    for tail, head, cap in weighted_edges:
        if not isinstance(cap, int) or isinstance(cap, bool) or cap <= 0:
            raise InputError(f"capacity must be a positive integer, got {cap!r} on {tail}->{head}")
        for _ in range(cap):
            out.append(Edge(eid, tail, head))
            eid += 1
    return out


def remove_edges(net: Network, ids: Iterable[EdgeId]) -> Network:
    """New network without the given edges; node set and surviving ids unchanged."""
    drop = set(ids)
    unknown = drop - set(net._edge_index)
    if unknown:
        raise UnknownEdgeError(f"no edge with id {sorted(unknown)[0]}")
    return Network(
        nodes=net.nodes,
        edges=tuple(e for e in net.edges if e.eid not in drop),
        source=net.source,
        terminals=net.terminals,
    )


def add_virtual(
    net: Network, new_nodes: Iterable[NodeId], new_edges: Iterable[tuple[NodeId, NodeId]]
) -> tuple[Network, list[EdgeId]]:
    """Extend a network with extra nodes and unit edges; returns the new ids.

    The new ids follow every id of net, so the extended network inherits
    net's edge index and residual adjacency instead of rebuilding them: base
    edges keep their arc numbers, the new edges' arcs come after them, and
    only the nodes a new edge touches get a new arc list (base out-arcs, new
    out-arcs, base in-arcs, new in-arcs). That is exactly the adjacency a
    fresh build gives, since each group stays in ascending edge id.
    """
    index, eids, arc_head, arcs = net._residual_arcs
    added = tuple(
        Edge(eid, tail, head) for eid, (tail, head) in enumerate(new_edges, net.next_edge_id())
    )
    extended = Network(
        nodes=net.nodes + tuple(new_nodes),
        edges=net.edges + added,
        source=net.source,
        terminals=net.terminals,
    )
    index = dict(index)
    for v in extended.nodes[len(net.nodes) :]:
        index[v] = len(index)
    arc_head = arc_head.copy()
    new_out: dict[int, list[int]] = {}
    new_in: dict[int, list[int]] = {}
    for i, e in enumerate(added, len(eids)):
        tail, head = index[e.tail], index[e.head]
        arc_head += (head, tail)
        new_out.setdefault(tail, []).append(2 * i)
        new_in.setdefault(head, []).append(2 * i + 1)
    arcs = arcs + [[] for _ in range(len(index) - len(arcs))]
    for v in new_out.keys() | new_in.keys():
        base = arcs[v]
        n_out = sum(1 for a in base if not a & 1)  # out-arcs are even and come first
        arcs[v] = base[:n_out] + new_out.get(v, []) + base[n_out:] + new_in.get(v, [])
    new_ids = [e.eid for e in added]
    edge_index = dict(net._edge_index)
    edge_index.update(zip(new_ids, added))
    # Seed the cached properties (a frozen dataclass still has a __dict__).
    vars(extended).update(
        _edge_index=edge_index,
        _residual_arcs=ResidualArcs(index, eids + new_ids, arc_head, arcs),
    )
    return extended, new_ids
