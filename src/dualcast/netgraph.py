"""Directed multigraph of unit-capacity edges with one source and two terminals.

Networks are immutable after construction; every mutating operation returns a
new value. Parallel edges are first-class: an edge of capacity c in external
formats becomes c unit-capacity edges with distinct ids.
"""

from __future__ import annotations

import operator
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, groupby, repeat
from typing import Iterable, NamedTuple

from . import flow
from .errors import InputError, UnknownEdgeError, UnknownNodeError

NodeId = str
EdgeId = int

RESERVED_PREFIX = "__"  # marks the nodes augmentation adds


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

    Nodes are numbered in `nodes` order and edges in ascending id order; a
    Network takes both from its validation (_check_edges). Edge i gives arc
    2i (tail -> head, residual while unused) and arc 2i+1 (head -> tail,
    residual while used). Each node's arcs list its out-arcs and then its
    in-arcs, each group in ascending edge id; out holds each node's out-arcs
    alone, the head of its arcs list. Under the zero flow no in-arc is
    residual, so a search from it needs only the out lists (flow._augment).
    A Network caches one of these and hands the same lists to every caller,
    and a network extended by add_virtual shares the untouched nodes' lists
    with its base, so callers must not modify them.
    """

    index: dict[NodeId, int]
    eids: list[EdgeId]
    arc_head: list[int]
    arcs: list[list[int]]
    out: list[list[int]]

    def degrees(self, v: int) -> tuple[int, int]:
        """Out- and in-degree of node number v: the lengths of its out list and of the rest."""
        n_out = len(self.out[v])
        return n_out, len(self.arcs[v]) - n_out


@dataclass(frozen=True)
class Network:
    """Finite directed multigraph; all edges have unit capacity (implicit).

    A Network is frozen, so whatever is derived from its fields alone stays
    true for its lifetime and is computed once, on first use: the edge index,
    the residual adjacency every flow runs on, each node's distance from the
    source, the Dinic run to T2, the three terminal min-cuts, and the first
    label with the reserved prefix.
    dataclasses.replace builds a new Network that derives its own; a network
    extended by add_virtual inherits its base's edge index and residual
    adjacency and derives the rest itself. Construction refuses fields that
    are not tuples, so a caller cannot change a network under its cached
    values, and labels that are not strings or edges that are not Edges with
    int ids, so no later call meets one (_check_edges). That check numbers
    the edges' ends in `nodes` order; the numbers, with the ids ascending,
    are kept until the first flow builds the residual adjacency from them.
    """

    nodes: tuple[NodeId, ...]
    edges: tuple[Edge, ...]
    source: NodeId
    terminals: tuple[NodeId, NodeId]

    def __post_init__(self) -> None:
        for name in ("nodes", "edges", "terminals"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                raise InputError(f"{name} must be a tuple, got {type(value).__name__}")
        if len(self.terminals) != 2:
            raise InputError(f"terminals must be a pair, got {len(self.terminals)} labels")
        index = _label_index(self.nodes)
        t1, t2 = self.terminals
        for label in (self.source, t1, t2):
            if type(label) is not str:
                raise InputError(f"source and terminals must be strings, got {label!r}")
        if self.source == t1 or self.source == t2:
            raise InputError("source must differ from both terminals")
        if t1 == t2:
            raise InputError("terminals must be distinct")
        for label in (self.source, t1, t2):
            if label not in index:
                raise UnknownNodeError(f"node {label!r} not in network")
        vars(self)["_numbered"] = (index, *_check_edges(self.edges, index))  # not a field

    @cached_property
    def _edge_index(self) -> dict[EdgeId, Edge]:
        return {e.eid: e for e in self.edges}

    @cached_property
    def _reserved_label(self) -> NodeId | None:
        """The first node label with the reserved prefix, or None."""
        return next((v for v in self.nodes if v.startswith(RESERVED_PREFIX)), None)

    @cached_property
    def _residual_arcs(self) -> ResidualArcs:
        """The adjacency every flow on this network shares, from the numbers validation kept."""
        index, eids, tails, heads = vars(self).pop("_numbered")
        arc_head = [0] * (2 * len(eids))
        arc_head[0::2] = heads
        arc_head[1::2] = tails
        out: list[list[int]] = [[] for _ in self.nodes]
        inc: list[list[int]] = [[] for _ in self.nodes]
        for a, tail, head in zip(range(0, len(arc_head), 2), tails, heads):
            out[tail].append(a)
            inc[head].append(a + 1)
        return ResidualArcs(index, list(eids), arc_head, [o + i for o, i in zip(out, inc)], out)

    @cached_property
    def _source_levels(self) -> list[int]:
        """Each node's distance from the source, -1 where it does not reach.

        These are the zero flow's levels (flow._distances), from which the
        first phase of the run to T2 and of terminal_cuts' other runs start.
        """
        graph = self._residual_arcs
        return flow._distances(graph, graph.index[self.source])

    @cached_property
    def _t2_run(self) -> list[tuple[int, ...]]:
        """The augmenting paths, as arcs from the source, of a Dinic run to {T2}.

        It stops at a degree bound, so it has one path per unit of the cut to
        T2: terminal_cuts reads the cut off it, flow.paths_to_t2 its paths.
        Its first phase takes its levels from _source_levels.
        """
        ends = flow._ends(self, self.terminals[1])
        return flow._run_record(self._residual_arcs, *ends, self._source_levels)

    @cached_property
    def _terminal_cuts(self) -> tuple[int, int, int]:
        """Min-cut values from the source to T1, to T2 and to the pair."""
        return flow.terminal_cuts(self)

    def edge(self, eid: EdgeId) -> Edge:
        try:
            return self._edge_index[eid]
        except KeyError:
            raise UnknownEdgeError(f"no edge with id {eid}") from None

    def next_edge_id(self) -> EdgeId:
        eids = self._residual_arcs.eids  # ascending
        return eids[-1] + 1 if eids else 0


def _label_index(labels: tuple[NodeId, ...]) -> dict[NodeId, int]:
    """Each label's number, in order; InputError unless they are distinct strings."""
    if not set(map(type, labels)) <= {str}:
        bad = next(v for v in labels if type(v) is not str)
        raise InputError(f"node labels must be strings, got {bad!r}")
    index = dict(zip(labels, count()))
    if len(index) != len(labels):
        raise InputError("duplicate node labels")
    return index


def _check_edges(edges: tuple[Edge, ...], index: dict[NodeId, int]) -> tuple[tuple, ...]:
    """The ids, ascending, and their edges' tail and head numbers, which _residual_arcs reads.

    Raises unless the edges are Edges with distinct int ids between two
    distinct nodes. Set and element-wise comparisons over their types and
    transposed fields, with the ends mapped through index: a missing number
    is an unknown node, equal numbers a self-loop, and strictly ascending
    ids, sorted first if they do not ascend, are distinct. Only on a failure
    are the edges walked to name the first offending one.
    """
    with suppress(KeyError, TypeError):  # an unknown or unhashable end
        if set(map(type, edges)) <= {Edge}:
            eids, tails, heads = zip(*edges) if edges else ((), (), ())
            tails, heads = [tuple(map(index.__getitem__, ends)) for ends in (tails, heads)]
            if set(map(type, eids)) <= {int} and not any(map(operator.eq, tails, heads)):
                if not all(map(operator.lt, eids, eids[1:])):
                    eids, tails, heads = zip(*sorted(zip(eids, tails, heads)))
                if all(map(operator.lt, eids, eids[1:])):
                    return eids, tails, heads
    _raise_first_edge_error(edges, index)


def _raise_first_edge_error(edges: tuple[Edge, ...], index: dict[NodeId, int]) -> None:
    """Raise for the first edge that is no Edge, has no int id, loops, or has an unknown end
    or a repeated id."""
    seen_ids: set[EdgeId] = set()
    for e in edges:
        if type(e) is not Edge:
            raise InputError(f"edges must be Edge values, got {e!r}")
        if type(e.eid) is not int:
            raise InputError(f"edge ids must be integers, got {e.eid!r}")
        if e.tail == e.head:
            raise InputError(f"self-loop at {e.tail!r}")
        if e.tail not in index or e.head not in index:
            raise UnknownNodeError(f"edge {e.eid} references unknown node")
        if e.eid in seen_ids:
            raise InputError(f"duplicate edge id {e.eid}")
        seen_ids.add(e.eid)


MAX_UNIT_EDGES = 1 << 20  # the most unit edges a network's capacities may expand to


def expand_capacities(weighted_edges: Iterable[tuple[NodeId, NodeId, int]]) -> list[Edge]:
    """Split each weighted edge of capacity c into c parallel unit edges.

    Ids are assigned consecutively from 0, in input order, so a Network's
    validation finds them ascending and keeps them unsorted. The capacities
    are checked before any edge is built, with a type, minimum and sum test
    over all of them; only when that fails are they walked in order, and
    InputError names the first edge whose capacity is not a positive integer
    or takes the total past MAX_UNIT_EDGES.
    """
    weighted = list(weighted_edges)
    tails, heads, caps = zip(*weighted) if weighted else ((), (), ())
    if not set(map(type, caps)) <= {int} or min(caps, default=1) <= 0 or sum(caps) > MAX_UNIT_EDGES:
        _check_capacities(weighted)
    if sum(caps) != len(caps):
        tails = chain.from_iterable(map(repeat, tails, caps))
        heads = chain.from_iterable(map(repeat, heads, caps))
    return list(map(tuple.__new__, repeat(Edge), zip(count(), tails, heads)))


def _check_capacities(weighted: list[tuple[NodeId, NodeId, int]]) -> None:
    """Raise for the first capacity that is not a positive integer or passes the bound."""
    total = 0
    for i, (tail, head, cap) in enumerate(weighted):
        if not isinstance(cap, int) or isinstance(cap, bool) or cap <= 0:
            raise InputError(f"capacity must be a positive integer, got {cap!r} on {tail}->{head}")
        total += cap
        if total > MAX_UNIT_EDGES:
            raise InputError(
                f"edge #{i} ({tail}->{head}) takes the capacities past {MAX_UNIT_EDGES} unit edges"
            )


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
) -> Network:
    """Extend a network with extra nodes and unit edges, listed and numbered after net's.

    Nothing is checked: the new labels must be distinct strings that net
    lacks, and each new edge must join two distinct nodes of the extended
    network. Its one caller, build_augmented, adds three reserved labels
    after refusing any base label with their '__' prefix, and none of its
    bundles is a loop; tests/test_netgraph.py compares its extensions with
    a fresh build. The extended network inherits net's edge index and
    residual adjacency instead of rebuilding them: base edges keep their arc
    numbers, the new edges' arcs come after them, and only the nodes a new
    edge touches get a new out list (base out-arcs, new out-arcs) and arc
    list (that out list, base in-arcs, new in-arcs). Each run of new edges
    with one tail and head, such as a bundle of build_augmented, is added
    in one step: its Edges, ids and range of arcs. That is exactly the
    adjacency a fresh build gives, since each group stays in ascending edge
    id. No flow runs here.
    """
    index, eids, arc_head, arcs, out = net._residual_arcs
    extra = tuple(new_nodes)
    index = dict(index)
    index.update(zip(extra, count(len(index))))
    first = eid = net.next_edge_id()
    added: list[Edge] = []
    arc_head = arc_head.copy()
    new_out: dict[int, list[int]] = {}
    new_in: dict[int, list[int]] = {}
    for (tail_label, head_label), run in groupby(new_edges):
        k = len(list(run))
        ends = zip(range(eid, eid + k), repeat(tail_label, k), repeat(head_label, k))
        added += map(tuple.__new__, repeat(Edge, k), ends)  # Edge._make without a call per edge
        tail, head = index[tail_label], index[head_label]
        a = len(arc_head)  # the run's first arc
        arc_head += (head, tail) * k
        new_out.setdefault(tail, []).extend(range(a, a + 2 * k, 2))
        new_in.setdefault(head, []).extend(range(a + 1, a + 2 * k, 2))
        eid += k
    n_new = len(index) - len(arcs)
    arcs = arcs + [[] for _ in range(n_new)]
    out = out + [[] for _ in range(n_new)]
    for v in new_out.keys() | new_in.keys():
        n_out = len(out[v])
        out[v] = out[v] + new_out.get(v, [])
        arcs[v] = out[v] + arcs[v][n_out:] + new_in.get(v, [])
    edge_index = dict(net._edge_index)
    edge_index.update(zip(range(first, eid), added))
    # A frozen dataclass keeps its fields and cached properties in __dict__.
    extended = object.__new__(Network)
    vars(extended).update(
        nodes=net.nodes + extra,
        edges=net.edges + tuple(added),
        source=net.source,
        terminals=net.terminals,
        _edge_index=edge_index,
        _residual_arcs=ResidualArcs(index, eids + list(range(first, eid)), arc_head, arcs, out),
    )
    return extended
