"""Path recoloring: carve interference-free routes out of overlapping path sets.

Two families of edge-disjoint paths share a graph: green paths from the source
to a collector node, red paths from the source to the protected virtual
terminal. An edge is green (red) iff some current green (red) path uses it.
One rewrite step picks a green path whose first doubly-colored edge is not at
its start and reroutes the red path through that edge onto the green path's
prefix. At the fixpoint every green path is either entirely green or starts
on a doubly-colored edge; the entirely-green ones are interference-free routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .augment import AugmentedNetwork
from .errors import InvariantError, NonterminationError, TheoremViolationError
from .flow import EdgePath, edge_disjoint_paths
from .netgraph import Demand, EdgeId, Network, NodeId
# Unused here; perfbench/tracer.py wraps recolor.build_augmented, recolor.remove_edges,
# recolor.max_flow and recolor.decompose_paths.
from .augment import build_augmented  # noqa: F401
from .flow import decompose_paths, max_flow  # noqa: F401
from .netgraph import remove_edges  # noqa: F401


@dataclass(frozen=True)
class ColoringState:
    """Both path families on a network; colors derive from the paths.

    A plain record: every path starts at net.source. run_to_fixpoint checks
    the state it receives, once, and builds its final state unchecked.
    """

    net: Network
    green_paths: tuple[EdgePath, ...]
    red_paths: tuple[EdgePath, ...]

    @cached_property
    def red_edges(self) -> frozenset[EdgeId]:
        """Edges some red path uses."""
        return frozenset(eid for p in self.red_paths for eid in p.edges)


@dataclass(frozen=True)
class TraceStep:
    green_index: int
    shared_edge: EdgeId
    red_index: int
    prefix_swapped: EdgePath


@dataclass(frozen=True)
class ReroutingTrace:
    steps: tuple[TraceStep, ...]


def run_to_fixpoint(
    state: ColoringState, budget: int | None = None
) -> tuple[ColoringState, ReroutingTrace]:
    """Apply rewrite steps, rescanning green paths in index order, until none violates.

    A green path violates when its first red edge e1 is not its first edge.
    The step gives the red path r through e1 the green path's edges up to e1
    followed by r's old edges after e1; r's old edges before e1 lose red.
    `red_of` maps each red edge to the index of its red path.

    The state is checked once, on entry, in one walk per path: every path is
    non-empty, starts at the source and is contiguous, only its first edge
    leaves the source, and paths of one color share no edge (decompose_paths
    gives node-simple, edge-disjoint paths). Each step then keeps the red
    paths valid by construction. The green prefix before e1 carries no red,
    so it touches no other red path; the old tail after e1 is a suffix of r,
    so the new path is contiguous and edge-disjoint from the others. Its only
    source out-edge is the prefix's first: the prefix does not return to the
    source, and r's one source out-edge is r's first edge, at or before e1.
    So the final state is built from the red path lists without a second
    check, and only when a step was taken. The acceptance tests replay every
    trace step by step through tests/oracles.py, which rechecks all of this.

    budget caps the number of steps, by default edges x green paths x red
    paths; exceeding it raises NonterminationError, which signals a bug
    rather than a legitimate outcome.
    """
    net, s = state.net, state.net.source
    greens = state.green_paths
    for family in (greens, state.red_paths):
        seen: set[EdgeId] = set()
        for p in family:
            if not p.edges:
                raise InvariantError("empty path in coloring state")
            at = s
            for i, eid in enumerate(p.edges):
                e = net.edge(eid)
                if e.tail != at or (i and at == s):
                    raise InvariantError(f"edge {eid} does not continue a path from the source")
                if eid in seen:
                    raise InvariantError(f"paths of one color share edge {eid}")
                seen.add(eid)
                at = e.head
    reds = [p.edges for p in state.red_paths]
    if budget is None:
        budget = max(1, len(net.edges)) * max(1, len(greens)) * max(1, len(reds))
    red_of = {eid: r for r, edges in enumerate(reds) for eid in edges}
    steps: list[TraceStep] = []
    while True:
        for g, p in enumerate(greens):
            pos = next((i for i, eid in enumerate(p.edges) if eid in red_of), 0)
            if pos:
                break
        else:
            if steps:
                red_paths = tuple(EdgePath(edges) for edges in reds)
                state = ColoringState(net=net, green_paths=greens, red_paths=red_paths)
            return state, ReroutingTrace(tuple(steps))
        e1 = p.edges[pos]
        r = red_of[e1]
        old = reds[r]
        split = old.index(e1)
        prefix = p.edges[: pos + 1]
        for eid in old[:split]:
            del red_of[eid]
        for eid in prefix:
            red_of[eid] = r
        reds[r] = prefix + old[split + 1 :]
        steps.append(TraceStep(g, e1, r, EdgePath(prefix)))
        if len(steps) > budget:
            raise NonterminationError(
                f"recoloring exceeded its budget of {budget} steps"
            )


def extract_exclusive_green(
    state: ColoringState, *, gate: NodeId, count: int
) -> list[EdgePath]:
    """Return the routes: the first `count` exclusively green paths, cut at `gate`.

    An exclusively green path uses no red edge. The fixpoint guarantees at
    least h1 such paths and that every one of them traverses the gate node;
    spare capacity in the network can leave more than h1, in which case the
    first h1 in path order are taken. Each is cut right after its first
    arrival at the gate, so a route ends with the virtual terminal-entry
    edge. Fewer than h1, or an exclusively green path avoiding the gate,
    means the construction's guarantees were broken and is reported as a
    theorem violation.
    """
    red = state.red_edges
    exclusive = [p for p in state.green_paths if red.isdisjoint(p.edges)]
    if len(exclusive) < count:
        raise TheoremViolationError(
            f"expected at least {count} exclusively green paths, found {len(exclusive)}"
        )
    try:
        routes = [_truncate_at(state.net, p, gate) for p in exclusive]
    except InvariantError:
        raise TheoremViolationError(
            f"exclusively green path misses the virtual terminal {gate!r}"
        ) from None
    return routes[:count]


@dataclass(frozen=True)
class PassResult:
    """Everything one recoloring pass produced, for auditing and projection."""

    aug: AugmentedNetwork
    initial: ColoringState
    state: ColoringState
    trace: ReroutingTrace
    routes: tuple[EdgePath, ...]

    @property
    def real_routes(self) -> tuple[EdgePath, ...]:
        """The routes over original-graph edge ids (virtual hops dropped)."""
        virtual = self.aug.virtual_edge_ids
        return tuple(
            EdgePath(tuple(eid for eid in p.edges if eid not in virtual)) for p in self.routes
        )


@dataclass(frozen=True)
class SymmetricPassResult:
    pass1: PassResult
    pass2: PassResult

    @property
    def x1_routes(self) -> tuple[EdgePath, ...]:
        return self.pass1.real_routes

    @property
    def x2_routes(self) -> tuple[EdgePath, ...]:
        return self.pass2.real_routes

    @property
    def coded_paths(self) -> tuple[tuple[EdgePath, ...], tuple[EdgePath, ...]]:
        """h0 paths to T1 and h0 to T2, over real edges, that avoid every route.

        Pass 2's red paths and its non-route green paths, cut at their first
        arrival at the terminal. Pass 2's paths start off the x1 routes and
        recoloring keeps them there; the x2 routes are green and carry no red.
        """
        p2 = self.pass2
        t1, t2 = p2.aug.base.terminals
        routed = {p.edges[0] for p in p2.routes}
        greens = [p for p in p2.state.green_paths if p.edges[0] not in routed]
        return (
            tuple(_truncate_at(p2.aug.net, p, t1) for p in p2.state.red_paths),
            tuple(_truncate_at(p2.aug.net, p, t2) for p in greens),
        )


def _truncate_at(net: Network, path: EdgePath, node: NodeId) -> EdgePath:
    for i, eid in enumerate(path.edges):
        if net.edge(eid).head == node:
            return EdgePath(path.edges[: i + 1])
    raise InvariantError(f"path never reaches {node!r}")


def single_pass(aug: AugmentedNetwork, d: Demand) -> PassResult:
    """Pass 1: decompose fresh flows to Y1 and T2', recolor to fixpoint, cut routes at T1'.

    Each path family comes from edge_disjoint_paths, which decomposes its
    Dinic run's residual directly, on the adjacency aug.net inherits from
    the base network. Fewer than h0+h1+h2 paths to Y1 or h0+h2 to T2' raises
    TheoremViolationError; synthesis reports it as an infeasible demand.
    """
    net = aug.net
    s = net.source
    greens = edge_disjoint_paths(net, s, {aug.y1})
    if len(greens) != d.total:
        raise TheoremViolationError(
            f"expected {d.total} edge-disjoint paths to {aug.y1!r}, found {len(greens)}"
        )
    reds = edge_disjoint_paths(net, s, {aug.t2p})
    if len(reds) != d.h0 + d.h2:
        raise TheoremViolationError(
            f"expected {d.h0 + d.h2} edge-disjoint paths to {aug.t2p!r}, "
            f"found {len(reds)}"
        )
    initial = ColoringState(net=net, green_paths=tuple(greens), red_paths=tuple(reds))
    state, trace = run_to_fixpoint(initial)
    routes = tuple(extract_exclusive_green(state, gate=aug.t1p, count=d.h1))
    return PassResult(aug=aug, initial=initial, state=state, trace=trace, routes=routes)


def second_pass(pass1: PassResult, d: Demand) -> PassResult:
    """Pass 2, started from pass 1's final coloring on the same augmented graph.

    Green: pass 1's h0+h2 final red paths to T2', the i-th extended by the
    i-th T2'->Y2 edge in ascending id (the bundle has exactly h0+h2). Red:
    pass 1's h0 non-route green paths entering Y1 from T1', cut at T1'. The
    routes are green and carry no red, so no path here uses an x1 route
    edge, and recoloring only hands red paths prefixes of these greens.
    A count other than h0+h2 or h0 means pass 1 broke its guarantees.
    """
    aug = pass1.aug
    net = aug.net
    into_y2 = sorted(
        eid for eid in aug.virtual_edge_ids if net.edge(eid)[1:] == (aug.t2p, aug.y2)
    )
    routed = {p.edges[0] for p in pass1.routes}
    reds = tuple(
        EdgePath(p.edges[:-1])
        for p in pass1.state.green_paths
        if p.edges[0] not in routed and net.edge(p.edges[-1]).tail == aug.t1p
    )
    old_reds = pass1.state.red_paths
    if len(reds) != d.h0 or len(old_reds) != len(into_y2):
        raise TheoremViolationError(
            f"pass 1 left {len(reds)} non-route paths through {aug.t1p!r} and "
            f"{len(old_reds)} red paths, expected {d.h0} and {len(into_y2)}"
        )
    greens = tuple(EdgePath(p.edges + (eid,)) for p, eid in zip(old_reds, into_y2))
    initial = ColoringState(net=net, green_paths=greens, red_paths=reds)
    state, trace = run_to_fixpoint(initial)
    routes = tuple(extract_exclusive_green(state, gate=aug.t2p, count=d.h2))
    return PassResult(aug=aug, initial=initial, state=state, trace=trace, routes=routes)


def symmetric_pass(aug: AugmentedNetwork, d: Demand) -> SymmetricPassResult:
    """Both recoloring passes on one augmented graph, with pass 1's two flows.

    Pass 1 extracts the h1 routes toward T1 from fresh flows to Y1 and T2'.
    Pass 2 mirrors the roles, starting from pass 1's final coloring
    (second_pass): its green paths to Y2 all end T2'->Y2, and its red paths
    to T1' avoid the x1 routes. The fixpoint leaves at most h0 green paths
    starting on a red edge, one per red path's source out-edge, so at least
    h2 are exclusively green; recoloring never changes a green path, so each
    passes the gate T2'. Both passes share one augmentation and two flows.
    """
    pass1 = single_pass(aug, d)
    return SymmetricPassResult(pass1=pass1, pass2=second_pass(pass1, d))
