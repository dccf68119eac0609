"""Path recoloring: carve interference-free routes out of overlapping path sets.

Two families of edge-disjoint paths share a graph: green paths from the source
to the collector Y1 (pass 1) or to T2' (pass 2), red paths from the source to
the protected virtual terminal. An edge is green (red) iff some current green
(red) path uses it. One rewrite step picks a green path whose first
doubly-colored edge is not at its start and reroutes the red path through
that edge onto the green path's prefix. At the fixpoint every green path is
either entirely green or starts on a doubly-colored edge; the entirely-green
ones are interference-free routes. Steps are always taken on the first
violating green path in index order, but after a step only the green paths
it can have changed are checked again: those crossing the red edges the step
gave up.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush

from .augment import T1P, T2P, Y1, build_augmented
from .errors import InvariantError, NonterminationError, TheoremViolationError
from .flow import EdgePath, edge_disjoint_paths, paths_to_t2
from .netgraph import Demand, EdgeId, Network, NodeId
# Unused here; perfbench/tracer.py wraps recolor.remove_edges, recolor.max_flow
# and recolor.decompose_paths.
from .flow import decompose_paths, max_flow  # noqa: F401
from .netgraph import remove_edges  # noqa: F401


@dataclass(frozen=True)
class ColoringState:
    """Both path families on a network; colors derive from the paths.

    A plain record. The package builds it in single_pass, second_pass and
    run_to_fixpoint, always valid as run_to_fixpoint's docstring states;
    tests/oracles.check_coloring checks that validity.
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
    """Apply rewrite steps, each to the first violating green path, until none violates.

    A green path violates when its first red edge e1 is not its first edge.
    The step gives the red path r through e1 the green path's edges up to e1
    followed by r's old edges after e1; r's old edges before e1 lose red.
    `red_of` maps each red edge to the index of its red path.

    Green paths are checked in index order, and after a step only those
    whose red edges changed are checked again. The stepped path now starts
    on a red edge, so it stops violating; the prefix it hands r is its own
    and carries no red before the step, so no other green path gains a red
    edge. Only the edges r gives up can move another green path's first red
    edge, and green paths share no edge, so each of them lies on at most one
    green path (`green_of`, built at the first step). Those paths, when
    already checked, go on a min-heap; the next step is taken on the
    smallest index in it or, once it is empty, on the next unchecked path,
    whichever violates first. That is the first violating path in index
    order, the one a rescan from index 0 after every step would pick.

    The state must be valid, and is not checked here: every path is
    non-empty, starts at the source and is contiguous, only its first edge
    leaves the source, and paths of one color share no edge. Both callers
    guarantee it. Pass 1's paths come from Dinic records, which are
    edge-disjoint and node-simple; pass 2's are pass 1's final paths or
    their prefixes, and each step keeps the red paths valid. The green
    prefix before e1 carries no red, so it touches no other red path; the
    old tail after e1 is a suffix of r, so the new path is contiguous and
    edge-disjoint from the others. Its only source out-edge is the prefix's
    first: the prefix does not return to the source, and r's one source
    out-edge is r's first edge, at or before e1. So the final state is built
    from the red path lists, and only when a step was taken. The acceptance sweeps check the first
    and final state of both passes with tests/oracles.check_coloring, and
    the DAG sweep replays every trace step by step.

    budget caps the number of steps, by default edges x green paths x red
    paths; exceeding it raises NonterminationError, which signals a bug
    rather than a legitimate outcome.
    """
    net = state.net
    greens = state.green_paths
    reds = [p.edges for p in state.red_paths]
    if budget is None:
        budget = max(1, len(net.edges)) * max(1, len(greens)) * max(1, len(reds))
    red_of = {eid: r for r, edges in enumerate(reds) for eid in edges}
    green_of: dict[EdgeId, int] = {}
    unchecked = 0  # greens from this index on are still to be checked
    recheck: list[int] = []  # min-heap of checked greens whose red edges changed
    queued: set[int] = set()  # the greens in recheck
    steps: list[TraceStep] = []
    while True:
        if recheck:
            g = heappop(recheck)
            queued.remove(g)
        elif unchecked < len(greens):
            g = unchecked
            unchecked += 1
        else:
            break
        edges = greens[g].edges
        for pos, e1 in enumerate(edges):
            if e1 in red_of:
                break
        else:
            continue
        if not pos:
            continue
        if not steps:
            green_of = {eid: i for i, p in enumerate(greens) for eid in p.edges}
        r = red_of[e1]
        old = reds[r]
        split = old.index(e1)
        prefix = edges[: pos + 1]
        for eid in old[:split]:
            del red_of[eid]
            h = green_of.get(eid)
            if h is not None and h < unchecked and h not in queued:
                queued.add(h)
                heappush(recheck, h)
        for eid in prefix:
            red_of[eid] = r
        reds[r] = prefix + old[split + 1 :]
        steps.append(TraceStep(g, e1, r, EdgePath(prefix)))
        if len(steps) > budget:
            raise NonterminationError(
                f"recoloring exceeded its budget of {budget} steps"
            )
    if steps:
        red_paths = tuple(EdgePath(edges) for edges in reds)
        state = ColoringState(net=net, green_paths=greens, red_paths=red_paths)
    return state, ReroutingTrace(tuple(steps))


def extract_exclusive_green(
    state: ColoringState, *, gate: NodeId, count: int
) -> list[EdgePath]:
    """Return the routes: the first `count` exclusively green paths, up to `gate`.

    An exclusively green path uses no red edge. The fixpoint guarantees at
    least `count` such paths and that every one of them traverses the gate,
    a virtual terminal; spare capacity in the network can leave more, in
    which case the first `count` in path order are taken. Each is cut just
    before its first arrival at the gate, so a route is over the base
    network's edges and ends at the real terminal: the edge into the gate is
    the only virtual edge before it, since virtual nodes lead only to Y1.
    Fewer than `count`, or an exclusively green path avoiding the gate,
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
        routes = [EdgePath(p.edges[: _arrival(state.net, p, gate)]) for p in exclusive]
    except InvariantError:
        raise TheoremViolationError(
            f"exclusively green path misses the virtual terminal {gate!r}"
        ) from None
    return routes[:count]


@dataclass(frozen=True)
class PassResult:
    """One recoloring pass: its first and final colorings, its trace and its routes.

    Both colorings are on the extended network, state.net. The routes are
    over the base network's edges (extract_exclusive_green).
    """

    initial: ColoringState
    state: ColoringState
    trace: ReroutingTrace
    routes: tuple[EdgePath, ...]


@dataclass(frozen=True)
class SymmetricPassResult:
    pass1: PassResult
    pass2: PassResult

    @property
    def coded_paths(self) -> tuple[tuple[EdgePath, ...], tuple[EdgePath, ...]]:
        """h0 paths to T1 and h0 to T2, over real edges, that avoid every route.

        Pass 2's red paths and its non-route green paths, cut at their first
        arrival at the terminal. Pass 2's paths start off the x1 routes and
        recoloring keeps them there; the x2 routes are green and carry no red.
        """
        p2 = self.pass2
        net = p2.state.net
        t1, t2 = net.terminals
        routed = {p.edges[0] for p in p2.routes}
        greens = [p for p in p2.state.green_paths if p.edges[0] not in routed]
        return (
            tuple(EdgePath(p.edges[: _arrival(net, p, t1) + 1]) for p in p2.state.red_paths),
            tuple(EdgePath(p.edges[: _arrival(net, p, t2) + 1]) for p in greens),
        )


def _arrival(net: Network, path: EdgePath, node: NodeId) -> int:
    """The position on path of the edge by which it first enters node.

    Heads are read off the edge index. Both callers pass paths of a
    coloring state on net itself, so every edge is known; any miss, an
    unknown edge or a node the path never reaches, raises InvariantError.
    """
    edge_at = net._edge_index
    try:
        return [edge_at[eid][2] for eid in path.edges].index(node)
    except (KeyError, ValueError):
        raise InvariantError(f"path never reaches {node!r}") from None


def single_pass(net: Network, d: Demand) -> PassResult:
    """Pass 1: paths to Y1 and to T2', recolored to fixpoint, routes cut at T1'.

    net is the base network; the pass runs on its extension by
    build_augmented. The green paths to Y1 come from edge_disjoint_paths on
    the extension. T2' is entered only from T2, so the red paths to T2' are
    the base network's first h0+h2 paths to T2 (flow.paths_to_t2, read off
    its run to T2, Network._t2_run), each continued by one T2 -> T2' edge in
    ascending id: the paths a flow to T2' would give, with no search.
    Fewer than h0+h1+h2 paths to Y1 or h0+h2 to T2' raises
    TheoremViolationError; synthesis reports it as an infeasible demand.
    """
    ext = build_augmented(net, d)
    greens = edge_disjoint_paths(ext, net.source, {Y1})
    if len(greens) != d.total:
        raise TheoremViolationError(
            f"expected {d.total} edge-disjoint paths to {Y1!r}, found {len(greens)}"
        )
    into_t2p = [e.eid for e in ext.edges[len(net.edges) :] if e.head == T2P]
    reds = [
        EdgePath(p.edges + (eid,)) for p, eid in zip(paths_to_t2(net, d.h0 + d.h2), into_t2p)
    ]
    if len(reds) != d.h0 + d.h2:
        raise TheoremViolationError(
            f"expected {d.h0 + d.h2} edge-disjoint paths to {T2P!r}, found {len(reds)}"
        )
    initial = ColoringState(net=ext, green_paths=tuple(greens), red_paths=tuple(reds))
    state, trace = run_to_fixpoint(initial)
    routes = tuple(extract_exclusive_green(state, gate=T1P, count=d.h1))
    return PassResult(initial=initial, state=state, trace=trace, routes=routes)


def second_pass(pass1: PassResult, d: Demand) -> PassResult:
    """Pass 2, started from pass 1's final coloring on the same extended network.

    Green: pass 1's h0+h2 final red paths to T2', unchanged. Red: pass 1's
    h0 non-route green paths entering Y1 from T1', cut at T1'. The routes
    are green and carry no red, so no path here uses an x1 route edge, and
    recoloring only hands red paths prefixes of these greens. A count other
    than h0+h2 or h0 means pass 1 broke its guarantees.
    """
    net = pass1.state.net
    routed = {p.edges[0] for p in pass1.routes}
    reds = tuple(
        EdgePath(p.edges[:-1])
        for p in pass1.state.green_paths
        if p.edges[0] not in routed and net.edge(p.edges[-1]).tail == T1P
    )
    greens = pass1.state.red_paths
    if len(reds) != d.h0 or len(greens) != d.h0 + d.h2:
        raise TheoremViolationError(
            f"pass 1 left {len(reds)} non-route paths through {T1P!r} and "
            f"{len(greens)} red paths, expected {d.h0} and {d.h0 + d.h2}"
        )
    initial = ColoringState(net=net, green_paths=greens, red_paths=reds)
    state, trace = run_to_fixpoint(initial)
    routes = tuple(extract_exclusive_green(state, gate=T2P, count=d.h2))
    return PassResult(initial=initial, state=state, trace=trace, routes=routes)


def symmetric_pass(net: Network, d: Demand) -> SymmetricPassResult:
    """Both recoloring passes on one extension of the base network net.

    Pass 1 extracts the h1 routes toward T1 from a flow to Y1 and the
    network's paths to T2, continued into T2'.
    Pass 2 mirrors the roles, starting from pass 1's final coloring
    (second_pass): its green paths are pass 1's red paths to T2', and its red
    paths to T1' avoid the x1 routes. The fixpoint leaves at most h0 green paths
    starting on a red edge, one per red path's source out-edge, so at least
    h2 are exclusively green; recoloring never changes a green path, so each
    passes the gate T2'. Both passes share one augmentation and pass 1's paths.
    """
    pass1 = single_pass(net, d)
    return SymmetricPassResult(pass1=pass1, pass2=second_pass(pass1, d))
