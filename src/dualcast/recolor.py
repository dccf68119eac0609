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

from .augment import AugmentedNetwork, build_augmented
from .errors import InvariantError, NonterminationError, TheoremViolationError
from .flow import EdgePath, decompose_paths, max_flow
from .netgraph import Demand, EdgeId, Network, NodeId, out_edges, remove_edges

GREEN = "green"
RED = "red"

_GREEN_ONLY = frozenset({GREEN})
_BOTH = frozenset({GREEN, RED})


@dataclass(frozen=True)
class ColoringState:
    """Immutable snapshot of both path families; colors derive from the paths."""

    net: Network
    source: NodeId
    green_paths: tuple[EdgePath, ...]
    red_paths: tuple[EdgePath, ...]

    def __post_init__(self) -> None:
        for family in (self.green_paths, self.red_paths):
            seen: set[EdgeId] = set()
            for p in family:
                if not p.edges:
                    raise InvariantError("empty path in coloring state")
                if self.net.edge(p.edges[0]).tail != self.source:
                    raise InvariantError("path does not start at the source")
                for a, b in zip(p.edges, p.edges[1:]):
                    if self.net.edge(a).head != self.net.edge(b).tail:
                        raise InvariantError("path is not contiguous")
                for eid in p.edges:
                    if eid in seen:
                        raise InvariantError("paths within one color share an edge")
                    seen.add(eid)

    @cached_property
    def edge_colors(self) -> dict[EdgeId, frozenset[str]]:
        acc: dict[EdgeId, set[str]] = {}
        for p in self.green_paths:
            for eid in p.edges:
                acc.setdefault(eid, set()).add(GREEN)
        for p in self.red_paths:
            for eid in p.edges:
                acc.setdefault(eid, set()).add(RED)
        return {eid: frozenset(colors) for eid, colors in acc.items()}

    def red_source_degree(self) -> int:
        """Number of source out-edges currently carrying red."""
        colors = self.edge_colors
        return sum(
            1 for eid in out_edges(self.net, self.source) if RED in colors.get(eid, ())
        )


@dataclass(frozen=True)
class TraceStep:
    green_index: int
    shared_edge: EdgeId
    red_index: int
    prefix_swapped: EdgePath


@dataclass(frozen=True)
class ReroutingTrace:
    steps: tuple[TraceStep, ...]


def cond(p: EdgePath, state: ColoringState) -> bool:
    """True iff every edge of p is green-only, or p's first edge carries both colors."""
    colors = state.edge_colors
    if colors.get(p.edges[0]) == _BOTH:
        return True
    return all(colors.get(eid) == _GREEN_ONLY for eid in p.edges)


def algorithm_a(p_index: int, state: ColoringState) -> tuple[ColoringState, TraceStep | None]:
    """One rewrite step on green path p_index; (state, None) if p has no dual edge.

    The red path through p's first doubly-colored edge e1 is replaced by p's
    prefix up to e1 followed by the old red tail after e1. Colors are derived
    from the path lists, so p's prefix gains red and the abandoned red head
    loses it automatically.
    """
    p = state.green_paths[p_index]
    colors = state.edge_colors
    e1 = None
    e1_pos = -1
    for i, eid in enumerate(p.edges):
        if colors.get(eid) == _BOTH:
            e1 = eid
            e1_pos = i
            break
    if e1 is None:
        return state, None

    red_index = next(
        (r for r, rp in enumerate(state.red_paths) if e1 in rp.edges), None
    )
    if red_index is None:
        raise InvariantError(f"edge {e1} is colored red but lies on no red path")
    rp = state.red_paths[red_index]
    split = rp.edges.index(e1)
    prefix = p.edges[: e1_pos + 1]
    rerouted = EdgePath(prefix + rp.edges[split + 1 :])
    new_reds = list(state.red_paths)
    new_reds[red_index] = rerouted
    new_state = ColoringState(
        net=state.net,
        source=state.source,
        green_paths=state.green_paths,
        red_paths=tuple(new_reds),
    )
    step = TraceStep(
        green_index=p_index,
        shared_edge=e1,
        red_index=red_index,
        prefix_swapped=EdgePath(prefix),
    )
    return new_state, step


def run_to_fixpoint(
    state: ColoringState, budget: int | None = None
) -> tuple[ColoringState, ReroutingTrace]:
    """Apply rewrite steps, rescanning green paths in index order, until all satisfy cond.

    After every step the number of red source out-edges must stay equal to the
    red path count (each red path owns exactly one source out-edge). budget
    caps the number of steps, by default edges x green paths x red paths;
    exceeding it raises NonterminationError, which signals a bug rather than a
    legitimate outcome.
    """
    expected_red = len(state.red_paths)
    if state.red_source_degree() != expected_red:
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
        if state.red_source_degree() != expected_red:
            raise InvariantError("red source degree changed during rerouting")
        steps.append(step)
        if len(steps) > budget:
            raise NonterminationError(
                f"recoloring exceeded its budget of {budget} steps"
            )


def replay_trace(initial: ColoringState, trace: ReroutingTrace) -> ColoringState:
    """Re-apply a recorded trace; raises InvariantError if any step diverges."""
    state = initial
    for recorded in trace.steps:
        state, step = algorithm_a(recorded.green_index, state)
        if step != recorded:
            raise InvariantError("trace replay diverged from the recorded step")
    return state


def exclusively_green(state: ColoringState) -> list[EdgePath]:
    """Green paths all of whose edges carry only green."""
    colors = state.edge_colors
    return [
        p
        for p in state.green_paths
        if all(colors.get(eid) == _GREEN_ONLY for eid in p.edges)
    ]


def extract_exclusive_green(
    state: ColoringState, *, gate: NodeId, count: int
) -> list[EdgePath]:
    """Return the routing paths: `count` exclusively green paths through `gate`.

    The fixpoint guarantees at least h1 such paths and that every one of them
    traverses the gate node; spare capacity in the network can leave more than
    h1, in which case the first h1 in path order are taken. Fewer than h1, or
    an exclusively green path avoiding the gate, means the construction's
    guarantees were broken and is reported as a theorem violation.
    """
    exclusive = exclusively_green(state)
    if len(exclusive) < count:
        raise TheoremViolationError(
            f"expected at least {count} exclusively green paths, found {len(exclusive)}"
        )
    for p in exclusive:
        if not p.visits(state.net, gate):
            raise TheoremViolationError(
                f"exclusively green path misses the virtual terminal {gate!r}"
            )
    return exclusive[:count]


@dataclass(frozen=True)
class PassResult:
    """Everything one recoloring pass produced, for auditing and projection."""

    aug: AugmentedNetwork
    initial: ColoringState
    state: ColoringState
    trace: ReroutingTrace
    routes: tuple[EdgePath, ...]


@dataclass(frozen=True)
class SymmetricPassResult:
    pass1: PassResult
    pass2: PassResult

    @property
    def x1_routes(self) -> tuple[EdgePath, ...]:
        return self.pass1.routes

    @property
    def x2_routes(self) -> tuple[EdgePath, ...]:
        return self.pass2.routes


def _truncate_at(net: Network, path: EdgePath, node: NodeId) -> EdgePath:
    for i, eid in enumerate(path.edges):
        if net.edge(eid).head == node:
            return EdgePath(path.edges[: i + 1])
    raise InvariantError(f"path never reaches {node!r}")


def single_pass(
    aug: AugmentedNetwork,
    *,
    collector: NodeId,
    red_target: NodeId,
    gate: NodeId,
    n_green: int,
    n_red: int,
    n_routes: int,
) -> PassResult:
    """Decompose the two flows, recolor to fixpoint, extract gate-bound routes.

    Routes are truncated right after their arrival at the gate node, so each
    ends with the virtual terminal-entry edge.
    """
    net = aug.net
    s = net.source
    green_flow = max_flow(net, s, {collector})
    if green_flow.value != n_green:
        raise TheoremViolationError(
            f"expected {n_green} edge-disjoint paths to {collector!r}, found {green_flow.value}"
        )
    red_flow = max_flow(net, s, {red_target})
    if red_flow.value != n_red:
        raise TheoremViolationError(
            f"expected {n_red} edge-disjoint paths to {red_target!r}, found {red_flow.value}"
        )
    greens = decompose_paths(net, green_flow, s, collector)
    reds = decompose_paths(net, red_flow, s, red_target)
    initial = ColoringState(
        net=net, source=s, green_paths=tuple(greens), red_paths=tuple(reds)
    )
    state, trace = run_to_fixpoint(initial)
    full_routes = extract_exclusive_green(state, gate=gate, count=n_routes)
    routes = tuple(_truncate_at(net, p, gate) for p in full_routes)
    return PassResult(aug=aug, initial=initial, state=state, trace=trace, routes=routes)


def real_route_edges(result: PassResult) -> set[EdgeId]:
    """Original-graph edge ids used by a pass's routes (virtual hops dropped)."""
    return {
        eid
        for p in result.routes
        for eid in p.edges
        if eid not in result.aug.virtual_edge_ids
    }


def symmetric_pass(aug: AugmentedNetwork, d: Demand) -> SymmetricPassResult:
    """Both recoloring passes, run sequentially.

    The first pass extracts the h1 routes toward T1 on the full augmented
    graph. The second pass mirrors the roles on a fresh augmentation of the
    residual: the x1 route edges are removed from the underlying network and
    the virtual bundles are rebuilt for the remaining demand (h0, 0, h2), so
    the protected side's gadget is sized by what T1 still has to receive.
    Rebuilding (rather than reusing the first gadget) is what keeps the
    mirrored pass's flow counts and gate-forcing argument valid.
    """
    pass1 = single_pass(
        aug,
        collector=aug.y1,
        red_target=aug.t2p,
        gate=aug.t1p,
        n_green=d.total,
        n_red=d.h0 + d.h2,
        n_routes=d.h1,
    )
    residual_base = remove_edges(aug.base, real_route_edges(pass1))
    aug2 = build_augmented(residual_base, Demand(d.h0, 0, d.h2))
    pass2 = single_pass(
        aug2,
        collector=aug2.y2,
        red_target=aug2.t1p,
        gate=aug2.t2p,
        n_green=d.h0 + d.h2,
        n_red=d.h0,
        n_routes=d.h2,
    )
    return SymmetricPassResult(pass1=pass1, pass2=pass2)
