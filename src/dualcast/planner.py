"""End-to-end synthesis: feasibility decision, route extraction, coding on paths.

A feasible demand (h0, h1, h2) is served by h1 plain routes to T1, h2 plain
routes to T2, and a rate-h0 linear multicast code on h0 paths to each
terminal that the second recoloring pass leaves off the routes.
check_feasibility compares the three min-cuts with the demand; a Network
computes them once, by runs to T1, to T2 (its cached Dinic run to T2) and,
unless the first two settle it, to the pair, all from one breadth-first
search. Synthesis does not run the check up front: the first
recoloring pass's two flows decide feasibility, and the cuts are read only
to report a demand those flows refuse. T2' is entered only from T2, so the
flow to T2' is the network's run to T2, made once per network, with each
path continued into T2'; the flow to Y1 is the one search of each
synthesis: the second pass starts from the first pass's coloring on the
same augmented graph. Pass 1's paths come from those runs' records
(flow._recorded_paths).
check_plan is the one semantic check of a plan, run by verification and
the DOT export. It walks each route once and hands a route to check_path,
which names its first fault, only when the walk finds one. verify_plan then
proves the checked plan delivers over GF(2), which proves it in every
GF(2^m): it evaluates the code once, on the unit messages 1 << j, and XORs
the decode rows. Synthesis runs that proof, verify_plan with no trials, on
every plan before returning it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from operator import or_, xor

from .errors import (
    InfeasibleDemandError,
    InputError,
    InvariantError,
    PlanMismatchError,
    TheoremViolationError,
)
from .flow import EdgePath, check_path
from .nccode import MulticastCode, apply_code, build_multicast_code, check_field_bits
from .netgraph import Demand, EdgeId, Network, NodeId
# Unused here; perfbench/tracer.py wraps planner.build_augmented and planner.remove_edges.
from .augment import build_augmented  # noqa: F401
from .netgraph import remove_edges  # noqa: F401
from .recolor import SymmetricPassResult, symmetric_pass

INEQ_NAMES = ("ineq1", "ineq2", "ineq3")


@dataclass(frozen=True)
class CutViolation:
    name: str
    required: int
    actual: int


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    cuts: tuple[int, int, int]  # min-cuts to T1, T2, and the terminal pair
    required: tuple[int, int, int]
    violated: tuple[CutViolation, ...]

    def describe(self) -> str:
        """The verdict's detail, in parentheses: the cuts, or the violated inequalities."""
        cuts = ",".join(map(str, self.cuts))
        req = ",".join(map(str, self.required))
        if self.feasible:
            return f"(cuts {cuts} >= {req})"
        parts = ", ".join(
            f"{v.name} needs {v.required}, has {v.actual}" for v in self.violated
        )
        return f"({parts})"


def check_feasibility(net: Network, d: Demand) -> FeasibilityReport:
    """Compare the three min-cuts against the rates they must support.

    The cuts do not depend on the demand: the first check on a Network
    computes them and caches them on it, so later checks only compare.
    """
    cuts = net._terminal_cuts
    required = (d.h0 + d.h1, d.h0 + d.h2, d.total)
    violated = tuple(
        CutViolation(name, req, cut)
        for name, req, cut in zip(INEQ_NAMES, required, cuts)
        if cut < req
    )
    return FeasibilityReport(
        feasible=not violated, cuts=cuts, required=required, violated=violated
    )


def check_demand_size(net: Network, d: Demand) -> None:
    """Refuse a demand past a terminal's in-degree, so no virtual bundle outgrows |E|.

    The in-degrees are counted on the network's cached residual adjacency,
    as terminal_cuts counts its flow bounds.
    """
    graph = net._residual_arcs
    deg1, deg2 = (graph.degrees(graph.index[t])[1] for t in net.terminals)
    if d.h0 + d.h1 > deg1 or d.h0 + d.h2 > deg2:
        raise InfeasibleDemandError(check_feasibility(net, d))


@dataclass(frozen=True)
class TransferPlan:
    """A complete transmission scheme over the original network's edge ids."""

    demand: Demand
    seed: int
    x1_routes: tuple[EdgePath, ...]
    x2_routes: tuple[EdgePath, ...]
    multicast: MulticastCode


def synthesize(net: Network, d: Demand, seed: int, *, field_bits: int = 8) -> TransferPlan:
    """Build a verified transfer plan, or raise if the demand is infeasible.

    The pipeline: augment once, extract h1 then h2 interference-free routes
    by recoloring, and put a deterministic binary multicast code of rate h0,
    on symbols of field_bits bits, on the h0 paths to each terminal the second
    pass holds besides its routes. The second pass starts from the first
    pass's final coloring, so the first pass's two max-flows are the only
    ones a feasible synthesis needs, and only the one to Y1 searches: the
    one to T2' is net's run to T2, which net computes once, continued into
    T2', and flow._recorded_paths turns each run's record into paths. seed
    is only recorded in the plan: no coded value depends on it, and
    identical inputs give identical plans.

    The plan is proven before it is returned, by the proof `verify --trials 0`
    runs (verify_plan with no trials); a plan that fails it is a bug, raised
    as InvariantError.

    Feasibility is certified by the first recoloring pass, not checked
    beforehand. On the augmented graph Y1's only in-edges are the h0+h1 edges
    from T1' (which only T1 feeds) and the h2 edges from T2', so a flow of
    h0+h1+h2 into Y1 proves the cut conditions to T1 and to the terminal
    pair, and a flow of h0+h2 into T2' proves the one to T2; when all three
    hold, both flows reach those values. Either flow falling short raises
    InfeasibleDemandError with the check_feasibility report. A demand larger
    than a terminal's in-degree is refused the same way before augmenting,
    so no virtual bundle is larger than the network.

    On a cyclic network pass 2's paths to T1 and to T2 can share edges in
    opposite orders; the feasible demand is then refused (CyclicSupportError).

    A seed or field_bits that is not an int (a bool is not one), or field_bits
    outside 1..16, raises InputError before anything is built: the plan file
    records both, and its loader reads back only ints.

    Because the augmentation comes first, a network built directly (not by
    the CLI loader, which rejects such labels) with a node label starting
    with '__' raises InputError from build_augmented, even when the demand
    is also infeasible.
    """
    return synthesize_with_diagnostics(net, d, seed, field_bits=field_bits)[0]


def synthesize_with_diagnostics(
    net: Network, d: Demand, seed: int, *, field_bits: int = 8
) -> tuple[TransferPlan, SymmetricPassResult]:
    """synthesize, but also return the recoloring pass results for auditing."""
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise InputError(f"seed must be an integer, got {seed!r}")
    check_field_bits(field_bits)
    check_demand_size(net, d)
    try:
        passes = symmetric_pass(net, d)
    except TheoremViolationError:
        # On an infeasible demand a pass-1 flow falls short before anything else.
        report = check_feasibility(net, d)
        if not report.feasible:
            raise InfeasibleDemandError(report) from None
        raise
    code = build_multicast_code(*passes.coded_paths, field_bits=field_bits)
    x1, x2 = passes.pass1.routes, passes.pass2.routes
    plan = TransferPlan(demand=d, seed=seed, x1_routes=x1, x2_routes=x2, multicast=code)
    try:
        verify_plan(net, plan, trials=0)
    except PlanMismatchError as exc:
        raise InvariantError(f"synthesized plan is malformed: {exc}") from exc
    return plan, passes


@dataclass(frozen=True)
class TrialFailure:
    trial: int
    terminal: str
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    trials: int
    failures: tuple[TrialFailure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def check_plan(net: Network, plan: TransferPlan) -> None:
    """Raise PlanMismatchError unless the plan fits net; the one semantic plan check.

    Routes: the demanded number of source paths to each terminal, disjoint
    from each other and from the code (a route edge not in net raises
    UnknownEdgeError). Support: distinct network edges, each after the coded
    edges feeding it, with local inputs for exactly those edges, listed in
    increasing order without repeats. Each terminal decodes h0 coded edges
    entering it with h0 rows, each listing positions below h0 in increasing
    order without repeats: the order dump_plan writes, so a plan has one text.

    Each route is walked once, one edge lookup per edge, and is disjoint
    from the routes before it when adding its edges grows their set by its
    length. Only a route that fails this walk goes to check_path, which names
    its first fault; a failing route that check_path accepts shares an edge.
    """
    t1, t2 = net.terminals
    src = net.source
    edge_at = net._edge_index
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
                edges = p.edges
                n_before = len(all_route_edges)
                all_route_edges.update(edges)
                at = src
                for eid in edges:
                    e = edge_at.get(eid)  # (eid, tail, head)
                    if e is None or e[1] != at:
                        break
                    at = e[2]
                else:
                    if at == sink and len(all_route_edges) == n_before + len(edges):
                        continue
                check_path(net, p, src, sink)
                raise PlanMismatchError("routes share an edge")
    except InvariantError as exc:
        raise PlanMismatchError(str(exc)) from exc
    try:
        coded = [edge_at[eid] for eid in code.support]
    except KeyError as exc:
        raise PlanMismatchError(f"coded edge {exc.args[0]} is not in the network") from None
    if not all_route_edges.isdisjoint(code.support):
        shared = min(all_route_edges.intersection(code.support))
        raise PlanMismatchError(f"coded support overlaps a route at edge {shared}")
    h0 = code.h0
    if h0 != plan.demand.h0:
        raise PlanMismatchError("code rate != demand")
    local_inputs = code.local_inputs
    head_of: dict[EdgeId, NodeId] = {}  # the coded edges checked so far
    for eid, tail, head in coded:
        if eid in head_of:
            raise PlanMismatchError(f"coded edge {eid} is listed twice in the support")
        keys = local_inputs.get(eid)
        if keys is None:
            raise PlanMismatchError(f"coded edge {eid} has no local inputs")
        from_source = tail == src
        prev: tuple = ("",)  # below every input
        for key in keys:
            kind, ref = key
            if kind == "msg":
                if not from_source or not 0 <= ref < h0:
                    raise PlanMismatchError(f"bad message input on edge {eid}")
            elif kind == "edge":
                if head_of.get(ref) != tail:
                    raise PlanMismatchError(f"bad edge input {ref} on edge {eid}")
            else:
                raise PlanMismatchError(f"unknown input kind {kind!r}")
            if key <= prev:
                raise PlanMismatchError(
                    f"local inputs of edge {eid} are not in increasing order without repeats"
                )
            prev = key
        head_of[eid] = head
    if extra := local_inputs.keys() - head_of:
        raise PlanMismatchError(f"support and local_inputs disagree on edge {min(extra)}")
    for inputs, term in ((code.inputs_t1, t1), (code.inputs_t2, t2)):
        if len(inputs) != h0:
            raise PlanMismatchError(f"decode input count of {term!r} != rate")
        for eid in inputs:
            if head_of.get(eid) != term:
                raise PlanMismatchError(f"decode input {eid} does not enter {term!r}")
    for rows, label in ((code.decode_t1, "T1"), (code.decode_t2, "T2")):
        if len(rows) != h0:
            raise PlanMismatchError(f"decode row count of {label} != rate")
        for i, row in enumerate(rows):
            last = -1
            for k in row:
                if not last < k < h0:
                    fault = (
                        "is not in increasing order without repeats"
                        if 0 <= k < h0
                        else f"names a position outside 0..{h0 - 1}"
                    )
                    raise PlanMismatchError(f"decode row {i} of {label} {fault}")
                last = k


def verify_plan(
    net: Network, plan: TransferPlan, trials: int = 100, seed: int = 0
) -> VerificationReport:
    """Prove that a plan delivers, and report random message tuples it gets wrong.

    The plan is first checked by check_plan, whose PlanMismatchError is
    raised rather than reported as failed trials. Routes copy their symbol,
    and coding and decoding are XORs, so terminal t decodes the shared
    messages x0 to M_t·x0 over GF(2), where column j of M_t is the code run
    on the unit message e_j and decoded at t. The code runs once, whatever
    trials is, on the unit messages 1 << j: an edge's symbol is then its
    global vector, and XORing the symbols a decode row lists gives that row
    of M_t as an h0-bit int. M_t is the identity exactly when row i is 1 << i
    for every i; an identity over GF(2) holds in every GF(2^m), so then no
    trial can fail and none is drawn. Otherwise a trial fails at Tt when
    M_t·x0 != x0 for its random x0 of m-bit symbols; when no trial fails,
    PlanMismatchError names the first terminal, by column, whose M_t is not
    the identity. A plan that passes delivers every message tuple. trials
    that is not an int (a bool is not one) or is negative raises InputError.
    """
    if type(trials) is not int or trials < 0:
        raise InputError(f"trials must be a nonnegative integer, got {trials!r}")
    check_plan(net, plan)
    code = plan.multicast
    d = plan.demand
    units = [1 << j for j in range(d.h0)]
    symbols = apply_code(code, units)
    transfer: dict[str, list[int]] = {}  # label: the rows of M_t, as h0-bit ints
    for label, inputs, rows in (
        ("T1", code.inputs_t1, code.decode_t1),
        ("T2", code.inputs_t2, code.decode_t2),
    ):
        received = [symbols[eid] for eid in inputs]
        transfer[label] = m_t = []
        for row in rows:
            acc = 0
            for k in row:
                acc ^= received[k]
            m_t.append(acc)
    if all(rows == units for rows in transfer.values()):
        return VerificationReport(trials=trials, failures=())
    failures: list[TrialFailure] = []
    rng = random.Random(seed)
    size = 1 << code.field_bits
    for trial in range(trials):
        x0 = [rng.randrange(size) for _ in range(d.h0)]
        for _ in range(d.h1 + d.h2):  # x1 and x2, drawn as a full simulation would
            rng.randrange(size)
        for label, rows in transfer.items():
            got = [reduce(xor, [x for j, x in enumerate(x0) if row >> j & 1], 0) for row in rows]
            if got != x0:
                failures.append(TrialFailure(trial, label, f"decoded {got}, expected {x0}"))
    if not failures:
        # Bit j of wrong[t] is set where column j of M_t is not e_j; the
        # lowest set bit, compared as a power of two, is the first such column.
        wrong = {
            label: reduce(or_, [row ^ 1 << i for i, row in enumerate(rows)], 0)
            for label, rows in transfer.items()
        }
        _, label = min((w & -w, label) for label, w in wrong.items() if w)
        raise PlanMismatchError(f"decode matrix of {label} does not invert its transfer matrix")
    return VerificationReport(trials=trials, failures=tuple(failures))
