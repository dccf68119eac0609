"""End-to-end synthesis: feasibility decision, route extraction, residual coding.

A feasible demand (h0, h1, h2) is served by h1 plain routes to T1, h2 plain
routes to T2, and a rate-h0 linear multicast code on whatever the routes left
behind. verify_plan independently checks a produced plan exactly: its routes,
its coding vectors and both decode matrices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .augment import build_augmented
from .errors import InfeasibleDemandError, InputError, InvariantError, PlanMismatchError
from .flow import EdgePath, check_path, min_cut_value
from .nccode import (
    MulticastCode,
    apply_code,
    build_multicast_code,
    coding_vectors,
    decode_symbols,
)
from .netgraph import Demand, EdgeId, Network, remove_edges
from .recolor import SymmetricPassResult, symmetric_pass

INEQ_NAMES = ("ineq1", "ineq2", "ineq3")


@dataclass(frozen=True)
class CutViolation:
    name: str
    required: int
    actual: int

    @property
    def shortfall(self) -> int:
        return self.required - self.actual


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    cuts: tuple[int, int, int]  # min-cuts to T1, T2, and the terminal pair
    required: tuple[int, int, int]
    violated: tuple[CutViolation, ...]

    def describe(self) -> str:
        cuts = ",".join(map(str, self.cuts))
        req = ",".join(map(str, self.required))
        if self.feasible:
            return f"feasible (cuts {cuts} >= {req})"
        parts = ", ".join(
            f"{v.name} needs {v.required}, has {v.actual}" for v in self.violated
        )
        return f"infeasible ({parts})"


def check_feasibility(net: Network, d: Demand) -> FeasibilityReport:
    """Compare the three min-cuts against the rates they must support."""
    t1, t2 = net.terminals
    s = net.source
    cuts = (
        min_cut_value(net, s, {t1}),
        min_cut_value(net, s, {t2}),
        min_cut_value(net, s, {t1, t2}),
    )
    required = (d.h0 + d.h1, d.h0 + d.h2, d.total)
    violated = tuple(
        CutViolation(name, req, cut)
        for name, req, cut in zip(INEQ_NAMES, required, cuts)
        if cut < req
    )
    return FeasibilityReport(
        feasible=not violated, cuts=cuts, required=required, violated=violated
    )


@dataclass(frozen=True)
class TransferPlan:
    """A complete transmission scheme over the original network's edge ids."""

    demand: Demand
    seed: int
    x1_routes: tuple[EdgePath, ...]
    x2_routes: tuple[EdgePath, ...]
    multicast: MulticastCode

    def route_edges(self) -> set[EdgeId]:
        return {eid for p in (*self.x1_routes, *self.x2_routes) for eid in p.edges}


def _project_routes(result, virtual_ids) -> tuple[EdgePath, ...]:
    return tuple(
        EdgePath(tuple(eid for eid in p.edges if eid not in virtual_ids))
        for p in result.routes
    )


def synthesize(net: Network, d: Demand, seed: int, *, field_bits: int = 8) -> TransferPlan:
    """Build a verified transfer plan, or raise if the demand is infeasible.

    The pipeline: augment, extract h1 then h2 interference-free routes by
    recoloring, remove them, and put a random linear multicast code of rate h0
    on the residual. All randomness comes from seed, so identical inputs give
    identical plans.
    """
    return synthesize_with_diagnostics(net, d, seed, field_bits=field_bits)[0]


def synthesize_with_diagnostics(
    net: Network, d: Demand, seed: int, *, field_bits: int = 8
) -> tuple[TransferPlan, SymmetricPassResult]:
    """synthesize, but also return the recoloring pass results for auditing."""
    report = check_feasibility(net, d)
    if not report.feasible:
        raise InfeasibleDemandError(report)

    aug = build_augmented(net, d)
    passes = symmetric_pass(aug, d)
    x1_routes = _project_routes(passes.pass1, passes.pass1.aug.virtual_edge_ids)
    x2_routes = _project_routes(passes.pass2, passes.pass2.aug.virtual_edge_ids)

    used = {eid for p in (*x1_routes, *x2_routes) for eid in p.edges}
    residual = remove_edges(net, used)
    rng = random.Random(seed)
    code = build_multicast_code(residual, d.h0, rng=rng, field_bits=field_bits)
    plan = TransferPlan(
        demand=d, seed=seed, x1_routes=x1_routes, x2_routes=x2_routes, multicast=code
    )
    try:
        _check_plan_structure(net, plan)
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


def _check_plan_structure(net: Network, plan: TransferPlan) -> None:
    t1, t2 = net.terminals
    known = {e.eid for e in net.edges}
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
    if all_route_edges - known:
        raise PlanMismatchError("route references an unknown edge")
    support = set(code.support)
    if support - known:
        raise PlanMismatchError("coded edge is not in the network")
    if support & all_route_edges:
        raise PlanMismatchError("coded support overlaps a route")
    if code.h0 != plan.demand.h0:
        raise PlanMismatchError("code rate != demand")
    if code.h0:
        seen_coded: set[EdgeId] = set()
        for eid in code.support:
            e = net.edge(eid)
            keys = code.local_coeffs.get(eid)
            if keys is None:
                raise PlanMismatchError(f"coded edge {eid} has no local coefficients")
            for kind, ref in keys:
                if kind == "msg":
                    if e.tail != net.source or not 0 <= ref < code.h0:
                        raise PlanMismatchError(f"bad message input on edge {eid}")
                elif kind == "edge":
                    if ref not in seen_coded or net.edge(ref).head != e.tail:
                        raise PlanMismatchError(f"bad edge input {ref} on edge {eid}")
                else:
                    raise PlanMismatchError(f"unknown input kind {kind!r}")
            seen_coded.add(eid)
        for inputs, term in ((code.inputs_t1, t1), (code.inputs_t2, t2)):
            if len(inputs) != code.h0:
                raise PlanMismatchError("decode input count != rate")
            for eid in inputs:
                if eid not in support or net.edge(eid).head != term:
                    raise PlanMismatchError(f"decode input {eid} does not enter {term!r}")
        for matrix in (code.decode_t1, code.decode_t2):
            if len(matrix) != code.h0 or any(len(row) != code.h0 for row in matrix):
                raise PlanMismatchError("decode matrix has wrong shape")


def _check_coding_vectors(code: MulticastCode) -> None:
    """Each stored global vector must be what the local coefficients compute."""
    vectors = coding_vectors(code.field, code.support, code.local_coeffs, code.h0)
    for eid in code.support:
        if vectors[eid] != code.global_vectors.get(eid):
            raise PlanMismatchError(
                f"coding vector of edge {eid} does not match its local coefficients"
            )


def _check_decoders(code: MulticastCode) -> None:
    """Each decode matrix must invert its terminal's transfer matrix: applied
    to the j-th column of the global vectors it must give back e_j."""
    for j in range(code.h0):
        unit = [int(i == j) for i in range(code.h0)]
        column = {eid: vec[j] for eid, vec in code.global_vectors.items()}
        for terminal in (1, 2):
            if decode_symbols(code, terminal, column) != unit:
                raise PlanMismatchError(
                    f"decode matrix of T{terminal} does not invert its transfer matrix"
                )


def verify_plan(
    net: Network, plan: TransferPlan, trials: int = 100, seed: int = 0
) -> VerificationReport:
    """Check a plan exactly and simulate random message tuples through it.

    Routing edges copy their path's symbol; coded edges apply the plan's local
    coefficients. T1 must recover (x0, x1) and T2 (x0, x2) exactly on every
    trial. Structural problems raise PlanMismatchError instead of failing
    trials. When no trial fails, the global vectors and decode matrices are
    checked exactly, and a mismatch raises PlanMismatchError. Routes copy
    symbols and coding and decoding are linear, so a plan that passes
    delivers every message tuple; the trials are a smoke test on top.
    """
    if trials < 0:
        raise InputError(f"trials must be nonnegative, got {trials}")
    _check_plan_structure(net, plan)
    field = plan.multicast.field
    rng = random.Random(seed)
    d = plan.demand
    failures: list[TrialFailure] = []
    for trial in range(trials):
        x0 = [rng.randrange(field.size) for _ in range(d.h0)]
        x1 = [rng.randrange(field.size) for _ in range(d.h1)]
        x2 = [rng.randrange(field.size) for _ in range(d.h2)]

        symbols: dict[EdgeId, int] = {}
        for r, p in enumerate(plan.x1_routes):
            for eid in p.edges:
                symbols[eid] = x1[r]
        for r, p in enumerate(plan.x2_routes):
            for eid in p.edges:
                symbols[eid] = x2[r]
        symbols.update(apply_code(plan.multicast, x0, net))

        for terminal, label, want_private, routes in (
            (1, "T1", x1, plan.x1_routes),
            (2, "T2", x2, plan.x2_routes),
        ):
            if d.h0:
                got = decode_symbols(plan.multicast, terminal, symbols)
                if got != x0:
                    failures.append(
                        TrialFailure(trial, label, f"decoded {got}, expected {x0}")
                    )
            for r, p in enumerate(routes):
                if symbols[p.edges[-1]] != want_private[r]:
                    failures.append(
                        TrialFailure(trial, label, f"route {r} delivered a wrong symbol")
                    )
    if not failures:
        _check_coding_vectors(plan.multicast)
        _check_decoders(plan.multicast)
    return VerificationReport(trials=trials, failures=tuple(failures))
