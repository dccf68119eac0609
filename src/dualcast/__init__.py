"""Capacity checking and hybrid routing + network-coding synthesis for
unit-capacity networks with one source and two terminals whose demanded
message sets overlap."""

from .errors import (
    CyclicSupportError,
    DualcastError,
    InfeasibleDemandError,
    InputError,
    InvariantError,
    NonterminationError,
    PlanMismatchError,
    TheoremViolationError,
    UnknownEdgeError,
    UnknownNodeError,
)
from .netgraph import Demand, Edge, Network
from .planner import (
    FeasibilityReport,
    TransferPlan,
    VerificationReport,
    check_feasibility,
    synthesize,
    verify_plan,
)

__all__ = [
    "CyclicSupportError",
    "Demand",
    "DualcastError",
    "Edge",
    "FeasibilityReport",
    "InfeasibleDemandError",
    "InputError",
    "InvariantError",
    "Network",
    "NonterminationError",
    "PlanMismatchError",
    "TheoremViolationError",
    "TransferPlan",
    "UnknownEdgeError",
    "UnknownNodeError",
    "VerificationReport",
    "check_feasibility",
    "synthesize",
    "verify_plan",
]
