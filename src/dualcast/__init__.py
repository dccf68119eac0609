"""Capacity checking and hybrid routing + network-coding synthesis for
unit-capacity networks with one source and two terminals whose demanded
message sets overlap."""

from .augment import AugmentedNetwork, build_augmented
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
from .flow import EdgePath, FlowResult, decompose_paths, max_flow
from .nccode import GF, MulticastCode, apply_code, build_multicast_code, get_field
from .netgraph import (
    Demand,
    Edge,
    Network,
    expand_capacities,
    remove_edges,
)
from .planner import (
    FeasibilityReport,
    TransferPlan,
    VerificationReport,
    check_feasibility,
    synthesize,
    verify_plan,
)
from .recolor import (
    ColoringState,
    ReroutingTrace,
    extract_exclusive_green,
    run_to_fixpoint,
    symmetric_pass,
)

__all__ = [
    "AugmentedNetwork",
    "ColoringState",
    "CyclicSupportError",
    "Demand",
    "DualcastError",
    "Edge",
    "EdgePath",
    "FeasibilityReport",
    "FlowResult",
    "GF",
    "InfeasibleDemandError",
    "InputError",
    "InvariantError",
    "MulticastCode",
    "Network",
    "NonterminationError",
    "PlanMismatchError",
    "ReroutingTrace",
    "TheoremViolationError",
    "TransferPlan",
    "UnknownEdgeError",
    "UnknownNodeError",
    "VerificationReport",
    "apply_code",
    "build_augmented",
    "build_multicast_code",
    "check_feasibility",
    "decompose_paths",
    "expand_capacities",
    "extract_exclusive_green",
    "get_field",
    "max_flow",
    "remove_edges",
    "run_to_fixpoint",
    "symmetric_pass",
    "synthesize",
    "verify_plan",
]
