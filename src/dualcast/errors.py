"""Exception hierarchy shared across the package."""


class DualcastError(Exception):
    """Base class for all errors raised by this package."""


class InputError(DualcastError, ValueError):
    """Rejected user input: bad capacities, labels, malformed files."""


class UnknownNodeError(DualcastError, LookupError):
    pass


class UnknownEdgeError(DualcastError, LookupError):
    pass


class InvariantError(DualcastError):
    """Internal data inconsistency (a bug, not bad input)."""


class NonterminationError(DualcastError):
    """Recoloring exceeded its iteration budget."""


class TheoremViolationError(DualcastError):
    """The recoloring fixpoint lacks the guaranteed interference-free routes."""


class InfeasibleDemandError(DualcastError):
    """Synthesis requested for a demand that fails the cut conditions."""

    def __init__(self, report):
        self.report = report
        super().__init__(f"demand is infeasible {report.describe()}")


class CyclicSupportError(DualcastError):
    """Coding paths to T1 and T2 share edges in opposite orders; names the cycle."""


class PlanMismatchError(DualcastError):
    """A transfer plan does not structurally match the network it is checked against."""
