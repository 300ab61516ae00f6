"""Exception hierarchy for network validation, solving and simulation."""


class PursuitError(Exception):
    """Base class for all errors raised by this package."""


class NetworkError(PursuitError):
    """Invalid road-network description."""


class CycleDetected(NetworkError):
    pass


class EntryIsGoal(NetworkError):
    pass


class UnreachableNode(NetworkError):
    """A node lies on no entry-to-goal path."""


class NonPositiveEdgeTime(NetworkError):
    pass


class GoalMismatch(NetworkError):
    """Declared goal set disagrees with the childless nodes."""


class OrphanUgs(NetworkError):
    """A sensor node appears on no evader path."""


class MetricError(PursuitError):
    """Invalid pursuer travel-time table."""

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class TriangleViolation(MetricError):
    pass


class NonZeroDiagonal(MetricError):
    pass


class SpeedAdvantageViolated(MetricError):
    pass


class InconsistentObservation(PursuitError):
    """A sensor reading contradicts the current uncertainty set."""


class SimulationError(PursuitError):
    pass


class PolicyHole(SimulationError):
    """The policy table has no entry for a reached (node, uncertainty set) pair."""


class NonTermination(SimulationError):
    """Simulation exceeded its decision-epoch budget."""


class CapExceeded(PursuitError):
    """Instance too large for the exhaustive oracle."""


class BracketInvalid(PursuitError):
    """Bisection endpoints do not straddle the predicate."""
