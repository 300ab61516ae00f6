"""Guaranteed-capture pursuit planning on sensor-instrumented road networks.

Given a directed acyclic road network whose nodes carry passage sensors, a
constant-speed evader heading from the entry to some exit, and a faster
pursuer that learns of passages only by visiting sensors, this package
computes the maximum initial delay at the entry for which capture is
guaranteed, together with the pursuit policy that achieves it, and verifies
both by closed-loop simulation and an independent exhaustive oracle.
"""

from .analysis import SpeedSweep, SweepRow, critical_speed, sweep
from .errors import (
    BracketInvalid,
    CapExceeded,
    CycleDetected,
    EntryIsGoal,
    GoalMismatch,
    InconsistentObservation,
    MetricError,
    NetworkError,
    NonPositiveEdgeTime,
    NonTermination,
    NonZeroDiagonal,
    OrphanUgs,
    PolicyHole,
    PursuitError,
    SimulationError,
    SpeedAdvantageViolated,
    TriangleViolation,
    UnreachableNode,
)
from .fixtures import demo_bundle, demo_raw, random_instance, random_layered_network, speed_floor
from .information import (
    FamilyEvent,
    RealizableFamily,
    move_children,
    observe,
    realizable_sets,
    red_reports,
    update_red,
)
from .network import (
    EvaderPath,
    PursuerMetric,
    RoadNetwork,
    VisitSchedule,
    build_schedule,
    enumerate_paths,
    euclidean_metric,
    indices_of,
    mask_from,
    table_metric,
    validate_metric,
    validate_network,
)
from .simulator import (
    GuaranteeReport,
    SimOutcome,
    TranscriptRow,
    guarantee_exists,
    oracle_max_delay,
    simulate,
    verify_guarantee,
)
from .solver import SolveResult, base_case, full_lattice, solve
from .tree_export import TreeNode, build_tree, tree_dumps, tree_to_dot
from .util import TIME_EPS

__version__ = "0.1.0"
