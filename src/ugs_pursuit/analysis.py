"""Parameter studies over pursuer speed: sweeps and the critical-speed
threshold below which no positive entry delay can be tolerated.

The solved values at distinct speeds are independent; rows are produced in
grid order. Which nodes a set reaches, its green part and its red reports do
not depend on the speed, so under the strict convention each ``sweep`` or
``critical_speed`` call keeps one ``MoveTable`` for its schedule and passes
it to every solve it makes: each set's moves are built once per study. The
table is dropped when the call returns. Under the membership convention
each solve builds its own moves (see ``_study_moves``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BracketInvalid, MetricError
from .network import euclidean_metric
from .solver import MoveTable, solve
from .util import TIME_EPS, bisect_bracket, check_bracket


@dataclass(frozen=True)
class SweepRow:
    speed: float
    latest: float | None
    delay: float | None
    move: int | None
    valid: bool


@dataclass(frozen=True)
class SpeedSweep:
    rows: tuple[SweepRow, ...]

    def to_csv(self) -> str:
        lines = ["V,D,delay,mu"]
        for row in self.rows:
            if not row.valid:
                lines.append(f"{row.speed:.10g},,,")
                continue
            lines.append(f"{row.speed:.10g},{row.latest:.10g},{row.delay:.10g},{row.move}")
        return "\n".join(lines) + "\n"


def _study_moves(schedule, strict_resolution):
    """The move table a study's solves share, or None: strict convention
    only. The table holds every set any solve of the study computed. Under
    the membership convention that union is large: a 10-point sweep of
    ``random_layered_network(7, widths=[1,4,4,4,4,3])`` reads 39,866 sets
    (1,091 strict), whose table raised peak memory from 119 to 212 MB for
    no time saved."""
    return MoveTable(schedule, True) if strict_resolution else None


def _solve_at(network, schedule, paths, speed, strict_resolution, moves):
    metric = euclidean_metric(network, speed)
    return solve(network, schedule, metric, paths, strict_resolution=strict_resolution,
                 moves=moves)


def sweep(network, schedule, paths, grid, strict_resolution: bool = False) -> SpeedSweep:
    """One solve per speed in the (ascending) grid. Speeds that violate the
    pursuer-faster-than-evader requirement yield rows flagged invalid."""
    rows = []
    moves = _study_moves(schedule, strict_resolution)
    for speed in grid:
        try:
            result = _solve_at(network, schedule, paths, speed, strict_resolution, moves)
        except MetricError:
            rows.append(SweepRow(speed=speed, latest=None, delay=None, move=None, valid=False))
            continue
        rows.append(
            SweepRow(
                speed=speed,
                latest=result.root_latest,
                delay=result.tolerable_delay,
                move=result.root_policy,
                valid=True,
            )
        )
    return SpeedSweep(rows=tuple(rows))


def critical_speed(network, schedule, paths, v_lo: float, v_hi: float,
                   tol: float = 1e-4, strict_resolution: bool = False) -> float:
    """Infimum pursuer speed admitting a positive tolerable delay, by
    bisection of the sign predicate.

    The solved delay can jump when the optimal policy restructures, so the
    bisection tracks only whether it is positive. Requires the predicate to
    be false at ``v_lo`` (zero delay, or an invalid metric) and true at
    ``v_hi``; raises BracketInvalid otherwise. Raises PursuitError, before
    any solve, unless ``tol > 0`` and both ends are finite.
    """
    check_bracket(v_lo, v_hi, tol)
    moves = _study_moves(schedule, strict_resolution)

    def positive(speed: float) -> bool:
        try:
            result = _solve_at(network, schedule, paths, speed, strict_resolution, moves)
        except MetricError:
            return False
        return result.root_latest > TIME_EPS

    if positive(v_lo):
        raise BracketInvalid(f"delay already positive at the lower speed {v_lo}")
    if not positive(v_hi):
        raise BracketInvalid(f"delay not positive at the upper speed {v_hi}")
    return bisect_bracket(positive, v_lo, v_hi, tol)[1]
