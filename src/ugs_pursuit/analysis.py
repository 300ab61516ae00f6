"""Parameter studies over pursuer speed: sweeps and the critical-speed
threshold below which no positive entry delay can be tolerated.

Solves at distinct speeds are independent; rows are produced in grid order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BracketInvalid, MetricError
from .network import euclidean_metric
from .solver import solve
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


def _solve_at(network, schedule, paths, speed, strict_resolution):
    metric = euclidean_metric(network, speed)
    return solve(network, schedule, metric, paths, strict_resolution=strict_resolution)


def sweep(network, schedule, paths, grid, strict_resolution: bool = False) -> SpeedSweep:
    """One solve per speed in the (ascending) grid. Speeds that violate the
    pursuer-faster-than-evader requirement yield rows flagged invalid."""
    rows = []
    for speed in grid:
        try:
            result = _solve_at(network, schedule, paths, speed, strict_resolution)
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

    def positive(speed: float) -> bool:
        try:
            result = _solve_at(network, schedule, paths, speed, strict_resolution)
        except MetricError:
            return False
        return result.root_latest > TIME_EPS

    if positive(v_lo):
        raise BracketInvalid(f"delay already positive at the lower speed {v_lo}")
    if not positive(v_hi):
        raise BracketInvalid(f"delay not positive at the upper speed {v_hi}")
    return bisect_bracket(positive, v_lo, v_hi, tol)[1]
