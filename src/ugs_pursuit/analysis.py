"""Parameter studies over pursuer speed: sweeps and the critical-speed
threshold below which no positive entry delay can be tolerated.

The solved values at distinct speeds are independent; rows are produced in
grid order. Which nodes a set reaches, its green part and its red reports do
not depend on the speed, so each ``sweep`` or ``critical_speed`` call keeps
one ``MoveTable`` for its schedule and convention and passes it to every
solve it makes: each set's moves are built once per study. The table leaves
out the splits no speed admits, those with a green path that exits before
the last red report. It is dropped when the call returns.

``critical_speed`` bisects the sign of the solved root but solves only a
handful of speeds: it predicts each midpoint from the line in 1 / speed
through the nearest solved roots and confirms the final bracket's ends with
solves. The answer equals plain bisection's whenever the sign is monotone in
speed; when a confirmation fails, plain bisection reruns on the solved
speeds.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .errors import BracketInvalid, MetricError
from .network import euclidean_admissible, euclidean_metric
from .solver import MoveTable, solve
from .util import TIME_EPS, bisect_predicted, check_bracket


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


def _solve_at(network, schedule, paths, speed, moves):
    """Solve at ``speed`` under the convention of the study's move table."""
    metric = euclidean_metric(network, speed)
    return solve(network, schedule, metric, paths, strict_resolution=moves.strict, moves=moves)


def sweep(network, schedule, paths, grid, strict_resolution: bool = False) -> SpeedSweep:
    """One solve per speed in the (ascending) grid. Speeds that violate the
    pursuer-faster-than-evader requirement yield rows flagged invalid. A
    network without coordinates has no valid speed: MetricError, before
    any solve."""
    network.distances  # raises MetricError when a node has no coordinates
    rows = []
    moves = MoveTable(schedule, strict_resolution)
    for speed in grid:
        try:
            result = _solve_at(network, schedule, paths, speed, moves)
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
    any solve, unless ``tol > 0`` and both ends are finite, and MetricError
    when a node of the network has no coordinates.

    Most midpoints are predicted, not solved (``bisect_predicted``). A speed
    whose metric is not valid (``euclidean_admissible``, a test over the
    network's edges) is false with no solve, an end of the bracket too.
    Otherwise a midpoint's sign is read from the line in w = 1 / speed
    through the two nearest solved roots, interpolated between them or
    extrapolated when one side has none: euclidean travel times are distance
    times w, so the root is piecewise linear in w. With fewer than two roots
    solved, the midpoint is solved. The ends of the final bracket that were
    only predicted are then solved. If the predicate is monotone in speed,
    they confirm every prediction and the answer is plain bisection's bit
    for bit. If one does not (the root jumped across a predicted midpoint),
    plain bisection reruns over the memo of solved speeds, so no speed is
    solved twice.
    """
    check_bracket(v_lo, v_hi, tol)
    network.distances  # raises MetricError when a node has no coordinates
    moves = MoveTable(schedule, strict_resolution)
    roots = {}  # speed -> solved root, None where the metric is invalid

    def positive(speed: float) -> bool:
        if speed not in roots:
            roots[speed] = (_solve_at(network, schedule, paths, speed, moves).root_latest
                            if euclidean_admissible(network, speed) else None)
        root = roots[speed]
        return root is not None and root > TIME_EPS

    def predicted(speed: float) -> bool:
        solved = sorted((s, root) for s, root in roots.items() if root is not None)
        if len(solved) < 2:
            return positive(speed)
        if not euclidean_admissible(network, speed):
            roots[speed] = None
            return False
        i = min(max(bisect.bisect(solved, (speed,)) - 1, 0), len(solved) - 2)
        (s1, r1), (s2, r2) = solved[i], solved[i + 1]
        w1, w2 = 1.0 / s1, 1.0 / s2
        if w1 == w2:  # speeds a few ulps apart: no line to draw
            return positive(speed)
        return r1 + (r2 - r1) * (1.0 / speed - w1) / (w2 - w1) > TIME_EPS

    if positive(v_lo):
        raise BracketInvalid(f"delay already positive at the lower speed {v_lo}")
    if not positive(v_hi):
        raise BracketInvalid(f"delay not positive at the upper speed {v_hi}")
    return bisect_predicted(positive, predicted, v_lo, v_hi, tol)[1]
