"""Closed-loop playback of a pursuit policy against each evader path, and an
independent exhaustive oracle.

The simulator drives the real clock: the pursuer moves between sensors,
reads them on arrival and captures when it is collocated with the evader at
a sensor (synchronous arrival counts; the presence interval is closed).
Every reading, the entry's included, is ``information.observe`` under the
policy's convention: the pursuer waits at the sensor until the move's last
red report, as the solver values the move, so playback at the solved delay
or below walks the decision tree ``tree_export.build_tree`` draws. The
chase starts with an arrival at the entry at the initial delay, and a move
to the pursuer's own node is an arrival with zero travel time.

The oracle never consults solved tables. It decides, by exhaustive search
over pursuer strategies with exact outcome enumeration at each visited
sensor, whether a given initial delay admits a guaranteed capture, and
bisects that predicate for the maximum delay. Known-path states are scored
with the direct over-all-positions bound, which keeps the oracle
independent of the solver's closed form. Under either convention winning
at a delay implies winning at every smaller one, state by state, so one
oracle shares per-(node, set) win and loss thresholds across all the
probes of its bisection. The ``exact=True`` search keeps a memo per probe
instead, because its synchronous-capture window makes a state winnable at
some arrival but not at a slightly earlier one. Any network is accepted;
the search raises CapExceeded once it holds ``ORACLE_SET_BUDGET`` sets.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import CapExceeded, NonTermination, PolicyHole, SimulationError
from .information import TranscriptRow, observe
from .network import PursuerMetric, RoadNetwork, VisitSchedule, indices_of
from .solver import SolveResult
from .util import bisect_bracket, check_bracket, teq, tle, tlt

ORACLE_SET_BUDGET = 30_000


@dataclass(frozen=True)
class SimOutcome:
    """Terminal result of one playback: captured (where/when) or escaped at
    the path's exit."""

    captured: bool
    time: float
    node: int
    transcript: tuple[TranscriptRow, ...]

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(row.to_json()) for row in self.transcript)


def _exit_of(network: RoadNetwork, schedule: VisitSchedule, k: int) -> tuple[int, float]:
    for j in network.goals:
        if schedule.times[j][k] < float("inf"):
            return j, schedule.times[j][k]
    raise SimulationError(f"path {k} has no goal node")


def check_table_sizes(n, m, schedule: VisitSchedule) -> None:
    """Raise SimulationError unless tables for ``n`` paths and ``m`` nodes
    fit the network of ``schedule``."""
    if (n, m) != (schedule.n, schedule.m):
        raise SimulationError(f"the tables are for n={n!r} paths and m={m!r} nodes, "
                              f"the network has n={schedule.n} paths and m={schedule.m} nodes")


def simulate(network: RoadNetwork, schedule: VisitSchedule, metric: PursuerMetric,
             result: SolveResult, k: int, t0: float) -> SimOutcome:
    """Play the solved policy from entry delay ``t0`` against evader path
    ``k`` and report capture or escape with a full observation transcript;
    a capture at the entry (``t0`` within ``TIME_EPS`` of 0) has no row.

    Raises InconsistentObservation when a reading contradicts the tracked
    set, SimulationError when ``k`` is outside ``1..n``, the tables were
    solved for a network of other sizes or a stay reads red again,
    PolicyHole when the walk reaches a (node, set) pair absent from the
    tables or a move that no path of its set passes, and NonTermination if
    the decision-epoch budget is exceeded.
    """
    if not t0 > 0:
        raise SimulationError(f"initial delay must be positive, got {t0}")
    if not 1 <= k <= schedule.n:
        raise SimulationError(f"no evader path {k}: paths are numbered 1..{schedule.n}")
    check_table_sizes(result.n, result.m, schedule)
    strict = result.strict_resolution
    exit_node, exit_time = _exit_of(network, schedule, k)
    rows: list[TranscriptRow] = []

    # the chase starts with a reading at the entry, which every path passed at time 0
    p, t, info, stay = network.entry, t0, (1 << schedule.n) - 1, False
    budget = max(schedule.n + schedule.m, 3 * schedule.n + 2)
    for _ in range(budget + 1):  # the entry reading, then one per move
        reading = observe(info, p, t, schedule.times[p][k], schedule, strict)
        if reading is None:
            return SimOutcome(True, schedule.times[p][k], p, tuple(rows))
        if stay and reading.passage is not None:  # a red here again keeps the set
            raise SimulationError(f"policy waits at node {p} with no upcoming visits")
        rows.append(reading)
        t, info = reading.t, reading.info
        if tlt(exit_time, t):
            return SimOutcome(False, exit_time, exit_node, tuple(rows))
        try:
            move = result.policy[(p, info)]
        except KeyError:
            raise PolicyHole(f"no policy entry for node {p}, set {indices_of(info)}") from None
        stay = move == p
        p, t = move, t + metric.time(p, move)

    raise NonTermination(f"no terminal outcome within {budget} decision epochs")


@dataclass(frozen=True)
class GuaranteeReport:
    t0: float
    outcomes: dict
    all_captured: bool


def verify_guarantee(network: RoadNetwork, schedule: VisitSchedule, metric: PursuerMetric,
                     result: SolveResult, t0: float) -> GuaranteeReport:
    """Run the policy against every evader path at the same initial delay."""
    outcomes = {}
    for k in range(1, schedule.n + 1):
        outcomes[k] = simulate(network, schedule, metric, result, k, t0)
    return GuaranteeReport(
        t0=t0,
        outcomes=outcomes,
        all_captured=all(o.captured for o in outcomes.values()),
    )


class _Oracle:
    """Win-predicate evaluation by exhaustive strategy search, for one
    network, metric and convention, probed at any number of entry delays.

    ``strict_resolution`` selects the observation convention the search
    assumes, mirroring the two solve conventions. ``exact`` ignores both
    conventions and enumerates raw outcomes (reds split by delay, greens
    taken at the actual arrival instant), which searches a wider strategy
    space than either convention admits.

    Under either convention ``wins(p, t, mask)`` is a down-set in ``t``:
    every recursive call is on a strict subset, and ``t + d[p][u]``,
    ``max(arrival, visit)``, ``tle(arrival, visit)`` and the prefix of
    classes with ``tlt(tau, arrival)`` are all monotone in ``t``, even in
    floats. So the oracle keeps, per (node, set), the latest time found
    winning and the earliest found losing, and answers any later call
    outside that gap, from any probe, without search. ``exact`` keeps a
    memo per probe instead: its synchronous-capture window (``teq``) lets
    a class with visit time in (A, A + TIME_EPS] be caught at arrival A
    but not at a slightly earlier one, so its sub-states are not exactly
    monotone in ``t``.
    """

    def __init__(self, network: RoadNetwork, schedule: VisitSchedule, metric: PursuerMetric,
                 paths, strict_resolution: bool, exact: bool):
        self.schedule = schedule
        self.metric = metric
        self.strict = strict_resolution
        self.exact = exact
        self.entry = network.entry
        self.full = (1 << schedule.n) - 1
        # singleton bit -> known-path value per node (index 0 padding)
        self.known = {
            1 << (path.index - 1): [0.0] + [
                max(arr - metric.d[j][node] for node, arr in zip(path.nodes, path.arrival))
                for j in range(1, schedule.m + 1)
            ]
            for path in paths
        }
        # set -> (moves, won, lost), built by _build_set on first use
        self.sets: dict[int, tuple] = {}
        self.memo: dict[tuple[int, float, int], bool] = {}

    def guarantees(self, t0: float) -> bool:
        """Whether some strategy captures every path when the chase starts
        ``t0`` after the evader's entry."""
        if self.exact:
            self.memo = {}
        return self.wins(self.entry, t0, self.full)

    def wins(self, p: int, t: float, mask: int) -> bool:
        known = self.known.get(mask)
        if known is not None:
            return tle(t, known[p])
        moves, won, lost = self.sets.get(mask) or self._build_set(mask)
        if self.exact:
            key = (p, t, mask)
            result = self.memo.get(key)
            if result is None:
                result = self.memo[key] = self._expand_exact(p, t, mask, moves)
            return result
        if t <= won[p]:
            return True
        if t >= lost[p]:
            return False
        if self._expand(p, t, moves):
            won[p] = t
            return True
        lost[p] = t
        return False

    def _build_set(self, mask: int) -> tuple:
        """Store and return the set's moves, with a latest winning and an
        earliest losing time per node that no probe has found yet. A move
        is ``(u, red, green, visit, classes)`` for each node u the set
        reaches: ``visit`` is the per-path visit time the convention
        compares the arrival with, and ``classes`` are the nonempty
        ``(tau, group & mask)`` in time order; CapExceeded past the budget."""
        schedule, moves = self.schedule, []
        if len(self.sets) >= ORACLE_SET_BUDGET:
            raise CapExceeded(f"oracle budget of {ORACLE_SET_BUDGET} uncertainty sets exhausted "
                              f"on n={schedule.n} paths and m={schedule.m} nodes")
        for u in range(1, schedule.m + 1):
            red = mask & schedule.through[u]
            if red == 0:
                continue
            green = mask & ~red
            if self.strict and green:
                visit = schedule.max_visit(u, red)
            else:
                visit = schedule.min_visit(u, red)
            classes = tuple((tau, group & mask) for tau, group in schedule.groups[u]
                            if group & mask)
            moves.append((u, red, green, visit, classes))
        won, lost = [-math.inf] * (schedule.m + 1), [math.inf] * (schedule.m + 1)
        self.sets[mask] = found = tuple(moves), won, lost
        return found

    def _expand(self, p: int, t: float, moves: tuple) -> bool:
        d, wins = self.metric.d[p], self.wins
        for u, red, green, visit, classes in moves:
            arrival = t + d[u]
            if green == 0:
                if tle(arrival, visit):
                    return True
                continue
            resolve = max(arrival, visit)
            if self.strict:
                # classes at or after arrival are met in person
                if wins(u, resolve, green) and all(
                        wins(u, arrival, cls) for tau, cls in classes if tlt(tau, arrival)):
                    return True
            elif wins(u, arrival, red) and wins(u, resolve, green):
                return True
        return False

    def _expand_exact(self, p: int, t: float, mask: int, moves: tuple) -> bool:
        d, wins = self.metric.d[p], self.wins
        for u, _, _, _, classes in moves:
            arrival = t + d[u]
            passed = 0
            reds = []
            for tau, cls in classes:
                if tlt(tau, arrival):
                    reds.append(cls)
                    passed |= cls
                elif teq(tau, arrival):
                    passed |= cls  # synchronous capture
                else:
                    break
            green = mask & ~passed
            if green == mask:
                # nothing has resolved yet: wait out the first scheduled visit
                tau1, cls1 = next((tau, cls) for tau, cls in classes if tlt(arrival, tau))
                rest = mask & ~cls1
                if rest == 0 or wins(u, tau1, rest):
                    return True
                continue
            if len(reds) == 1 and reds[0] == mask:
                continue  # stale information only; the move cannot help
            if all(wins(u, arrival, cls) for cls in reds) and (
                green == 0 or wins(u, arrival, green)
            ):
                return True
        return False


def guarantee_exists(network: RoadNetwork, schedule: VisitSchedule, metric: PursuerMetric,
                     paths, t0: float, strict_resolution: bool = False, exact: bool = False) -> bool:
    """Exhaustively decide whether some pursuit strategy captures every
    evader path when the chase starts ``t0`` after the evader's entry.
    Raises CapExceeded past ``ORACLE_SET_BUDGET`` sets."""
    if t0 <= 0:
        return True
    return _Oracle(network, schedule, metric, paths, strict_resolution, exact).guarantees(t0)


def oracle_max_delay(network: RoadNetwork, schedule: VisitSchedule, metric: PursuerMetric,
                     paths, strict_resolution: bool = False, exact: bool = False,
                     tol: float = 1e-7) -> float:
    """Maximum initial delay with a guaranteed capture, by bisection of the
    win predicate over [0, shortest path length].

    Winning at some delay implies winning at any smaller delay, so the
    predicate is monotone and bisection is sound. Raises PursuitError,
    before the oracle runs, unless ``tol > 0`` and the shortest path
    length is finite, and CapExceeded past ``ORACLE_SET_BUDGET`` sets.
    """
    hi = min(p.length for p in paths)
    check_bracket(0.0, hi, tol)
    oracle = _Oracle(network, schedule, metric, paths, strict_resolution, exact)
    if oracle.guarantees(hi):
        return hi
    return bisect_bracket(lambda t0: not oracle.guarantees(t0), 0.0, hi, tol)[0]
