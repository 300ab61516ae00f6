"""Closed-loop playback of a pursuit policy against each evader path, and an
independent exhaustive oracle for small instances.

The simulator drives the real clock: the pursuer moves between sensors,
reads them on arrival, waits when the policy says so, and captures when it
is collocated with the evader at a sensor (synchronous arrival counts; the
presence interval is closed). Every reading after the entry's, on arrival
or after a wait, is ``information.observe`` under the policy's convention.

The oracle never consults solved tables. It decides, by exhaustive search
over pursuer strategies with exact outcome enumeration at each visited
sensor, whether a given initial delay admits a guaranteed capture, and
bisects that predicate for the maximum delay. Known-path states are scored
with the direct over-all-positions bound, which keeps the oracle
independent of the solver's closed form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import CapExceeded, NonTermination, PolicyHole, SimulationError
from .information import Observation, TranscriptRow, observe, red_reports
from .network import PursuerMetric, RoadNetwork, VisitSchedule, indices_of
from .solver import SolveResult
from .util import bisect_bracket, check_bracket, teq, tle, tlt

ORACLE_PATH_CAP = 6
ORACLE_NODE_CAP = 10


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


def simulate(network: RoadNetwork, schedule: VisitSchedule, metric: PursuerMetric,
             result: SolveResult, k: int, t0: float) -> SimOutcome:
    """Play the solved policy from entry delay ``t0`` against evader path
    ``k`` and report capture or escape with a full observation transcript.

    Raises SimulationError when ``k`` is outside ``1..n``, PolicyHole when
    the walk reaches a (node, set) pair absent from the tables and
    NonTermination if the decision-epoch budget is exceeded.
    """
    if not t0 > 0:
        raise SimulationError(f"initial delay must be positive, got {t0}")
    if not 1 <= k <= schedule.n:
        raise SimulationError(f"no evader path {k}: paths are numbered 1..{schedule.n}")
    strict = result.strict_resolution
    exit_node, exit_time = _exit_of(network, schedule, k)
    rows: list[TranscriptRow] = []

    # First reading at the entry: every path passed it at time 0, so the
    # red report keeps the whole set under either convention.
    p, t, info = network.entry, t0, (1 << schedule.n) - 1
    if teq(t0, 0.0):
        return SimOutcome(True, t0, p, (TranscriptRow(t0, p, Observation.red(0.0), info),))
    rows.append(TranscriptRow(t, p, Observation.red(t0), info))

    budget = max(schedule.n + schedule.m, 3 * schedule.n + 2)
    for _ in range(budget):
        if tlt(exit_time, t):
            return SimOutcome(False, exit_time, exit_node, tuple(rows))
        try:
            move = result.policy[(p, info)]
        except KeyError:
            raise PolicyHole(f"no policy entry for node {p}, set {indices_of(info)}") from None
        if move is None:
            raise PolicyHole(f"no guaranteed move recorded for node {p}, set {indices_of(info)}")

        if move == p:  # wait for the set's next visit here
            upcoming = [tau for tau, _ in red_reports(info, p, schedule, True) if tlt(t, tau)]
            if not upcoming:
                raise SimulationError(f"policy waits at node {p} with no upcoming visits")
            reading = observe(info, p, upcoming[0], schedule.times[p][k], schedule, strict, since=t)
        else:
            p, t = move, t + metric.time(p, move)
            reading = observe(info, p, t, schedule.times[p][k], schedule, strict)
        if reading is None:
            return SimOutcome(True, schedule.times[p][k], p, tuple(rows))
        rows.append(reading)
        t, info = reading.t, reading.info

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
    """Win-predicate evaluation by exhaustive strategy search.

    ``strict_resolution`` selects the observation convention the search
    assumes, mirroring the two solve conventions. ``exact`` ignores both
    conventions and enumerates raw outcomes (reds split by delay, greens
    taken at the actual arrival instant), which searches a wider strategy
    space than either convention admits.
    """

    def __init__(self, schedule: VisitSchedule, metric: PursuerMetric, paths,
                 strict_resolution: bool, exact: bool):
        self.schedule = schedule
        self.metric = metric
        self.strict = strict_resolution
        self.exact = exact
        self.known: dict[tuple[int, int], float] = {}
        for path in paths:
            for j in range(1, schedule.m + 1):
                best = max(
                    arr - metric.time(j, node)
                    for node, arr in zip(path.nodes, path.arrival)
                )
                self.known[(j, path.index)] = best
        self.singleton_bit = {1 << (p.index - 1): p.index for p in paths}

    def wins(self, p: int, t: float, mask: int, memo: dict) -> bool:
        k = self.singleton_bit.get(mask)
        if k is not None:
            return tle(t, self.known[(p, k)])
        key = (p, t, mask)
        cached = memo.get(key)
        if cached is not None:
            return cached is True  # in-progress sentinel counts as a loss
        memo[key] = "open"
        if self.exact:
            result = self._expand_exact(p, t, mask, memo)
        else:
            result = self._expand(p, t, mask, memo)
        memo[key] = result
        return result

    def _expand(self, p: int, t: float, mask: int, memo: dict) -> bool:
        schedule = self.schedule
        for u in range(1, schedule.m + 1):
            red = mask & schedule.through[u]
            if red == 0:
                continue
            arrival = t + self.metric.time(p, u)
            if red == mask:
                if tle(arrival, schedule.min_visit(u, mask)):
                    return True
                continue
            green = mask & ~red
            if self.strict:
                resolve = max(arrival, schedule.max_visit(u, red))
                if not self.wins(u, resolve, green, memo):
                    continue
                ok = True
                for tau, group in schedule.groups[u]:
                    cls = group & red
                    if cls == 0 or not tlt(tau, arrival):
                        continue  # classes at or after arrival are met in person
                    if not self.wins(u, arrival, cls, memo):
                        ok = False
                        break
                if ok:
                    return True
            else:
                resolve = max(arrival, schedule.min_visit(u, red))
                if self.wins(u, arrival, red, memo) and self.wins(u, resolve, green, memo):
                    return True
        return False

    def _expand_exact(self, p: int, t: float, mask: int, memo: dict) -> bool:
        schedule = self.schedule
        for u in range(1, schedule.m + 1):
            if mask & schedule.through[u] == 0:
                continue
            arrival = t + self.metric.time(p, u)
            passed = 0
            reds = []
            for tau, group in schedule.groups[u]:
                cls = group & mask
                if cls == 0:
                    continue
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
                first = next(
                    (tau, group & mask)
                    for tau, group in schedule.groups[u]
                    if group & mask and tlt(arrival, tau)
                )
                tau1, cls1 = first
                rest = mask & ~cls1
                if rest == 0 or self.wins(u, tau1, rest, memo):
                    return True
                continue
            if len(reds) == 1 and reds[0] == mask:
                continue  # stale information only; the move cannot help
            if all(self.wins(u, arrival, cls, memo) for cls in reds) and (
                green == 0 or self.wins(u, arrival, green, memo)
            ):
                return True
        return False


def _check_caps(schedule: VisitSchedule) -> None:
    if schedule.n > ORACLE_PATH_CAP or schedule.m > ORACLE_NODE_CAP:
        raise CapExceeded(f"oracle caps exceeded: n={schedule.n} (cap {ORACLE_PATH_CAP}), "
                          f"m={schedule.m} (cap {ORACLE_NODE_CAP})")


def guarantee_exists(network: RoadNetwork, schedule: VisitSchedule, metric: PursuerMetric,
                     paths, t0: float, strict_resolution: bool = False, exact: bool = False) -> bool:
    """Exhaustively decide whether some pursuit strategy captures every
    evader path when the chase starts ``t0`` after the evader's entry."""
    _check_caps(schedule)
    if t0 <= 0:
        return True
    oracle = _Oracle(schedule, metric, paths, strict_resolution, exact)
    full = (1 << schedule.n) - 1
    return oracle.wins(network.entry, t0, full, {})


def oracle_max_delay(network: RoadNetwork, schedule: VisitSchedule, metric: PursuerMetric,
                     paths, strict_resolution: bool = False, exact: bool = False,
                     tol: float = 1e-7) -> float:
    """Maximum initial delay with a guaranteed capture, by bisection of the
    win predicate over [0, shortest path length].

    Winning at some delay implies winning at any smaller delay, so the
    predicate is monotone and bisection is sound. Raises PursuitError,
    before the oracle runs, unless ``tol > 0`` and the shortest path
    length is finite.
    """
    _check_caps(schedule)
    hi = min(p.length for p in paths)
    check_bracket(0.0, hi, tol)
    oracle = _Oracle(schedule, metric, paths, strict_resolution, exact)
    full = (1 << schedule.n) - 1
    entry = network.entry
    if oracle.wins(entry, hi, full, {}):
        return hi
    return bisect_bracket(lambda t0: not oracle.wins(entry, t0, full, {}), 0.0, hi, tol)[0]
