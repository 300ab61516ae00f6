"""Uncertainty-set algebra: observation updates, the children of a move and
enumeration of the uncertainty sets a guaranteed-capture pursuer can
actually encounter.

An uncertainty set is a bitmask over path indices (bit ``k - 1`` = path
``k``). A visit-time class at node ``u`` is one entry of
``schedule.groups[u]``: the paths whose visits to ``u`` lie within
``TIME_EPS`` of the class's first visit. Every red must match a class of
the tracked set, under either convention. A reading keeps one of the sets
``red_reports`` lists for the move, or the paths avoiding the node, so
every kept set is one the solver scores the move by. ``move_children``
lists them in order, in closed form: the children the export's policy
walk follows and the decision tree draws. All functions here are pure and
safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InconsistentObservation, PolicyHole
from .network import VisitSchedule, indices_of
from .util import teq, tle, tlt


def update_red(mask: int, u: int, passage: float, schedule: VisitSchedule) -> int:
    """Keep the visit-time class of ``mask`` at ``u`` that holds the passage
    at ``passage``: the first whose time is within ``TIME_EPS`` of it.
    Classes start more than ``TIME_EPS`` apart, so for a passage equal to
    a visit time that class is the evader's own. A ``TranscriptRow`` keeps
    the passage itself: one rebuilt as a reading time minus a delay can
    round a visit at the edge of its class into the next one.

    Raises InconsistentObservation when no class matches.
    """
    for t, cls in red_reports(mask, u, schedule, True):
        if teq(t, passage):
            return cls
    raise InconsistentObservation(
        f"red at node {u}, passage time {passage:.9g} matches no path in {indices_of(mask)}"
    )


def red_reports(mask: int, u: int, schedule: VisitSchedule, strict: bool) -> tuple[tuple[float, int], ...]:
    """The red reports a visit to ``u`` can give a pursuer holding ``mask``,
    as ``(visit time, set)`` pairs in increasing time; empty when no path in
    ``mask`` passes ``u``.

    Under strict resolution each visit-time class of the red part is its own
    report, and the scan stops at the class that completes the red part.
    Under the membership convention there is one report: the whole red part,
    at its earliest visit. Either way the green report resolves at the time
    of the last red report.
    """
    reports = []
    left = mask & schedule.through[u]
    for t, group in schedule.groups[u]:
        cls = group & mask
        if cls:
            if not strict:
                return ((t, left),)
            reports.append((t, cls))
            left ^= cls
            if not left:
                break
    return tuple(reports)


@dataclass(frozen=True)
class TranscriptRow:
    """A sensor reading at node ``node``, time ``t``, and the set it keeps:
    red with the evader's passage time ``passage`` (the elapsed delay is
    ``t - passage``), or green when ``passage`` is None."""

    t: float
    node: int
    passage: float | None
    info: int

    def to_json(self) -> dict:
        obs = "green" if self.passage is None else {"red": self.t - self.passage}
        return {"t": self.t, "node": self.node, "obs": obs, "set": list(indices_of(self.info))}


def observe(mask: int, u: int, t: float, visit: float, schedule: VisitSchedule,
            strict: bool) -> TranscriptRow | None:
    """Read sensor ``u`` on arrival at time ``t`` holding ``mask``, the
    evader passing ``u`` at ``visit`` (inf: never); None means a capture at
    ``visit``. A passage before ``t`` reads red, and ``update_red`` finds
    its visit-time class: the reading keeps that class (strict) or every
    path through ``u``. Otherwise the pursuer waits at ``u`` until the
    move's last red report (``red_reports``: the last class under strict,
    the earliest visit under membership, the last class whenever every path
    in ``mask`` passes ``u``). A passage by then is a capture; else the
    reading is green then and keeps the paths avoiding ``u``. This is the
    reading the solver values the move by. Raises InconsistentObservation
    if a red matches no class or a green keeps no path, and PolicyHole when
    a green would keep the whole set: no path in ``mask`` passes ``u``, so
    the move reads nothing."""
    if tlt(visit, t):
        # read at the passage itself: t - (t - visit) can round out of its class
        cls = update_red(mask, u, visit, schedule)
        return TranscriptRow(t, u, visit, cls if strict else mask & schedule.through[u])
    green = mask & ~schedule.through[u]
    if green == mask:
        raise _reads_nothing(mask, u)
    reports = red_reports(mask, u, schedule, strict or not green)
    end = max(t, reports[-1][0])
    if tle(visit, end):
        return None
    if green == 0:
        raise InconsistentObservation(
            f"green at node {u}, time {end:.9g} excludes every path in {indices_of(mask)}")
    return TranscriptRow(end, u, None, green)


def move_children(mask: int, u: int, schedule: VisitSchedule,
                  strict: bool) -> list[tuple[str, float, int]]:
    """The children of a move to ``u`` holding ``mask``, in order, as
    ``(label, time, set)``: each red report (``red_reports``), labelled
    ``red`` when it is the only one and ``red i`` otherwise, then, when some
    path in ``mask`` avoids ``u``, ``green``: those paths, at the last red
    report's time. These are the sets ``observe`` can keep at ``u``, over
    every arrival time and every evader in ``mask``. Raises PolicyHole when
    no path in ``mask`` passes ``u``: such a move reads nothing."""
    reports = red_reports(mask, u, schedule, strict)
    if not reports:
        raise _reads_nothing(mask, u)
    labels = ("red",) if len(reports) == 1 else [f"red {i}" for i in range(1, len(reports) + 1)]
    children = [(label, t, red) for label, (t, red) in zip(labels, reports)]
    green = mask & ~schedule.through[u]
    if green:
        children.append(("green", reports[-1][0], green))
    return children


def _reads_nothing(mask: int, u: int) -> PolicyHole:
    return PolicyHole(f"the policy moves to node {u}, which no path of set "
                      f"{indices_of(mask)} passes")


@dataclass(frozen=True)
class FamilyEvent:
    """One sweep event: the sets in play when node ``node`` can report at
    time ``time``."""

    node: int
    time: float
    masks: tuple[int, ...]


@dataclass(frozen=True)
class RealizableFamily:
    """All uncertainty sets reachable by a guaranteed-capture pursuer, with
    the chronological event log that produced them."""

    n: int
    sets: tuple[int, ...]
    log: tuple[FamilyEvent, ...]

    def to_json(self) -> dict:
        return {
            "sets": [list(indices_of(s)) for s in self.sets],
            "log": [
                {"node": ev.node, "time": ev.time, "sets": [list(indices_of(s)) for s in ev.masks]}
                for ev in self.log
            ],
        }


def realizable_sets(schedule: VisitSchedule, paths) -> RealizableFamily:
    """Event-sweep enumeration of the realizable uncertainty sets.

    Walk the distinct (node, visit-time) events in increasing time (ties by
    node id). At each event, split every alive set by the paths visiting
    right then; after a path's exit event, drop alive sets containing it,
    since waiting on them past that instant would let the evader escape.
    Each log row lists the sets alive just before the event plus the
    children it created.
    """
    n = schedule.n
    exits = [0] * (schedule.m + 1)  # the paths ending at each node
    for p in paths:
        exits[p.exit] |= 1 << (p.index - 1)
    events = sorted((t, j, group_mask) for j in range(1, schedule.m + 1)
                    for t, group_mask in schedule.groups[j])  # (time, node) is unique

    full = (1 << n) - 1
    alive = {full: None}  # insertion-ordered
    family = {full}
    log: list[FamilyEvent] = []
    for t, j, group_mask in events:
        created = []
        for s in alive:
            hit = s & group_mask
            if hit and hit != s:
                created += (hit, s & ~hit)
        family.update(created)
        alive = dict.fromkeys([*alive, *created])
        log.append(FamilyEvent(node=j, time=t, masks=tuple(alive)))
        # exit event: paths ending here now are out of play
        gone = group_mask & exits[j]
        if gone:
            alive = dict.fromkeys(s for s in alive if s & gone == 0)

    return RealizableFamily(n=n, sets=tuple(sorted(family, key=lambda s: (s.bit_count(), s))),
                            log=tuple(log))
