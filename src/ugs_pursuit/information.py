"""Uncertainty-set algebra: observation updates, red/green partitions and
enumeration of the uncertainty sets a guaranteed-capture pursuer can
actually encounter.

An uncertainty set is a bitmask over path indices (bit ``k - 1`` = path
``k``). A visit-time class at node ``u`` is one entry of
``schedule.groups[u]``: the paths whose visits to ``u`` lie within
``TIME_EPS`` of the class's first visit. Every reading keeps whole classes,
read through ``red_reports`` or, for the classes after a time, bisected
from ``schedule.later_classes``, so every kept set is a union of the classes
the solver scores. ``observed_sets`` lists every set a reading at one node
can keep, in closed form. All functions here are pure and safe for
concurrent use.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .errors import InconsistentObservation
from .network import VisitSchedule, indices_of, iter_indices
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


def update_green(mask: int, u: int, t_plus: float, schedule: VisitSchedule) -> int:
    """Keep the paths that have not yet visited node ``u`` at ``t_plus``:
    those avoiding ``u`` and the visit-time classes strictly after ``t_plus``
    (``tlt``), found by one bisection of ``schedule.later_classes``."""
    cutoffs, later = schedule.later_classes[u]
    out = mask & ~schedule.through[u] | later[bisect_right(cutoffs, t_plus)] & mask
    if out == 0:
        raise InconsistentObservation(
            f"green at node {u}, time {t_plus:.9g} excludes every path in {indices_of(mask)}"
        )
    return out


def next_visit(mask: int, u: int, t: float, schedule: VisitSchedule) -> float | None:
    """The time of the first visit-time class of ``mask`` at ``u`` strictly
    after ``t`` (``tlt``), or None when there is none."""
    cutoffs, later = schedule.later_classes[u]
    i = bisect_right(cutoffs, t)
    if not later[i] & mask:
        return None
    groups = schedule.groups[u]
    while not groups[i][1] & mask:
        i += 1
    return groups[i][0]


def partition(mask: int, u: int, schedule: VisitSchedule) -> tuple[int, int]:
    """Split a set into (paths through ``u``, paths avoiding ``u``)."""
    red = mask & schedule.through[u]
    return red, mask & ~red


def red_reports(mask: int, u: int, schedule: VisitSchedule, strict: bool) -> tuple[tuple[float, int], ...]:
    """The red reports a visit to ``u`` can give a pursuer holding ``mask``,
    as ``(visit time, set)`` pairs in increasing time; empty when no path in
    ``mask`` passes ``u``.

    Under strict resolution each visit-time class of the red part is its own
    report. Under the membership convention there is one report: the whole
    red part, at its earliest visit. Either way the green report resolves at
    the time of the last red report.
    """
    reports = []
    for t, group in schedule.groups[u]:
        cls = group & mask
        if cls:
            if not strict:
                return ((t, mask & schedule.through[u]),)
            reports.append((t, cls))
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


def observe(mask: int, u: int, t: float, visit: float, schedule: VisitSchedule, strict: bool,
            since: float | None = None) -> TranscriptRow | None:
    """Read sensor ``u`` at time ``t`` holding ``mask``, the evader passing
    ``u`` at ``visit`` (inf: never); None means a capture at ``visit``.
    Arriving, catch a passage right then or one whose visit-time class
    starts by then (the green would drop that class), read red for an
    earlier one and keep its class (strict) or all paths through ``u``, else
    read green and keep the paths still to come; but a membership-convention
    green on a set ``u`` splits waits for the set's earliest visit, catching
    a passage meanwhile, and keeps the paths avoiding ``u``. A wait step
    from the reading at ``since`` catches a passage after it and by ``t``,
    else reads green. Raises InconsistentObservation if no path is left."""
    if since is None:
        if teq(visit, t):
            return None
        if tlt(visit, t):
            # read at the passage itself: t - (t - visit) can round out of its class
            kept = update_red(mask, u, visit, schedule) if strict else mask & schedule.through[u]
            if kept == 0:
                raise InconsistentObservation(f"red at node {u} contradicts the tracked set entirely")
            return TranscriptRow(t, u, visit, kept)
        for c, _ in schedule.groups[u]:  # caught if its class starts by t: the green drops it
            if tlt(t, c):
                break
            if teq(c, visit):
                return None
        red, green = partition(mask, u, schedule)
        if not (strict or red in (0, mask)):
            end = max(t, red_reports(mask, u, schedule, False)[0][0])
            return None if tle(visit, end) else TranscriptRow(end, u, None, green)
    elif tlt(since, visit) and tle(visit, t):
        return None
    return TranscriptRow(t, u, None, update_green(mask, u, t, schedule))


def observed_sets(mask: int, u: int, schedule: VisitSchedule, strict: bool) -> set[int]:
    """The sets ``observe`` can keep when a pursuer holding ``mask`` reads
    ``u``, over every arrival and wait time and every evader in ``mask``,
    from one ``red_reports`` pass. A membership-convention reading of a set
    that ``u`` splits keeps the paths avoiding ``u`` (green) or passing it
    (red). Otherwise a red keeps its class (strict) or every path through
    ``u``, which is then ``mask``; an arrival before the first class keeps
    ``mask``; and an arrival at class ``i``, or a wait to it, keeps the paths
    avoiding ``u`` and the classes after ``i``, unless that is no path.
    ``mask`` must hold a path through ``u``."""
    through = mask & schedule.through[u]
    avoid = mask ^ through
    if not strict and avoid:
        return {avoid, through}
    cutoffs, later = schedule.later_classes[u]
    image = {mask}
    for t, cls in red_reports(mask, u, schedule, True):
        if strict:
            image.add(cls)
        after = avoid | later[bisect_right(cutoffs, t)] & mask
        if after:
            image.add(after)
    return image


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

    def __contains__(self, mask: int) -> bool:
        return mask in self.sets

    def to_json(self) -> dict:
        return {
            "sets": [list(indices_of(s)) for s in self.sets],
            "log": [
                {"node": ev.node, "time": ev.time, "sets": [list(indices_of(s)) for s in ev.masks]}
                for ev in self.log
            ],
        }


def realizable_sets(schedule: VisitSchedule, paths, reverse_ties: bool = False) -> RealizableFamily:
    """Event-sweep enumeration of the realizable uncertainty sets.

    Walk the distinct (node, visit-time) events in increasing time (ties by
    node id, or reversed when ``reverse_ties``). At each event, split every
    alive set by the paths visiting right then; after a path's exit event,
    drop alive sets containing it, since waiting on them past that instant
    would let the evader escape. Each log row lists the sets alive just
    before the event plus the children it created.
    """
    n = schedule.n
    full = (1 << n) - 1
    exit_time = {p.index: p.length for p in paths}
    exit_node = {p.index: p.exit for p in paths}

    events = []
    for j in range(1, schedule.m + 1):
        for t, group_mask in schedule.groups[j]:
            events.append((t, j, group_mask))
    events.sort(key=lambda ev: (ev[0], -ev[1] if reverse_ties else ev[1]))

    alive: list[int] = [full]
    alive_set = {full}
    family: list[int] = [full]
    seen = {full}
    log: list[FamilyEvent] = []

    for t, j, group_mask in events:
        row = list(alive)
        created = []
        for s in alive:
            hit = s & group_mask
            if hit == 0 or hit == s:
                continue
            for child in (hit, s & ~hit):
                created.append(child)
                if child not in seen:
                    seen.add(child)
                    family.append(child)
        for a in created:
            if a not in alive_set:
                alive_set.add(a)
                alive.append(a)

        # exit event: paths ending here now are out of play
        gone = 0
        for k in iter_indices(group_mask):
            if exit_node[k] == j and teq(exit_time[k], t):
                gone |= 1 << (k - 1)
        if gone:
            alive = [s for s in alive if s & gone == 0]
            alive_set = set(alive)

        log.append(FamilyEvent(node=j, time=t, masks=tuple(dict.fromkeys(row + created))))

    family.sort(key=lambda s: (bin(s).count("1"), s))
    return RealizableFamily(n=n, sets=tuple(family), log=tuple(log))
