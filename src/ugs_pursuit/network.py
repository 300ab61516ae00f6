"""Road-network data model: sensor graph, evader paths, visit schedules and
the pursuer travel-time metric.

Conventions
-----------
Nodes are integers ``1..m`` and node ``1`` is the entry. Goal nodes are
exactly the childless nodes. Evader paths are directed entry-to-goal node
sequences, indexed ``1..n`` in lexicographic order of their node sequences.
Path subsets are represented as integer bitmasks with bit ``k - 1`` standing
for path ``k``.

All objects are immutable after construction and safe to share across
threads; a network computes its straight-line distances once, on first read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

from .errors import (
    CycleDetected,
    EntryIsGoal,
    GoalMismatch,
    MetricError,
    NetworkError,
    NonPositiveEdgeTime,
    NonZeroDiagonal,
    OrphanUgs,
    SpeedAdvantageViolated,
    TriangleViolation,
    UnreachableNode,
)
from .util import TIME_EPS, group_times, json_number, tlt

VIOLATION_LIMIT = 5


@dataclass(frozen=True)
class RoadNetwork:
    """Validated directed acyclic sensor graph.

    ``children[j]`` lists the child nodes of ``j`` in increasing order and
    ``edge_time[(j, c)]`` is the evader's travel time along edge ``j -> c``.
    ``coords[j]`` is an optional ``(x, y)`` pair (``None`` when the input
    carried no geometry). Index 0 of the per-node tuples is unused padding.
    """

    m: int
    children: tuple[tuple[int, ...], ...]
    edge_time: dict[tuple[int, int], float]
    coords: tuple[tuple[float, float] | None, ...]
    entry: int = 1
    goals: frozenset[int] = field(default_factory=frozenset)

    def edges(self):
        for j in range(1, self.m + 1):
            for c in self.children[j]:
                yield j, c, self.edge_time[(j, c)]

    @cached_property
    def distances(self) -> tuple[tuple[float, ...], ...]:
        """Straight-line distances ``distances[i][j]`` between nodes (index 0
        padding), computed on first read and kept. Raises MetricError when a
        node has no coordinates."""
        points = self.coords[1:]
        if None in points:
            raise MetricError(f"node {points.index(None) + 1} has no coordinates; "
                              f"euclidean metric unavailable")
        # hypot ignores sign and xi - xj is exactly -(xj - xi): mirror the upper half
        m, hypot = self.m, math.hypot
        rows = [[0.0] * (m + 1) for _ in range(m + 1)]
        for i, (xi, yi) in enumerate(points, 1):
            row = rows[i]
            for j in range(i, m + 1):
                xj, yj = points[j - 1]
                row[j] = rows[j][i] = hypot(xi - xj, yi - yj)
        return tuple(map(tuple, rows))


@dataclass(frozen=True)
class EvaderPath:
    """One entry-to-goal node sequence with cumulative arrival times."""

    index: int
    nodes: tuple[int, ...]
    arrival: tuple[float, ...]

    @property
    def length(self) -> float:
        return self.arrival[-1]

    @property
    def exit(self) -> int:
        return self.nodes[-1]


@dataclass(frozen=True)
class VisitSchedule:
    """Per-node evader visit times across all paths.

    ``times[j][k]`` is the visit time of node ``j`` on path ``k``
    (``math.inf`` when the path avoids the node; index 0 padding).
    ``through[j]`` is the bitmask of paths that visit ``j`` and
    ``groups[j]`` lists ``(time, mask)`` pairs grouping the paths that
    visit ``j`` at the same instant, in increasing time order.
    """

    m: int
    n: int
    times: tuple[tuple[float, ...], ...]
    through: tuple[int, ...]
    groups: tuple[tuple[tuple[float, int], ...], ...]

    def min_visit(self, j: int, mask: int) -> float:
        return min(map(self.times[j].__getitem__, indices_of(mask)))

    def max_visit(self, j: int, mask: int) -> float:
        return max(map(self.times[j].__getitem__, indices_of(mask)))


@dataclass(frozen=True)
class PursuerMetric:
    """Pursuer travel-time table ``d[i][j]`` (index 0 padding)."""

    d: tuple[tuple[float, ...], ...]

    @property
    def m(self) -> int:
        return len(self.d) - 1

    def time(self, i: int, j: int) -> float:
        return self.d[i][j]


def mask_from(indices) -> int:
    """Bitmask for an iterable of 1-based path indices."""
    mask = 0
    for k in indices:
        mask |= 1 << (k - 1)
    return mask


def indices_of(mask: int) -> tuple[int, ...]:
    """The 1-based path indices present in a bitmask, ascending, read one
    lowest set bit at a time."""
    indices = []
    while mask:
        bit = mask & -mask
        indices.append(bit.bit_length())
        mask ^= bit
    return tuple(indices)


def validate_network(raw: dict) -> RoadNetwork:
    """Build a RoadNetwork from a parsed description, enforcing the model's
    standing assumptions.

    ``raw`` uses the JSON input shape: ``nodes`` (each with ``id`` and
    optional ``x``/``y``), ``edges`` (``from``/``to``/``time``), ``entry``,
    and an optional ``goals`` list that is cross-checked against the derived
    childless set.

    Raises NetworkError subclasses on rejection: CycleDetected, EntryIsGoal,
    UnreachableNode, NonPositiveEdgeTime, GoalMismatch; NetworkError itself
    for a malformed description: not an object, ``nodes``, ``edges`` or
    ``goals`` not a list, a node or edge record with a missing or
    non-numeric field (``true`` and ``"7"`` are no numbers), an infinite
    edge time, or an entry, goal, node id or edge endpoint that is not an
    integer.
    """
    if not isinstance(raw, dict):
        raise NetworkError(f"a network description is a JSON object, not a {type(raw).__name__}")
    nodes = raw.get("nodes")
    if not nodes or not isinstance(nodes, list):
        raise NetworkError("network needs a non-empty 'nodes' list")
    ids = [_field(node, "id", int) for node in nodes]
    m = len(ids)
    if sorted(ids) != list(range(1, m + 1)):
        raise NetworkError(f"node ids must be contiguous 1..{m}, got {sorted(ids)}")

    coords: list[tuple[float, float] | None] = [None] * (m + 1)
    for j, node in zip(ids, nodes):
        if node.get("x") is not None:
            coords[j] = (_field(node, "x", float), _field(node, "y", float))

    entry = _field({"entry": raw.get("entry", 1)}, "entry", int)
    if entry != 1:
        raise NetworkError("the entry node must be node 1 (relabel the input)")

    children: list[list[int]] = [[] for _ in range(m + 1)]
    edge_time: dict[tuple[int, int], float] = {}
    edges = raw.get("edges", [])
    if not isinstance(edges, list):
        raise NetworkError(f"'edges' must be a list of edge records, not a {type(edges).__name__}")
    for edge in edges:
        j, c = _field(edge, "from", int), _field(edge, "to", int)
        if not (1 <= j <= m and 1 <= c <= m):
            raise NetworkError(f"edge ({j},{c}) references an unknown node")
        t = _field(edge, "time", float)
        if not t > 0.0:  # also rejects NaN
            raise NonPositiveEdgeTime(f"edge ({j},{c}) has travel time {t} <= 0")
        if t == math.inf:
            raise NetworkError(f"edge ({j},{c}) has an infinite travel time")
        if (j, c) in edge_time:
            raise NetworkError(f"duplicate edge ({j},{c})")
        children[j].append(c)
        edge_time[(j, c)] = t
    for j in range(1, m + 1):
        children[j].sort()

    order = _topological_order(m, children)

    goals = frozenset(j for j in range(1, m + 1) if not children[j])
    if entry in goals:
        raise EntryIsGoal("the entry node has no outgoing edge")
    declared = raw.get("goals")
    if declared is not None:
        if not isinstance(declared, list):
            raise NetworkError(f"'goals' must be a list of node ids, not a {type(declared).__name__}")
        declared = frozenset(_field({"goals": g}, "goals", int) for g in declared)
        if declared != goals:
            raise GoalMismatch(f"declared goals {sorted(declared)} != childless nodes {sorted(goals)}")

    # Every node of an acyclic graph leads to a childless node, that is to a
    # goal, so a node lies on an entry-to-goal path iff the entry reaches it.
    reachable = {entry}
    for j in order:
        if j in reachable:
            reachable.update(children[j])
    for j in range(1, m + 1):
        if j not in reachable:
            raise UnreachableNode(f"node {j} lies on no entry-to-goal path")

    return RoadNetwork(
        m=m,
        children=tuple(tuple(c) for c in children),
        edge_time=edge_time,
        coords=tuple(coords),
        entry=entry,
        goals=goals,
    )


def _field(record, key: str, kind):
    """``record[key]`` of a node or edge record of the input, as the JSON
    number of ``kind`` (``int`` or ``float``) that ``json_number`` reads."""
    try:
        value = json_number(record[key], kind)
    except (KeyError, TypeError):  # not an object, or no such field
        value = None
    if value is None:
        raise NetworkError(f"{record!r}: {key!r} is missing or of the wrong type")
    return value


def _topological_order(m: int, children) -> list[int]:
    # Kahn's algorithm; leftover nodes sit on a cycle.
    indeg = [0] * (m + 1)
    for j in range(1, m + 1):
        for c in children[j]:
            indeg[c] += 1
    queue = [j for j in range(1, m + 1) if indeg[j] == 0]
    order = []
    while queue:
        j = queue.pop()
        order.append(j)
        for c in children[j]:
            indeg[c] -= 1
            if indeg[c] == 0:
                queue.append(c)
    if len(order) != m:
        cyclic = sorted(j for j in range(1, m + 1) if indeg[j] > 0)
        raise CycleDetected(f"edge relation is cyclic (nodes {cyclic})")
    return order


def enumerate_paths(network: RoadNetwork) -> tuple[EvaderPath, ...]:
    """All directed entry-to-goal paths with cumulative arrival times.

    Paths are ordered lexicographically by node sequence and indexed 1..n in
    that order, so indices are reproducible across runs.
    """
    sequences: list[tuple[int, ...]] = []
    # an explicit stack, not recursion: a path may be longer than Python's recursion limit
    stack = [(network.entry,)]
    while stack:
        prefix = stack.pop()
        children = network.children[prefix[-1]]
        if children:
            stack.extend(prefix + (c,) for c in reversed(children))
            continue
        sequences.append(prefix)
    sequences.sort()

    paths = []
    for k, seq in enumerate(sequences, start=1):
        arrival = [0.0]
        for a, b in zip(seq, seq[1:]):
            arrival.append(arrival[-1] + network.edge_time[(a, b)])
        paths.append(EvaderPath(index=k, nodes=seq, arrival=tuple(arrival)))
    return tuple(paths)


def build_schedule(paths, m: int) -> VisitSchedule:
    """Tabulate per-node visit times and path-membership masks.

    Raises OrphanUgs if some node appears on no path (validate_network
    already excludes that for whole networks).
    """
    if not paths:
        raise NetworkError("no evader paths")
    n = max(path.index for path in paths)
    times = [[math.inf] * (n + 1) for _ in range(m + 1)]
    through = [0] * (m + 1)
    for path in paths:
        for pos, j in enumerate(path.nodes):
            times[j][path.index] = path.arrival[pos]
            through[j] |= 1 << (path.index - 1)
    for j in range(1, m + 1):
        if through[j] == 0:
            raise OrphanUgs(f"node {j} appears on no evader path")
    groups = [()] * (m + 1)
    for j in range(1, m + 1):
        pairs = [(times[j][k], k) for k in range(1, n + 1) if times[j][k] < math.inf]
        groups[j] = tuple((t, mask_from(ks)) for t, ks in group_times(pairs))
    return VisitSchedule(
        m=m,
        n=n,
        times=tuple(tuple(row) for row in times),
        through=tuple(through),
        groups=tuple(groups),
    )


def euclidean_metric(network: RoadNetwork, speed: float) -> PursuerMetric:
    """Straight-line-distance-over-speed travel table: each of the network's
    ``distances`` divided by ``speed``, one list comprehension per row.

    Requires coordinates on every node and ``speed > 0``, and the one edge
    rule, ``euclidean_admissible``; when it fails, ``validate_metric`` names
    the fault (a non-finite coordinate gives a NaN diagonal entry).
    """
    if not speed > 0:  # also rejects NaN
        raise MetricError(f"pursuer speed must be positive, got {speed}")
    metric = PursuerMetric(d=tuple([tuple([x / speed for x in row]) for row in network.distances]))
    if not euclidean_admissible(network, speed):
        validate_metric(metric, network, check_triangle=False)
    return metric


def euclidean_admissible(network: RoadNetwork, speed: float) -> bool:
    """Whether ``euclidean_metric(network, speed)`` returns a table, tested
    over the network's edges without building one: ``speed > 0``, every node
    has coordinates, and every edge takes the pursuer less time than the
    evader by more than TIME_EPS (``tlt``). ``euclidean_metric`` raises
    exactly when this is false. Every node lies on an edge, so a non-finite
    coordinate makes some edge time NaN or infinite and fails the edge test,
    as it gives the table a NaN diagonal entry."""
    if not speed > 0 or None in network.coords[1:]:
        return False
    distances = network.distances
    return all(tlt(distances[j][c] / speed, t) for (j, c), t in network.edge_time.items())


def _violations(d, network: RoadNetwork, check_triangle: bool):
    nodes = range(1, network.m + 1)
    for j in nodes:
        if d[j][j] != 0.0:
            yield "diagonal", (j,), d[j][j]
    for i in nodes:
        for j in nodes:
            if not 0.0 <= d[i][j] < math.inf:  # a NaN fails every comparison, so it fails here too
                yield "diagonal", (i, j), d[i][j]
    if check_triangle:
        for i in nodes:
            for s in nodes:
                for j in nodes:
                    if d[i][j] > d[i][s] + d[s][j] + TIME_EPS:
                        yield "triangle", (i, s, j), d[i][j] - d[i][s] - d[s][j]
    for j, c, t in network.edges():
        if not tlt(d[j][c], t):
            yield "speed", (j, c), d[j][c] - t


def validate_metric(metric: PursuerMetric, network: RoadNetwork, check_triangle: bool = True) -> None:
    """Raise NonZeroDiagonal / TriangleViolation / SpeedAdvantageViolated on
    the first problem found; silent when the table is acceptable. The error's
    ``violations`` lists the first ``VIOLATION_LIMIT`` problems as
    ``(kind, indices, detail)`` with kind one of ``diagonal``, ``triangle``,
    ``speed``."""
    if metric.m != network.m:
        raise MetricError(f"metric is {metric.m}x{metric.m} but the network has {network.m} nodes")
    found = _violations(metric.d, network, check_triangle)
    violations = list(itertools.islice(found, VIOLATION_LIMIT))
    if not violations:
        return
    kind, idx, detail = violations[0]
    if kind == "diagonal":
        raise NonZeroDiagonal(f"nonzero, negative or non-finite entry at {idx}: {detail}", violations)
    if kind == "triangle":
        raise TriangleViolation(f"d{idx[0], idx[2]} exceeds the detour via {idx[1]} by {detail}", violations)
    raise SpeedAdvantageViolated(
        f"pursuer not faster than the evader on edge {idx}: excess {detail}", violations
    )


def table_metric(rows, network: RoadNetwork) -> PursuerMetric:
    """Wrap an explicit m-by-m table (0-based rows, as read from JSON) and
    validate it fully. Every entry is a JSON number, as ``json_number``
    reads it; any other entry raises MetricError naming it."""
    m = network.m
    if len(rows) != m or any(len(r) != m for r in rows):
        raise MetricError(f"metric table must be {m}x{m}")
    d = [(0.0,) * (m + 1)]
    for i, row in enumerate(rows, 1):
        values = [*map(json_number, row)]
        if None in values:
            j = values.index(None)
            raise MetricError(f"metric entry ({i}, {j + 1}) is {row[j]!r}, not a number")
        d.append((0.0, *values))
    metric = PursuerMetric(d=tuple(d))
    validate_metric(metric, network)
    return metric
