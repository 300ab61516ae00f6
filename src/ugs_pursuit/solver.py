"""Latest-exit-time tables and the optimal pursuit policy.

The solve works top-down. It evaluates the root set (every path, pursuer at
the entry) and, recursively, only the subsets that the root's candidate
moves read. For a set ``I`` and a candidate sensor ``u``:

* every path in ``I`` passes ``u``  ->  park there by the earliest possible
  visit and capture (a "capture" move, worth ``min`` visit time);
* no path in ``I`` passes ``u``  ->  nothing can be learned, skip;
* otherwise the visit splits ``I`` into the paths through ``u`` (red
  report) and the rest (green). The move is admissible only when the green
  continuation can still succeed once the red question resolves, and its
  worth is the worst case over the two reports.

Two resolution conventions are supported. They differ only in the red
reports a visit can give, and ``information.red_reports`` is the one place
that lists them. The default treats a red report as membership information
only: one report, the whole red part at its earliest visit. Strict
resolution gives one report per visit-time class. Under both, the green
continuation must survive until the last red report, and the move's worth
is the worst value over the green part and every red report.

Values for a fixed set do not depend on the pursuer's node except through
the final travel-time subtraction, so a set's moves are listed once, when
the set is first read, and each node's cell is filled by one pass over
them when that cell is first read. The pass values a split, reading the
subsets the split leads to, the first time a cell of the set needs it, and
keeps the value for the set's other cells. A pass waits, as a generator on
one explicit stack (``_Solver.score``), while the cells it reads are
scored, so no solve recurses. A split at ``u`` leaves parts whose paths
all pass ``u`` or none do, so no set below it splits at ``u`` again: a
chain of waiting passes splits at distinct nodes, at most ``m + 1`` deep.

A set's candidates come in two parts. ``set_moves`` gives what does not
depend on the pursuer's speed: the nodes the set reaches, each one's green
part, the time its scoring compares and its red reports. ``_candidates``,
the one candidate routine, scores them with the solve's values. A
``MoveTable`` keeps ``set_moves`` for one schedule and convention, less the
splits that no speed admits (below). A speed study passes one to each of
its solves (``solve(..., moves=)``), so each set's moves are built and
filtered once per study. A solve without one builds a set's moves when it
computes the set and keeps none.

Knowing the evader's path never hurts the pursuer, so a set's value at
``u`` is at most the smallest known-path value at ``u`` of its paths:
D(u|G) <= min over k in G of D(u|{k}), plus ``TIME_EPS`` slack that
``known_path_margin(m)`` bounds. The bound is used twice. A split at ``u``
needs D(u|green) to reach the last red report, so when some green path's
known-path value falls below that time by more than the margin, the split
is dropped when its set is evaluated, without solving the green part. A
``MoveTable`` makes the same test once, at an all-zero metric row, where
every ceiling is at least what any metric gives, and lists only the splits
that pass it; ``evaluate`` still makes it at the solve's metric. And a
split is worth at most the bound over its whole set, so from node ``j`` a
cell leaves the split unvalued when that ceiling less ``d[j][u]`` lies more
than ``tie_slack(m)`` below the best score the cell found before it (see
the scoring order below). The first test only drops splits the
admissibility test would reject, the second only candidates that cannot
change the cell's pick, so every computed row is the same as without the
bound; only fewer sets are computed, and which ones depends on the
cells read, not on the order they are read in. A node's bound is built on
first read, wherever the moves came from.

Scoring order: a set's candidates are listed capture moves first, then
split moves, each group by node id; nodes no path in the set passes are
skipped (``set_moves`` lists none for them). From node ``j`` a candidate ``u``
scores its exit time at ``u`` minus the travel time ``d[j][u]``, and ``j``
keeps the first candidate in that order whose score beats the best so far
by more than ``TIME_EPS``: a near-tie goes to the earlier candidate. A
candidate more than ``(K + 1) * TIME_EPS`` below the best of K never
changes that pick (``tie_slack``), so a cell need not value it. Every path
passes the entry at time 0, so every set has the capture move at node 1,
and every row holds a value and a move.

Each solved set's rows are stored once, as per-node lists; a singleton's
are its path's ``base_case`` values, built on first read. A result's ``latest``,
``policy`` and ``capture_move`` tables are read-only views over them that
fill on read: looking up a cell not filled yet fills it, computing its set
first when the solve has not. Speed studies read only a solve's root cell,
so most cells of the sets it computes are never filled. A pruned export is
the policy: ``to_json`` walks it from the entry through each move's children
(``information.move_children``: its red reports and its green part, the
sets the move was scored by, playback can keep and the decision tree draws),
and lists the sets playback can read and every singleton, rows filled;
reading a set it left out of loaded tables raises ``PolicyHole``.

Without pruning, the solve fills the whole lattice bottom-up instead
(``_Solver.fill_lattice``), smaller sets first: a split looks its parts'
values up in rows already filled, its red parts' worst once per (node, red
part), with no known-path bound, so no pass waits, and the export lists
every row. Sets with equal valued candidates share one row, scored once.
``solve`` accepts ``close_for_simulation`` and ignores it.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import accumulate, chain
from math import inf, isfinite
from operator import itemgetter, or_

# realizable_sets is re-exported only so that bench/tracing.py's wrapper binds;
# the solver never calls it, so that span reads 0 until the tracer is retargeted
from .information import move_children, realizable_sets, red_reports  # noqa: F401
from .network import PursuerMetric, VisitSchedule, indices_of, mask_from
from .util import TIME_EPS, tlt

# The interpreter's own SHA-256, as the random module takes its SHA-512:
# importing hashlib loads OpenSSL, about 3.7 MB of resident memory.
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

CAPTURE = "capture"
SPLIT = "split"
_COLUMNS = ("D", "mu", "capture")
_columns_of = itemgetter(*_COLUMNS)
_META_TYPES = {"n": int, "m": int, "strict_resolution": bool, "pruned": bool, "metric_digest": str}
# a record of the export as json.dumps(indent=2) writes it, one %s per field's
# items; _ITEM is what it writes between two items of a field's list
_FIELDS = ("set", *_COLUMNS)
_RECORD = "{\n      " + ",\n      ".join(f'"{key}": [\n        %s\n      ]' for key in _FIELDS) + "\n    }"
_ITEM = ",\n" + " " * 8
_encode_items = json.JSONEncoder(separators=(_ITEM, ": ")).encode


def base_case(j: int, k: int, schedule: VisitSchedule, metric: PursuerMetric, paths) -> float:
    """Latest exit time from node ``j`` when the evader's path ``k`` is
    known: reach the path's exit just in time."""
    path = paths[k - 1]
    return path.length - metric.time(j, path.exit)


@dataclass
class SolveResult:
    """Solved tables: latest guaranteed-capture exit times and the policy.

    ``rows`` maps each computed set's mask to its (latest, policy, capture)
    lists, indexed by node - 1; it is the only copy of the solved values.
    ``latest``, ``policy`` and ``capture_move`` are read-only views over it,
    keyed by ``(node, mask)``: ``latest`` holds the latest exit time,
    ``policy`` the next node to visit and ``capture_move`` whether the move
    ends in immediate capture. After a pruned solve, a cell no view has read
    yet may be None in ``rows``: ``solver`` fills it, computing its set first
    if needed, the first time a view reads it, and ``to_json`` fills the sets
    it lists, the policy's. A solve without pruning fills the whole lattice,
    and its sets with equal candidate lists share one row object.
    ``strict_resolution`` records which convention produced the tables
    (simulation replays observations under the same convention).
    ``on_demand_sets`` lists the non-singleton sets a pruned solve has
    computed so far, in the order computed; a loaded result, or one solved
    without pruning, has none. ``metric_digest`` names the solve's metric:
    computed on first read from ``solver.metric`` (speed studies never read
    it), or the file's.
    """

    n: int
    m: int
    strict_resolution: bool
    pruned: bool
    rows: dict = field(default_factory=dict)
    solver: _Solver | None = field(default=None, repr=False, compare=False)
    _digest: str | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.latest, self.policy, self.capture_move = (
            _RowView(self.rows, self.solver, self.m, column) for column in range(3))

    @property
    def metric_digest(self) -> str:
        if self._digest is None:
            self._digest = metric_digest(self.solver.metric)
        return self._digest

    @property
    def on_demand_sets(self) -> tuple:
        return tuple(k for k in self.rows if k & (k - 1)) if self.pruned and self.solver else ()

    @property
    def root_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def root_latest(self):
        return self.latest[(1, self.root_mask)]

    @property
    def root_policy(self):
        return self.policy[(1, self.root_mask)]

    @property
    def tolerable_delay(self) -> float:
        return max(0.0, self.root_latest)

    def to_json(self) -> dict:
        """The rows as JSON-ready data: ``meta``, then ``sets``, one record
        per listed set in mask order, ``{"set": [members], "D": [...],
        "mu": [...], "capture": [...]}``, where index ``i`` of each list
        holds node ``i + 1``. A pruned solve lists its policy, rows filled:
        the sets that playback from the entry or the decision tree reads
        (``_Solver.walk_policy``, run once) and every singleton. A set left
        out raises ``PolicyHole`` when read back. A solve without pruning
        lists the whole lattice, a loaded result its rows. ``dumps`` writes
        this data as the indented JSON text of ``solve --format json``.

        A set's members are its lowest path and then the members of the set
        without it, when that smaller set was listed before (in a lattice it
        always is), and ``indices_of`` otherwise. Every record gets lists of
        its own, so editing one changes neither the rows nor other records."""
        solver, masks = self.solver, self.rows
        if solver is not None and self.pruned:
            masks = {*solver.walk_policy(), *(1 << k for k in range(self.n))}
            for mask in masks:
                solver.fill(mask)
        sets, listed, rows = [], {}, self.rows
        for mask in sorted(masks):
            low = mask & -mask
            rest = listed.get(mask ^ low)
            members = listed[mask] = ([low.bit_length(), *rest] if rest is not None
                                      else list(indices_of(mask)))
            latest, policy, capture = rows[mask]
            sets.append({"set": members, "D": latest[:], "mu": policy[:], "capture": capture[:]})
        return {
            "meta": {
                "n": self.n,
                "m": self.m,
                "strict_resolution": self.strict_resolution,
                "pruned": self.pruned,
                "metric_digest": self.metric_digest,
                "tolerable_delay": self.tolerable_delay,
            },
            "sets": sets,
        }

    def dumps(self) -> str:
        """Exactly ``json.dumps(self.to_json(), indent=2)``, the text of
        ``solve --format json``. The C encoder writes any separators but no
        ``indent``, so each record field is written for every record in one
        C call with the indented item separator, and the records are put
        together from a fixed template. Only what ``to_json`` writes is
        handled: a meta of scalars, and records whose four fields are
        non-empty flat lists of numbers or booleans."""
        data = self.to_json()
        records = data["sets"]
        # no number or boolean is written with a bracket, so only list edges split
        columns = [_encode_items([record[key] for record in records])[2:-2].split("]" + _ITEM + "[")
                   for key in _FIELDS]
        meta = json.dumps(data["meta"], indent=2).replace("\n", "\n  ")
        body = ",\n    ".join(map(_RECORD.__mod__, zip(*columns)))
        return '{\n  "meta": ' + meta + ',\n  "sets": [\n    ' + body + "\n  ]\n}"

    @staticmethod
    def sizes_of(data: dict) -> tuple[int, int]:
        """The ``n`` and ``m`` of ``to_json`` output, which ``from_json``
        reads first and a caller can test before it builds a row. Raises
        ValueError on the faults of ``from_json``'s first two items, and
        reads no record."""
        if isinstance(data, dict) and "entries" in data and "sets" not in data:
            raise ValueError("the tables use the per-(node, set) 'entries' layout of earlier "
                             "versions; solve the network again to write one record per set")
        meta = _fields(data, ("meta", "sets"), "the tables")[0]
        for (name, kind), value in zip(_META_TYPES.items(), _fields(meta, _META_TYPES, "meta")):
            if type(value) is not kind:
                raise ValueError(f"meta {name} is {value!r}, not of type {kind.__name__}")
        n, m = meta["n"], meta["m"]
        if min(n, m) < 1:
            raise ValueError(f"meta n is {n} and m is {m}; tables have at least one path and "
                             "one node")
        return n, m

    @classmethod
    def from_json(cls, data: dict) -> "SolveResult":
        """Rebuild the rows of ``to_json`` output; each set's row keeps the
        ``D``, ``mu`` and ``capture`` lists of its record. Raises ValueError
        on the first of these faults:
        - tables that are not an object, or that use the per-(node, set)
          ``entries`` layout of earlier versions;
        - a missing ``meta`` or ``sets``, a ``meta`` that is not an object,
          a ``meta`` field that is missing or not of its exact type
          (``_META_TYPES``), or a ``meta.n`` or ``meta.m`` below 1;
        - a ``sets`` that is not a list, or a ``meta.n`` larger than its
          number of records (every table lists each of its ``n`` singleton
          sets);
        - a record that is not an object, or that lacks ``set``, ``D``,
          ``mu`` or ``capture``;
        - a ``set`` that is not a non-empty list of integers ``1..n``
          (``True`` is not an integer here);
        - a set listed twice, in any member order;
        - a ``D``, ``mu`` or ``capture`` that is not a list of exactly ``m``
          values;
        - a ``D`` that is not a finite number, a ``mu`` that is not a node
          ``1..m``, or a ``capture`` that is not a boolean.
        The error names the tables, ``meta`` or ``sets`` for the first three,
        a record as ``sets[i]`` for the next two, and the set, with the node
        for a bad value, for the rest."""
        n, m = cls.sizes_of(data)
        meta, records = data["meta"], data["sets"]
        if type(records) is not list:
            raise ValueError(f"sets: a {type(records).__name__}, not a list")
        if n > len(records):  # checked before any mask: members are bounded by n
            raise ValueError(f"meta n is {n}, but the tables list only {len(records)} sets")
        # _fields raises, naming the first field the record lacks
        _require(lambda records: {*map(type, records)} <= {dict}
                 and all(map({*_FIELDS}.issubset, records)),
                 records, lambda i: _fields(records[i], _FIELDS, f"sets[{i}]"))
        sets, triples = [*map(itemgetter("set"), records)], [*map(_columns_of, records)]
        _require(lambda sets: {*map(type, sets)} <= {list} and all(sets)
                 and _ints_in([*chain.from_iterable(sets)], n), sets,
                 lambda i: f"sets[{i}]: set is {sets[i]!r}, not a list of paths 1..{n}")
        masks = [*map(mask_from, sets)]
        _require(lambda masks: len({*masks}) == len(masks), masks,
                 lambda i: f"set {sets[i]}: listed twice")
        columns = [*chain.from_iterable(triples)]  # a record's D, mu and capture in turn
        _require(lambda columns: {*map(type, columns)} <= {list} and {*map(len, columns)} <= {m},
                 columns, lambda i: f"set {sets[i // 3]}: {_COLUMNS[i % 3]} is "
                 f"{_shape(columns[i])}, not a list of {m} values, one per node")
        _require(lambda columns: _cells_valid(columns, m), columns,
                 lambda i: _cell_fault(sets[i // 3], triples[i // 3], m))
        return cls(n=n, m=m, strict_resolution=meta["strict_resolution"], pruned=meta["pruned"],
                   rows=dict(zip(masks, triples)), _digest=meta["metric_digest"])


def _require(rule, items: list, fault) -> None:
    """Raise ValueError(fault(i)) unless ``rule(items)``, where ``items[i]``
    ends the shortest prefix of ``items`` that breaks the rule. A rule that
    a list breaks is broken by every list that starts with it, so the
    prefix is found by bisection."""
    if not rule(items):
        first = bisect_left(range(len(items)), True, key=lambda i: not rule(items[:i + 1]))
        raise ValueError(fault(first))


def _ints_in(values: list, top: int) -> bool:
    """Whether every value is an int ``1..top``. Types are exact: a float
    1.0 would pass the range test, and ``mask_from`` reads True as path 1."""
    if not {*map(type, values)} <= {int}:
        return False
    values = {*values}  # all ints, so the distinct values hold the extremes
    return not values or 1 <= min(values) and max(values) <= top


def _shape(column) -> str:
    return (f"a list of {len(column)} values" if type(column) is list
            else f"a {type(column).__name__}")


def _cell_fault(listed: list, columns: tuple, m: int) -> str:
    """The first cell of a set's valid-shaped columns that ``_cells_valid``
    rejects, named by its set and node."""
    j, (latest, move, capture) = next((j, cell) for j, cell in enumerate(zip(*columns))
                                      if not _cells_valid([*map(list, zip(cell))], m))
    # no solve writes a D that is not finite: every set captures at the entry
    return (f"set {listed}, node {j + 1}: D {latest!r}, mu {move!r}, capture {capture!r}; "
            f"D must be a finite number, mu a node 1..{m} and capture a boolean")


def _cells_valid(columns: list, m: int) -> bool:
    """Whether the ``D``, ``mu`` and ``capture`` lists, in turn, hold only
    finite numbers, nodes ``1..m`` and booleans.

    A ``D`` column of floats alone is finite when its sum is: a sum with
    an inf or NaN term is inf or NaN, and finite floats whose sum overflows
    are then judged one by one. A column with an int is always judged one
    by one, since ints too large for a float can cancel in an int sum."""
    latest, moves, captures = (columns[i::3] for i in range(3))
    flat = chain.from_iterable
    kinds = {*map(type, flat(latest))}
    if not (kinds <= {int, float} and {*map(type, flat(captures))} <= {bool}
            and _ints_in([*flat(moves)], m)):
        return False
    try:
        return ((int not in kinds and isfinite(sum(flat(latest))))
                or all(map(isfinite, flat(latest))))
    except OverflowError:  # an int too large for a float, yet finite
        return False


def _fields(record, names, where: str) -> list:
    """The values of ``names`` in ``record``. Raises ValueError naming
    ``where`` and the first name it lacks, or when it is not an object."""
    try:
        return [record[name] for name in names]
    except KeyError as missing:
        raise ValueError(f"{where}: no field {missing.args[0]!r}") from None
    except TypeError:
        raise ValueError(f"{where}: a {type(record).__name__}, not an object") from None


def metric_digest(metric: PursuerMetric) -> str:
    blob = json.dumps([[round(v, 12) for v in row] for row in metric.d]).encode()
    return sha256(blob).hexdigest()[:12]


def known_path_margin(m: int) -> float:
    """How far a set's value may exceed its known-path bound, plus the
    tolerance of the split admissibility test, on an ``m``-node network."""
    # The bound D(u|G) <= min_{k in G} D(u|{k}) + s(G), by induction over
    # the recursion, where s(G) is slack from TIME_EPS comparisons:
    # * a singleton is its own bound: s = 0;
    # * a capture at v scores at most t_v(k) - d[u][v] for every k in G.
    #   Metric validation makes each edge of path k faster for the pursuer
    #   than for the evader by more than TIME_EPS, which pays for the
    #   TIME_EPS a triangle-checked table may lose per hop (a euclidean
    #   table loses none), so d[u][exit_k] <= d[u][v] + L_k - t_v(k) and
    #   the score is at most D(u|{k}): s = 0;
    # * a split at v scores at most D(v|part) - d[u][v] for the part that
    #   holds k, and d[u][exit_k] <= d[u][v] + d[v][exit_k] + TIME_EPS, so
    #   s grows by at most TIME_EPS per split level;
    # * the best score near-ties resolve to is some candidate's score.
    # Nested splits use distinct nodes, so s <= m * TIME_EPS. The parent
    # split is rejected when D(u|green) < t - TIME_EPS, hence whenever a
    # green known-path value is below t - (m + 1) * TIME_EPS. Doubling that
    # leaves TIME_EPS per level for the rounding of the float arithmetic.
    return 2 * (m + 1) * TIME_EPS


def tie_slack(m: int) -> float:
    """How far below a cell's best score so far a move may lie and still
    change the cell's pick, with ``TIME_EPS`` to spare, on an ``m``-node
    network."""
    # A cell keeps the first move whose score beats the best so far by more
    # than TIME_EPS. Take the chains of picks with and without one move. While
    # they differ, no move clears the higher running best by more than
    # TIME_EPS, or both chains would take it; so that best rises at most
    # TIME_EPS per move, and the maximum's move joins the chains again. A move
    # more than (K + 1) * TIME_EPS below the maximum of K <= m moves (one per
    # node) therefore never changes the pick, nor do several such moves, one
    # at a time. The best so far is at most the maximum, so a move whose
    # bound lies that far below it may go unvalued; the last TIME_EPS is for
    # the rounding of the float arithmetic.
    return (m + 2) * TIME_EPS


def set_moves(mask: int, schedule: VisitSchedule, strict: bool) -> tuple[tuple, tuple]:
    """The part of a set's candidate moves that does not depend on the
    pursuer's speed, as ``(captures, splits)``, each in node-id order over
    the nodes some path in ``mask`` passes. A capture is already the
    candidate it scores as, ``(u, first visit, CAPTURE)``; a split is
    ``(u, green, time, reds)``: the part avoiding ``u``, the last red
    report's time (which the green part must reach) and the red reports'
    sets in time order, as ``information.red_reports`` lists them."""
    captures, splits = [], []
    through = schedule.through
    for u in range(1, schedule.m + 1):
        if not mask & through[u]:
            continue
        reports = red_reports(mask, u, schedule, strict)
        green = mask & ~through[u]
        if green:
            # one report (always so under the membership convention) needs no map
            reds = (reports[0][1],) if len(reports) == 1 else tuple(map(itemgetter(1), reports))
            splits.append((u, green, reports[-1][0], reds))
        else:
            captures.append((u, reports[0][0], CAPTURE))
    return tuple(captures), tuple(splits)


class MoveTable(dict):
    """``set_moves`` of every set read, for one schedule and convention, less
    the splits no speed admits: ``table[mask]`` computes a set's moves on
    first read and keeps them. A speed study passes one table to each of its
    solves, so every set's moves are built and filtered once per study. A
    split is kept when it passes ``evaluate``'s test at ``admits``, the
    known-path bound at an all-zero metric row, where each path's ceiling is
    its length plus the margin and its exit does not matter. Every metric
    ``euclidean_metric`` or ``table_metric`` returns has entries ``>= 0``
    and both float steps of a ceiling are monotone, so no such metric gives
    a path a higher ceiling: a split left out fails at every speed."""

    def __init__(self, schedule: VisitSchedule, strict_resolution: bool):
        super().__init__()
        self.schedule, self.strict = schedule, strict_resolution
        # a path's latest visit time is its length: arrivals never decrease
        lengths = [max(filter(isfinite, column)) for column in [*zip(*schedule.times)][1:]]
        zero, bits = (0.0,), [1 << k for k in range(schedule.n)]
        known = [((zero, zero), [(length, 0) for length in lengths],
                  known_path_margin(schedule.m), None, bits), None]
        self.admits = _known_bound(known, 1)

    def __missing__(self, mask: int) -> tuple[tuple, tuple]:
        captures, splits = set_moves(mask, self.schedule, self.strict)
        ceilings, below = self.admits
        found = self[mask] = (captures, tuple(
            split for split in splits if not below[bisect_left(ceilings, split[2])] & split[1]))
        return found


def _known_bound(known: list, u: int) -> tuple[list, list]:
    """Build ``known[u]``, the known-path bound at node ``u``: the ceilings
    ``L_k - d[u][exit_k] + margin`` sorted in place, and ``below[i]``, the
    bits ORed of the first ``i`` paths by a stable index sort on them. A
    ``bisect_left`` is never inside a run of equal ceilings, so their order
    changes no test. ``known[0]`` holds ``d``, each path's ``(L_k,
    exit_k)``, the margin, ``tie_slack`` and each path's bit ``1 << k``.
    ``MoveTable`` builds one with ``d`` all zeros, where each ceiling is
    ``L_k + margin`` whatever ``exit_k``."""
    d, ends, margin, _, bits = known[0]
    du = d[u]
    ceilings = [length - du[goal] + margin for length, goal in ends]
    order = sorted(range(len(ceilings)), key=ceilings.__getitem__)
    ceilings.sort()
    found = known[u] = (ceilings, [0, *accumulate(map(bits.__getitem__, order), or_)])
    return found


def _candidates(moves: tuple, rows: dict, known: list, mask: int, nodes, row):
    """Fill the cells at ``nodes`` of the set ``mask`` in ``row``, its
    (latest, policy, capture) lists: node ``j`` keeps the first candidate
    in tie-break order whose score, its exit time at ``u`` less
    ``d[j][u]``, beats the best so far by more than ``TIME_EPS``.

    ``moves`` holds the set's valued candidates, ``(u, exit time, kind)``
    in tie-break order, then its splits not valued yet as ``[u, None,
    split]`` lists, ``split`` as ``set_moves`` lists it; a pass that values
    a split makes its list ``[u, exit time, SPLIT]``, -inf when
    inadmissible. A split reads its green part, then its red reports in
    time order, each part's cell at ``u`` from ``rows``; the pass, a
    generator, yields ``(u, part, row)`` for a cell not scored yet, ``row``
    None when the part has none, and reads the cell when resumed, once it
    is scored. ``known`` holds the known-path bounds (``_known_bound``)
    and, in ``known[0]``, what they are built from, ``d`` and ``tie_slack``
    among it. From ``j`` a split stays unvalued when its known-path ceiling
    over ``mask`` (its paths' smallest) less ``d[j][u]`` lies more than
    ``tie_slack`` below the best so far.
    """
    valued, splits = moves
    d, _, _, slack, _ = known[0]
    latest, policy, capture = row
    for j in nodes:
        dj = d[j]
        best = -inf
        for u, worth, kind in valued:
            score = worth - dj[u]
            if score > best + TIME_EPS:
                best, move, pick = score, u, kind
        for split in splits:
            u, worth, kind = split
            if worth is None:
                ceilings, below = known[u] or _known_bound(known, u)
                if below[bisect_left(ceilings, best + dj[u] - slack)] & mask:
                    continue
                _, green, time, reds = kind
                found = rows.get(green)
                worth = found and found[0][u - 1]
                if worth is None:
                    yield u, green, found
                    worth = rows[green][0][u - 1]
                if tlt(worth, time):
                    worth = -inf
                else:
                    for red in reds:
                        found = rows.get(red)
                        red_value = found and found[0][u - 1]
                        if red_value is None:
                            yield u, red, found
                            red_value = rows[red][0][u - 1]
                        if red_value < worth:
                            worth = red_value
                split[1], split[2] = worth, SPLIT
                kind = SPLIT
            score = worth - dj[u]
            if score > best + TIME_EPS:
                best, move, pick = score, u, kind
        latest[j - 1], policy[j - 1], capture[j - 1] = best, move, pick == CAPTURE


class _RowView(Mapping):
    """One column of the solved rows as a read-only mapping keyed by
    ``(node, mask)``. A read of a cell not yet filled asks ``solver`` for
    it; keys outside the solve's nodes and sets raise KeyError. The view
    holds the rows and the solver, never the result, so a dropped result is
    freed at once and a view kept on its own still fills on read."""

    __slots__ = ("rows", "solver", "m", "column")

    def __init__(self, rows, solver, m, column):
        self.rows, self.solver, self.m, self.column = rows, solver, m, column

    def __getitem__(self, key):
        j, mask = key
        if not 1 <= j <= self.m:
            raise KeyError(key)
        row = self.rows.get(mask)
        if row is None or row[0][j - 1] is None:
            solver = self.solver
            if solver is None or not 0 < mask <= solver.full:
                raise KeyError(key)
            solver.value(j, mask)
            row = self.rows[mask]
        return row[self.column][j - 1]

    def __contains__(self, key):
        j, mask = key
        return 1 <= j <= self.m and mask in self.rows

    def __iter__(self):
        return ((j, mask) for mask in self.rows for j in range(1, self.m + 1))

    def __len__(self):
        return self.m * len(self.rows)


class _Solver:
    """Computes the rows of one set at a time, one node's cell at a time.

    ``rows`` maps each computed set to its (latest, policy, capture) lists,
    indexed by node - 1. A solved result and its table views share this
    dict; the solver holds neither, so no reference cycle forms. Evaluating
    a set (``evaluate``) lists its moves and stores a row whose cells are
    all None. Scoring a node (``score``) fills that node's cell by a
    ``_candidates`` pass, which values the splits the cell needs, running
    the passes for the cells they read on an explicit stack. ``value``
    does each step the first time a cell is read; ``pending`` keeps the
    moves, splits valued so far, of the sets that may still have cells to
    score, and ``fill`` scores the rest of a set's row and drops its moves.
    ``cells_scored`` counts the cells scored, the lattice fill's included:
    ``m`` for each distinct candidate list it scores.

    A singleton's row is its path's ``base_case`` row, built whole when the
    set is first read; ``ends`` lists each path's length and exit. ``known``
    holds the known-path bounds for ``_candidates``, a node's built when it
    is first read (``_known_bound``), and in ``known[0]`` ``d``, ``ends``,
    the margin, ``tie_slack`` and the path bits. ``moves`` is the
    ``MoveTable`` the solve was given, or None to build each set's moves as
    it is computed. A solve without pruning fills every row by
    ``fill_lattice`` instead, bottom-up, through none of the steps above.
    ``walked`` holds the sets ``walk_policy`` read, or None until it runs.
    """

    def __init__(self, schedule, metric, paths, strict_resolution, moves=None):
        self.schedule = schedule
        self.metric = metric
        self.strict = strict_resolution
        self.moves = moves
        self.full = (1 << schedule.n) - 1
        self.rows: dict[int, tuple[list, list, list]] = {}
        self.pending: dict[int, tuple[tuple, list]] = {}
        self.cells_scored = 0
        self.walked = None
        self.ends = [(path.length, path.exit) for path in paths]
        m = schedule.m
        bits = [1 << k for k in range(len(paths))]
        self.known = [(metric.d, self.ends, known_path_margin(m), tie_slack(m), bits)] + [None] * m

    def value(self, u: int, mask: int):
        """The latest exit time from ``u`` holding ``mask``: a row lookup,
        evaluating the set and scoring the cell on first read."""
        row = self.rows.get(mask) or self.evaluate(mask)
        latest = row[0][u - 1]
        return self.score(mask, (u,)) if latest is None else latest

    def evaluate(self, mask: int):
        """Store the set's row with no cell scored yet, and its moves for
        ``score``: its captures, and its splits not dropped by the
        known-path bound, each ``[u, None, split]`` until a pass values it.
        The moves come from the ``MoveTable`` when the solve has one, which
        has left out the splits this test drops at every metric, and from
        ``set_moves`` otherwise. A singleton's row is its path's
        ``base_case`` row, stored whole."""
        if not mask & (mask - 1):
            row = self.rows[mask] = self.base_row(mask)
            return row
        moves = (set_moves(mask, self.schedule, self.strict) if self.moves is None
                 else self.moves[mask])
        known, splits = self.known, []
        for split in moves[1]:
            u, green, time, _ = split
            ceilings, below = known[u] or _known_bound(known, u)
            if not below[bisect_left(ceilings, time)] & green:
                splits.append([u, None, split])
        self.pending[mask] = (moves[0], splits)
        unscored = [None] * self.schedule.m
        row = self.rows[mask] = (unscored, unscored[:], unscored[:])
        return row

    def base_row(self, mask: int) -> tuple[list, list, list]:
        """The row of a singleton set: its path's ``base_case`` values, each
        node's move its exit, a capture."""
        m = self.schedule.m
        length, goal = self.ends[mask.bit_length() - 1]
        return [length - dj[goal] for dj in self.metric.d[1:]], [goal] * m, [True] * m

    def score(self, mask: int, nodes) -> float:
        """Fill the cells at ``nodes`` of an evaluated set and return the
        last one's value, as ``_candidates`` picks them. A part the top pass
        yields is evaluated if it has no row and, unless its cell is then
        known, gets a pass on top; the pass below resumes once that is done."""
        rows, pending, known = self.rows, self.pending, self.known
        self.cells_scored += len(nodes)
        stack = [_candidates(pending[mask], rows, known, mask, nodes, rows[mask])]
        while stack:
            for u, part, row in stack[-1]:
                row = row or self.evaluate(part)
                if row[0][u - 1] is None:
                    self.cells_scored += 1
                    stack.append(_candidates(pending[part], rows, known, part, (u,), row))
                    break
            else:
                stack.pop()
        return rows[mask][0][nodes[-1] - 1]

    def fill(self, mask: int) -> None:
        """Score every cell of the set's row not scored yet."""
        row = self.rows.get(mask) or self.evaluate(mask)
        unscored = [j for j, cell in enumerate(row[0], 1) if cell is None]
        if unscored:
            self.score(mask, unscored)
        self.pending.pop(mask, None)

    def fill_lattice(self) -> None:
        """Fill every row of the lattice, smaller sets first, so a split
        reads its parts' values from rows already filled. A split is kept
        when its green part reaches its last red report, worth its worst
        part. With every split valued, a ``_candidates`` pass reads only its
        list and ``d``, so one pass scores each distinct list of captures
        and kept splits for all cells, and the sets with that list share the
        row, which nothing writes after the fill.

        A node's red reports depend on the set only through its red part
        there, so each (node, red part) is read once: a capture keeps the
        reports until the first split with that red part, which keeps only
        its bar, the last report's time less ``TIME_EPS``, and its worst
        red part's value at the node. Every part of a split's red part lies
        in a smaller set, so its row is filled by then. The bar is the
        subtraction ``tlt`` makes, and the worst part is the same float the
        loop over the parts finds (no value is NaN or -0.0), so a split
        keeps the test and worth of one that reads every part. The caches
        are dropped on return."""
        schedule, rows, strict = self.schedule, self.rows, self.strict
        through, nodes = schedule.through, range(1, schedule.m + 1)
        reads = [{} for _ in range(schedule.m + 1)]
        bars = [{} for _ in range(schedule.m + 1)]
        scored = {}
        for mask in full_lattice(schedule.n):
            if not mask & (mask - 1):
                rows[mask] = self.base_row(mask)
                continue
            captures, splits = [], []
            for u in nodes:
                red = mask & through[u]
                if not red:
                    continue
                green = mask ^ red
                if not green:
                    reports = reads[u][red] = red_reports(red, u, schedule, strict)
                    captures.append((u, reports[0][0], CAPTURE))
                    continue
                found = bars[u].get(red)
                if found is None:
                    reports = reads[u].pop(red, None) or red_reports(red, u, schedule, strict)
                    found = bars[u][red] = (reports[-1][0] - TIME_EPS,
                                            min([rows[part][0][u - 1] for _, part in reports]))
                bar, worst = found
                worth = rows[green][0][u - 1]
                if worth >= bar:
                    splits.append((u, worst if worst < worth else worth, SPLIT))
            # keys match equal floats, which differ only as +-0.0; no worth is -0.0,
            # as times and lengths are >= +0.0 and x - y is -0.0 only when x is -0.0
            valued = (*captures, *splits)
            row = scored.get(valued)
            if row is None:
                row = scored[valued] = tuple([None] * schedule.m for _ in range(3))
                # every split is valued, so the pass reads no part and never yields
                next(_candidates((valued, ()), rows, self.known, mask, nodes, row), None)
            rows[mask] = row
        self.cells_scored += schedule.m * len(scored)

    def walk_policy(self) -> set:
        """Compute, once, and return the sets that playback of the policy from
        the entry with every path possible reads: at each move, every child
        (``move_children``), the sets ``observe`` can keep there and the
        decision tree draws."""
        if self.walked is not None:
            return self.walked
        seen = {(1, self.full)}
        stack = list(seen)
        while stack:
            p, mask = stack.pop()
            if mask & (mask - 1) == 0:  # a known path's row reads no other set
                continue
            self.value(p, mask)
            u = self.rows[mask][1][p - 1]
            for _, _, sub in move_children(mask, u, self.schedule, self.strict):
                if (u, sub) not in seen:
                    seen.add((u, sub))
                    stack.append((u, sub))
        self.walked = {mask for _, mask in seen}
        return self.walked


def full_lattice(n: int) -> tuple[int, ...]:
    """Every non-empty set of ``n`` paths, by size, then by mask (a stable sort)."""
    return tuple(sorted(range(1, 1 << n), key=int.bit_count))


def solve(network, schedule: VisitSchedule, metric: PursuerMetric, paths,
          prune: bool = True, strict_resolution: bool = False,
          close_for_simulation: bool = True, *, moves: MoveTable | None = None) -> SolveResult:
    """Solve the root set top-down, computing only the subsets it reads.

    The solve reads the root's cell at the entry. Cells it did not fill
    are filled when the returned tables read them, and ``to_json`` computes
    the sets playback reads, then fills and lists only those and the
    singletons. With ``prune`` off, the solve fills every row of the full
    subset lattice bottom-up instead (``_Solver.fill_lattice``).
    ``close_for_simulation`` is accepted and has no effect.

    ``moves`` is a ``MoveTable`` shared by the solves of one speed study
    (``analysis`` passes one under either convention): a pruned solve
    reads each set's moves from it, and so do later reads of the result's
    tables; the lattice fill lists its own. Without it the solve builds
    each set's moves when it computes the set and keeps none. Either way
    the moves are scored the same way, so both compute the same sets and
    rows when every entry of ``metric`` is ``>= 0``, as ``euclidean_metric``
    and ``table_metric`` guarantee (``validate_metric`` checks it): the
    table leaves out the splits that fail the known-path bound at a zero
    travel time. Raises ValueError for a table made for another schedule or
    convention.
    """
    if moves is not None and (moves.schedule != schedule or moves.strict != strict_resolution):
        raise ValueError(f"the move table is for another schedule or convention: table "
                         f"strict_resolution={moves.strict}, solve {strict_resolution}")
    worker = _Solver(schedule, metric, paths, strict_resolution, moves)
    if prune:
        worker.value(1, worker.full)
    else:
        worker.fill_lattice()
    return SolveResult(n=schedule.n, m=schedule.m, strict_resolution=strict_resolution,
                       pruned=prune, rows=worker.rows, solver=worker)
