"""Materialized pursuer decision trees with DOT and JSON renderings.

A tree expands the solved policy from a root (node, uncertainty set),
drawing each move's children (``information.move_children``): one per red
report (one under the membership convention, one per visit-time class
under strict resolution), then the green report when some path avoids the
move's node. At a capture move the red reports are capture leaves; every
other child is expanded in turn. The export's policy walk follows the
same children. A known path needs no case of its own: the solver stores
every singleton row as a capture move at the path's exit, so it ends in
the capture leaf there. Every child set is a strict subset of its
parent's, so depth never exceeds the path count. Playback
(``information.observe``) reads each move the same way: the pursuer waits
at the move's node until its last red report, so a passage while it waits
is a capture there, which the tree draws as a red report. A playback at
the solved delay or below walks the tree from its root.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from .errors import PolicyHole, PursuitError
from .information import move_children
from .network import PursuerMetric, VisitSchedule, indices_of
from .solver import SolveResult, metric_digest


@dataclass(frozen=True)
class TreeNode:
    ugs: int
    mask: int
    latest: float
    kind: str  # "decision" or "capture"
    resolve_t: float | None = None
    children: dict = field(default_factory=dict)

    def depth(self) -> int:
        level, nodes = 0, [self]
        while nodes := [child for node in nodes for child in node.children.values()]:
            level += 1
        return level

    def leaves(self):
        return (node for node in self.walk() if not node.children)

    def walk(self):
        yield self
        for child in self.children.values():
            yield from child.walk()


def build_tree(result: SolveResult, schedule: VisitSchedule, metric: PursuerMetric,
               root=None) -> TreeNode:
    """Expand the policy into a decision tree from ``root`` (default: the
    entry node with full uncertainty).

    ``metric`` is only used to confirm the tables were solved for it: no
    check when the result's solver holds this very metric, digests otherwise.
    Raises PolicyHole when the tables lack a reached (node, set) pair, or
    when a move reads no path of the set held (``move_children``), and
    PursuitError when the tree nests deeper than Python's recursion limit.
    """
    solver = result.solver
    if (solver is None or solver.metric is not metric) \
            and metric_digest(metric) != result.metric_digest:
        raise ValueError("metric does not match the one the tables were solved with")
    strict = result.strict_resolution

    def lookup(j, mask):
        try:
            return result.latest[(j, mask)]
        except KeyError:
            raise PolicyHole(f"no table entry for node {j}, set {indices_of(mask)}") from None

    def expand(j, mask, resolve_t, level):
        latest = lookup(j, mask)
        move = result.policy[(j, mask)]
        capture = result.capture_move[(j, mask)]  # wait at the move for each red report
        try:
            children = {label: TreeNode(ugs=move, mask=sub, latest=t, kind="capture", resolve_t=t)
                        if capture and label != "green" else expand(move, sub, t, level + 1)
                        for label, t, sub in move_children(mask, move, schedule, strict)}
        except RecursionError:  # the deepest level that can still raise names itself
            raise PursuitError(f"the decision tree is more than {level} levels deep, too deep for "
                               f"Python's recursion limit of {sys.getrecursionlimit()}") from None
        return TreeNode(ugs=j, mask=mask, latest=latest, kind="decision",
                        resolve_t=resolve_t, children=children)

    j, mask = root or (1, result.root_mask)
    return expand(j, mask, None, 0)


def tree_to_json(node: TreeNode) -> dict:
    out = {
        "ugs": node.ugs,
        "set": list(indices_of(node.mask)),
        "D": node.latest,
        "kind": node.kind,
    }
    if node.resolve_t is not None:
        out["t"] = node.resolve_t
    if node.children:
        out["children"] = {label: tree_to_json(child) for label, child in node.children.items()}
    return out


def tree_to_dot(node: TreeNode) -> str:
    lines = ["digraph pursuit {", '  node [shape=box, fontname="Helvetica"];']
    counter = [0]

    def emit(current: TreeNode) -> int:
        idx = counter[0]
        counter[0] += 1
        if current.kind == "capture":
            label = f"capture @ UGS {current.ugs}\\nt={current.latest:.4g}"
            lines.append(f'  n{idx} [label="{label}", shape=oval];')
        else:
            members = ",".join(str(i) for i in indices_of(current.mask))
            label = f"UGS {current.ugs} | {{{members}}} | D={current.latest:.4g}"
            lines.append(f'  n{idx} [label="{label}"];')
        for obs, child in current.children.items():
            cid = emit(child)
            lines.append(f'  n{idx} -> n{cid} [label="{obs} t={child.resolve_t:.4g}"];')
        return idx

    emit(node)
    lines.append("}")
    return "\n".join(lines) + "\n"
