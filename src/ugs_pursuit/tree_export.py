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
parent's, so depth never exceeds the path count. Trees are built, walked
and written on explicit stacks, so no depth meets the recursion limit.
Playback (``information.observe``) reads each move the same way: the
pursuer waits at the move's node until its last red report, so a passage
while it waits is a capture there, which the tree draws as a red report.
A playback at the solved delay or below walks the tree from its root.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import PolicyHole
from .information import move_children
from .network import PursuerMetric, VisitSchedule, indices_of
from .solver import SolveResult, metric_digest


@dataclass(frozen=True, eq=False)  # generated == and repr would recurse: compare renderings
class TreeNode:
    ugs: int
    mask: int
    latest: float
    kind: str  # "decision" or "capture"
    resolve_t: float | None = None
    children: dict = field(default_factory=dict, repr=False)

    def depth(self) -> int:
        level, nodes = 0, [self]
        while nodes := [child for node in nodes for child in node.children.values()]:
            level += 1
        return level

    def leaves(self):
        return (node for node in self.walk() if not node.children)

    def walk(self):
        stack = [self]
        while stack:
            yield (node := stack.pop())
            stack += reversed(node.children.values())


def build_tree(result: SolveResult, schedule: VisitSchedule, metric: PursuerMetric,
               root=None) -> TreeNode:
    """Expand the policy into a decision tree from ``root`` (default: the
    entry node with full uncertainty), reading the cells depth first.

    ``metric`` is only used to confirm the tables were solved for it: no
    check when the result's solver holds this very metric, digests otherwise.
    Raises PolicyHole when the tables lack a reached (node, set) pair, or
    when a move reads no path of the set held (``move_children``).
    """
    solver = result.solver
    if (solver is None or solver.metric is not metric) \
            and metric_digest(metric) != result.metric_digest:
        raise ValueError("metric does not match the one the tables were solved with")
    strict = result.strict_resolution
    top = {}
    stack = [(top, None, *(root or (1, result.root_mask)), None)]
    while stack:
        siblings, label, j, mask, resolve_t = stack.pop()
        try:
            latest = result.latest[(j, mask)]
        except KeyError:
            raise PolicyHole(f"no table entry for node {j}, set {indices_of(mask)}") from None
        move = result.policy[(j, mask)]
        capture = result.capture_move[(j, mask)]  # wait at the move for each red report
        children, expand = {}, []
        for obs, t, sub in move_children(mask, move, schedule, strict):
            if capture and obs != "green":
                children[obs] = TreeNode(ugs=move, mask=sub, latest=t, kind="capture", resolve_t=t)
            else:
                children[obs] = None  # holds the label's place until its entry is popped
                expand.append((children, obs, move, sub, t))
        siblings[label] = TreeNode(ugs=j, mask=mask, latest=latest, kind="decision",
                                   resolve_t=resolve_t, children=children)
        stack += reversed(expand)
    return top[None]


def tree_dumps(tree: TreeNode) -> str:
    """The tree as indented JSON (``indent=2``), one object per node: ``ugs``,
    ``set``, ``D``, ``kind``, ``t`` but at the root, and ``children`` by report
    label but at a leaf. The stdlib writes each node's own fields, re-indented
    to its depth; labels, commas and closing braces come off the same stack."""
    parts, stack = [], [("", tree, "")]  # (text written first, node or None, node's indent)
    while stack:
        before, node, pad = stack.pop()
        parts.append(before)
        if node is None:
            continue
        record = {"ugs": node.ugs, "set": list(indices_of(node.mask)), "D": node.latest,
                  "kind": node.kind, **({} if node.resolve_t is None else {"t": node.resolve_t})}
        text = json.dumps(record, indent=2).replace("\n", "\n" + pad)
        if node.children:  # the record's closing brace gives way to the children's
            stack.append(("\n" + pad + "  }\n" + pad + "}", None, None))
            stack += reversed([(f"{',' * bool(k)}\n{pad}    {json.dumps(obs)}: ", child, pad + "    ")
                               for k, (obs, child) in enumerate(node.children.items())])
            text = text[:-2 - len(pad)] + ",\n" + pad + '  "children": {'
        parts.append(text)
    return "".join(parts)


def tree_to_dot(node: TreeNode) -> str:
    """The tree in Graphviz DOT, its nodes numbered in preorder."""
    lines = ["digraph pursuit {", '  node [shape=box, fontname="Helvetica"];']
    stack, count = [(node, None, None)], 0  # (node, parent's number, report), or an edge line
    while stack:
        entry = stack.pop()
        if isinstance(entry, str):
            lines.append(entry)
            continue
        current, parent, obs = entry
        idx, count = count, count + 1
        if current.kind == "capture":
            label = f"capture @ UGS {current.ugs}\\nt={current.latest:.4g}"
            lines.append(f'  n{idx} [label="{label}", shape=oval];')
        else:
            members = ",".join(str(i) for i in indices_of(current.mask))
            label = f"UGS {current.ugs} | {{{members}}} | D={current.latest:.4g}"
            lines.append(f'  n{idx} [label="{label}"];')
        if parent is not None:  # beneath the children: written after the subtree
            stack.append(f'  n{parent} -> n{idx} [label="{obs} t={current.resolve_t:.4g}"];')
        for obs, child in reversed(current.children.items()):
            stack.append((child, idx, obs))
    lines.append("}")
    return "\n".join(lines) + "\n"
