"""Span tracing applied to the package from outside.

A traced run replaces the functions through which one module calls the next
with wrappers that record a span (name, parent, answer, phase, start, end and
optional counts). The benchmark's own calls into the package go through
``Tracer.call`` as well, so every layer boundary an answer crosses is a span.
Spans stay in memory until the run ends. A span's self time is its duration
minus the durations of its direct children.

``NullTracer`` has the same interface and adds nothing but a function call,
so untraced runs time the same code paths.
"""

from __future__ import annotations

import json
import statistics
import time
from functools import wraps

# Counts read from the value a span returns, keyed by span name.
COUNT_HOOKS = {
    "solver.solve": lambda result: {"cells": len(result.latest),
                                    "on_demand_sets": len(result.on_demand_sets)},
    "information.realizable_sets": lambda family: {"family_sets": len(family.sets)},
}

# Per-layer time metrics: the span names whose self time each one sums.
LAYER_TIMES = {
    "information.realizable_s": ("information.realizable_sets",),
    "solver.solve_self_s": ("solver.solve",),
    "solver.to_json_s": ("solver.to_json",),
    "solver.from_json_s": ("solver.from_json",),
    "simulator.oracle_s": ("simulator.oracle",),
    "simulator.playback_s": ("simulator.verify", "simulator.simulate"),
    "analysis.self_s": ("analysis.sweep", "analysis.critical_speed"),
    "tree_export.build_s": ("tree_export.build_tree",),
    "tree_export.render_s": ("tree_export.tree_to_dot",),
    "cli.self_s": ("cli.main",),
}

NAME, PARENT, ANSWER, PHASE, START, END, COUNTS = range(7)


class NullTracer:
    active = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value):
        pass


class Tracer:
    """Records spans and loop-phase counters in memory."""

    active = True

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.phase = "setup"
        self.answer_id = None
        self.counters: dict[str, list] = {}

    def call(self, name, fn, *args, **kwargs):
        span = [name, self.stack[-1] if self.stack else None, self.answer_id, self.phase,
                0.0, 0.0, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            self.stack.pop()
        hook = COUNT_HOOKS.get(name)
        if hook is not None:
            span[COUNTS] = hook(result)
        return result

    def count(self, name, value):
        if self.phase == "loop":
            self.counters.setdefault(name, []).append(value)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": span[NAME], "parent": span[PARENT],
                    "answer": span[ANSWER], "phase": span[PHASE],
                    "start": span[START], "end": span[END], "counts": span[COUNTS],
                }) + "\n")


def install(tracer: Tracer):
    """Wrap the cross-module calls of the package; returns the undo function."""
    from ugs_pursuit import analysis, cli, simulator, solver
    from ugs_pursuit.solver import SolveResult

    saved = []

    def wrap(owner, attr, name):
        original = getattr(owner, attr)
        saved.append((owner, attr, owner.__dict__[attr]))

        @wraps(original)
        def traced(*args, **kwargs):
            return tracer.call(name, original, *args, **kwargs)

        return traced

    for owner, attr, name in (
        (solver, "realizable_sets", "information.realizable_sets"),
        (analysis, "solve", "solver.solve"),
        (cli, "solve", "solver.solve"),
        (simulator, "simulate", "simulator.simulate"),
        (SolveResult, "to_json", "solver.to_json"),
    ):
        setattr(owner, attr, wrap(owner, attr, name))
    from_json = wrap(SolveResult, "from_json", "solver.from_json")
    SolveResult.from_json = classmethod(lambda cls, data: from_json(data))

    def undo():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer: Tracer, answers: int) -> dict:
    """Per-layer figures of a traced run.

    Times are self seconds per answer over the demo check and the timed loop
    (the network times cover the in-process set-up instead); counts cover
    the timed loop only.
    """
    spans = tracer.spans
    self_time = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] is not None:
            self_time[span[PARENT]] -= span[END] - span[START]

    def total(names, phases):
        return sum(self_time[i] for i, span in enumerate(spans)
                   if span[NAME] in names and span[PHASE] in phases)

    loop = [i for i, span in enumerate(spans) if span[PHASE] == "loop"]

    def named(name):
        return [i for i in loop if spans[i][NAME] == name]

    def counted(name, key):
        return [spans[i][COUNTS][key] for i in named(name)]

    def counter(name):
        return tracer.counters.get(name, [])

    per_answer = max(answers, 1)
    solves = named("solver.solve")
    studies = {i for i in loop if spans[i][NAME].startswith("analysis.")}
    study_solves = [i for i in solves if spans[i][PARENT] in studies]
    tree_cells = sum(counter("tree.cells"))

    out = {
        "network.build_s": total(("network.build",), ("setup",)),
        "network.metric_s": total(("network.metric",), ("setup",)),
    }
    for metric, names in LAYER_TIMES.items():
        out[metric] = total(names, ("demo", "loop")) / per_answer
    out.update({
        "information.family_sets": _mean(counted("information.realizable_sets", "family_sets")),
        "solver.solves": len(solves) / per_answer,
        "solver.cells": _mean(counted("solver.solve", "cells")),
        "solver.on_demand_sets": _mean(counted("solver.solve", "on_demand_sets")),
        "solver.json_mb": _mean(counter("solver.json_bytes")) / 1e6,
        "solver.reach_ratio": sum(counter("tree.decisions")) / tree_cells if tree_cells else 0.0,
        "simulator.oracle_calls": len(named("simulator.oracle")) / per_answer,
        "simulator.playbacks": len(named("simulator.simulate")) / per_answer,
        "analysis.solves_per_study": len(study_solves) / len(studies) if studies else 0.0,
        "tree_export.nodes": _mean(counter("tree_export.nodes")),
        "cli.output_mb": _mean(counter("cli.output_bytes")) / 1e6,
    })
    answer_times = [spans[i][END] - spans[i][START] for i in named("answer")]
    out["trace.answer_p50_s"] = statistics.median(answer_times) if answer_times else 0.0
    return out
