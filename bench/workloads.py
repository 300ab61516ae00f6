"""The benchmark's workloads: instances, answers and the checks on them.

An answer is one solved root value for one (instance, convention), followed by
its check. ``build`` returns a workload whose ``answers`` make up one pass;
every answer returns an ``Outcome`` that ``judge`` compares with the pinned
reference. Every call passes the resolution convention explicitly, so a later
change of the package's default does not change what a workload measures.
The CLI workload is the exception by design: it runs ``solve`` once without
flags and once with ``--strict-resolution`` and reads the convention back
from the output.

Calls into the package go through ``tracer.call`` so that a traced run
records a span at each boundary; ``tracer.count`` records per-answer counts.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from ugs_pursuit import (
    PursuitError,
    SolveResult,
    build_schedule,
    build_tree,
    cli,
    critical_speed,
    demo_bundle,
    enumerate_paths,
    euclidean_metric,
    oracle_max_delay,
    random_instance,
    random_layered_network,
    realizable_sets,
    solve,
    sweep,
    table_metric,
    tree_to_dot,
    validate_network,
    verify_guarantee,
)
from ugs_pursuit.fixtures import speed_floor
from ugs_pursuit.network import mask_from

ORACLE_TOL = 1e-6
PIN_TOL = 1e-9
PAPER_TOL = 0.01
SPEED_MARGIN = 1.1
CONVENTIONS = (("default", False), ("strict", True))


@dataclass
class Outcome:
    """What one answer produced.

    ``values`` are compared with the pinned reference. ``playback_ok`` is
    None when the solved delay is zero (nothing to play back); ``oracle_ok``
    is None when the instance is beyond the oracle's caps.
    """

    key: str
    values: dict
    playback_ok: bool | None = None
    oracle_ok: bool | None = None
    problems: list = field(default_factory=list)


@dataclass
class Workload:
    name: str
    answers: list
    paths: int


def network_raw(network, ids=None) -> dict:
    """The network in the JSON input shape, node ``j`` renamed ``ids[j]``."""
    ids = ids or {j: j for j in range(1, network.m + 1)}
    return {
        "nodes": [{"id": ids[j], "x": network.coords[j][0], "y": network.coords[j][1]}
                  for j in range(1, network.m + 1)],
        "edges": [{"from": ids[a], "to": ids[b], "time": t} for a, b, t in network.edges()],
        "entry": ids[network.entry],
    }


def relabel(network, seed: int):
    """The same network with node ids 2..m permuted by ``seed`` (the entry
    stays 1); seed 0 keeps the generator's labels."""
    if seed == 0:
        return network
    others = list(range(2, network.m + 1))
    shuffled = others[:]
    random.Random(seed).shuffle(shuffled)
    return validate_network(network_raw(network, {1: 1, **dict(zip(others, shuffled))}))


def _layered(seed: int, widths, relabel_seed: int):
    network = relabel(random_layered_network(seed, widths=widths), relabel_seed)
    paths = enumerate_paths(network)
    return network, paths, build_schedule(paths, network.m)


def plays_back(tracer, network, schedule, metric, result):
    """Whether the tables capture every path at their own solved delay."""
    delay = result.tolerable_delay
    if delay <= 0:
        return None
    try:
        report = tracer.call("simulator.verify", verify_guarantee,
                             network, schedule, metric, result, delay)
    except PursuitError:
        return False
    return report.all_captured


def _corpus(seed, tracer, workdir):
    """Criterion 5's corpus: random_instance seeds 1-50 (n<=4, m<=8) at 1.1x
    the speed floor, both conventions. The seed shuffles the answer order."""
    answers = []
    paths = 0
    for instance in range(1, 51):
        network, inst_paths, schedule = tracer.call("network.build", random_instance, instance)
        metric = tracer.call("network.metric", euclidean_metric, network,
                             SPEED_MARGIN * speed_floor(network))
        paths += len(inst_paths)
        for convention, strict in CONVENTIONS:
            answers.append(_corpus_answer(tracer, f"{instance}/{convention}", strict,
                                          network, inst_paths, schedule, metric))
    random.Random(seed).shuffle(answers)
    return answers, paths


def _corpus_answer(tracer, key, strict, network, paths, schedule, metric):
    def answer():
        result = tracer.call("solver.solve", solve, network, schedule, metric, paths,
                             strict_resolution=strict)
        oracle = tracer.call("simulator.oracle", oracle_max_delay, network, schedule, metric,
                             paths, strict_resolution=strict)
        values = {"root": result.root_latest}
        if strict:
            values["exact"] = tracer.call("simulator.oracle", oracle_max_delay, network,
                                          schedule, metric, paths, exact=True)
        return Outcome(key, values,
                       playback_ok=plays_back(tracer, network, schedule, metric, result),
                       oracle_ok=abs(result.tolerable_delay - oracle) <= ORACLE_TOL)
    return answer


def _lattice(seed, tracer, workdir):
    """Criterion 10's n=10, m=15 instance: full-lattice and pruned solves
    under both conventions, each exported, reloaded, played back and drawn."""
    network, paths, schedule = tracer.call("network.build", _layered, 85, [1, 3, 3, 3, 3, 2], seed)
    metric = tracer.call("network.metric", euclidean_metric, network,
                         SPEED_MARGIN * speed_floor(network))
    answers = [
        _lattice_answer(tracer, f"{label}/{convention}", prune, strict,
                        network, paths, schedule, metric)
        for label, prune in (("full", False), ("pruned", True))
        for convention, strict in CONVENTIONS
    ]
    return answers, len(paths)


def _lattice_answer(tracer, key, prune, strict, network, paths, schedule, metric):
    def answer():
        result = tracer.call("solver.solve", solve, network, schedule, metric, paths,
                             prune=prune, strict_resolution=strict)
        text = json.dumps(result.to_json())
        reloaded = SolveResult.from_json(json.loads(text))
        outcome = Outcome(key, {"root": reloaded.root_latest},
                          playback_ok=plays_back(tracer, network, schedule, metric, reloaded))
        try:
            tree = tracer.call("tree_export.build_tree", build_tree, reloaded, schedule, metric)
            tracer.call("tree_export.tree_to_dot", tree_to_dot, tree)
        except PursuitError as exc:
            outcome.problems.append(f"tree export: {exc}")
            return outcome
        if tracer.active:
            nodes = list(tree.walk())
            tracer.count("solver.json_bytes", len(text))
            tracer.count("tree_export.nodes", len(nodes))
            tracer.count("tree.decisions", sum(node.kind == "decision" for node in nodes))
            tracer.count("tree.cells", len(reloaded.latest))
        return outcome
    return answer


def _layered_cli(seed, tracer, workdir):
    """random_layered_network(13) (n=16, m=10) through the CLI's JSON solve,
    without flags and with --strict-resolution, then reloaded and played
    back."""
    network, paths, schedule = tracer.call("network.build", _layered, 13, None, seed)
    speed = SPEED_MARGIN * speed_floor(network)
    metric = tracer.call("network.metric", euclidean_metric, network, speed)
    network_file = Path(workdir) / "layered.json"
    network_file.write_text(json.dumps(network_raw(network)))
    argv = ["solve", "--network", str(network_file), "--speed", repr(speed), "--format", "json"]
    answers = [_cli_answer(tracer, argv + flags, network, schedule, metric)
               for flags in ([], ["--strict-resolution"])]
    return answers, len(paths)


def _cli_answer(tracer, argv, network, schedule, metric):
    def answer():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = tracer.call("cli.main", cli.main, argv)
        text = out.getvalue()
        tracer.count("cli.output_bytes", len(text))
        if code != 0:
            return Outcome(f"exit {code}", {}, problems=[f"exit status {code}"])
        data = json.loads(text)
        result = SolveResult.from_json(data)
        key = "strict" if data["meta"]["strict_resolution"] else "default"
        return Outcome(key, {"root": result.root_latest},
                       playback_ok=plays_back(tracer, network, schedule, metric, result))
    return answer


def _sweep(seed, tracer, workdir):
    """Criterion 8's 20-point speed grid plus the critical-speed bisection on
    random_layered_network(17) (n=18, m=11), strict convention."""
    network, paths, schedule = tracer.call("network.build", _layered, 17, None, seed)
    floor = speed_floor(network)
    grid = [floor * (1.02 + 0.2 * i) for i in range(20)]
    top_metric = tracer.call("network.metric", euclidean_metric, network, grid[-1])

    def answer():
        table = tracer.call("analysis.sweep", sweep, network, schedule, paths, grid,
                            strict_resolution=True)
        critical = tracer.call("analysis.critical_speed", critical_speed, network, schedule,
                               paths, floor, grid[-1], strict_resolution=True)
        top = tracer.call("solver.solve", solve, network, schedule, top_metric, paths,
                          strict_resolution=True)
        delays = [row.delay for row in table.rows]
        outcome = Outcome("study", {"delays": delays, "critical_speed": critical,
                                    "top_root": top.root_latest},
                          playback_ok=plays_back(tracer, network, schedule, top_metric, top))
        if any(b < a - PIN_TOL for a, b in zip(delays, delays[1:])):
            outcome.problems.append("delay decreases along the speed grid")
        if abs(delays[-1] - top.tolerable_delay) > PIN_TOL:
            outcome.problems.append("sweep and direct solve disagree at the top speed")
        return outcome

    return [answer], len(paths)


BUILDERS = {"corpus": _corpus, "lattice": _lattice, "layered": _layered_cli, "sweep": _sweep}


def build(name: str, seed: int, tracer, workdir) -> Workload:
    answers, paths = BUILDERS[name](seed, tracer, workdir)
    return Workload(name, answers, paths)


def _close(got, want) -> bool:
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_close(g, w) for g, w in zip(got, want)))
    if got is None or want is None:
        return got is want
    return abs(got - want) <= PIN_TOL


def judge(name: str, outcome: Outcome, reference: dict) -> tuple[bool, bool]:
    """(failed, unexpected) for one answer.

    An answer fails when playback at its solved delay escapes or raises, the
    matched-convention oracle disagrees, a pinned value differs, or another
    check on it fails. A failure is unexpected unless it is a playback
    failure the reference lists as known.
    """
    pinned = reference["answers"][name].get(outcome.key)
    pins_ok = pinned is not None and all(
        _close(outcome.values.get(k), v) for k, v in pinned.items())
    other_ok = pins_ok and outcome.oracle_ok is not False and not outcome.problems
    known = outcome.key in reference["known_playback_failures"][name]
    failed = not other_ok or outcome.playback_ok is False
    unexpected = not other_ok or (outcome.playback_ok is False and not known)
    return failed, unexpected


def check_demo(tracer, reference) -> tuple[dict, list]:
    """Reproduce the paper's demo numbers through every layer.

    Returns the values to pin and the problems found: the published event
    table (8 realizable sets, event times), the 11.83 infinite-speed value,
    the 16.30 exit-six subgame, the 1.61/1.62 restructuring, both
    conventions against the oracle, CLI JSON round trip and playback.
    """
    network, paths, schedule = tracer.call("network.build", demo_bundle)
    problems = []
    values = {}
    index = {p.nodes: p.index for p in paths}
    pair = mask_from([index[(1, 3, 4, 6)], index[(1, 3, 4, 7)]])

    family = tracer.call("information.realizable_sets", realizable_sets, schedule, paths)
    times = [0.00, 4.83, 6.83, 11.83, 12.06, 14.66, 16.30, 17.54]
    if len(family.sets) != 8 or len(family.log) != len(times) or any(
            abs(event.time - want) > PAPER_TOL for event, want in zip(family.log, times)):
        problems.append("realizable family differs from the published event table")

    zero = table_metric([[0.0] * network.m for _ in range(network.m)], network)
    values["zero_speed_root"] = tracer.call("solver.solve", solve, network, schedule, zero,
                                            paths, strict_resolution=False).root_latest
    if abs(values["zero_speed_root"] - 11.83) > PAPER_TOL:
        problems.append("infinite-speed value is not 11.83")

    for speed in (1.61, 1.62):
        metric = euclidean_metric(network, speed)
        for convention, strict in CONVENTIONS:
            result = tracer.call("solver.solve", solve, network, schedule, metric, paths,
                                 strict_resolution=strict)
            oracle = tracer.call("simulator.oracle", oracle_max_delay, network, schedule,
                                 metric, paths, strict_resolution=strict)
            values[f"{speed}/{convention}"] = result.root_latest
            if abs(result.tolerable_delay - oracle) > ORACLE_TOL:
                problems.append(f"oracle disagrees at speed {speed}, {convention}")
            values[f"{speed}/{convention}/subgame"] = result.latest[(6, pair)]
            values[f"{speed}/{convention}/subgame_move"] = result.policy[(6, pair)]
    if abs(values["1.62/default/subgame"] - 16.30) > PAPER_TOL \
            or values["1.62/default/subgame_move"] != 6 \
            or values["1.61/default/subgame_move"] == 6:
        problems.append("exit-six subgame does not restructure across 1.61/1.62")

    metric = euclidean_metric(network, 1.62)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        tracer.call("cli.main", cli.main, ["solve", "--network", "demo", "--speed", "1.62",
                                           "--strict-resolution", "--format", "json"])
    result = SolveResult.from_json(json.loads(out.getvalue()))
    values["cli_strict_root"] = result.root_latest
    if plays_back(tracer, network, schedule, metric, result) is False:
        problems.append("demo playback fails at the solved delay")
    tree = tracer.call("tree_export.build_tree", build_tree, result, schedule, metric,
                       root=(6, pair))
    tracer.call("tree_export.tree_to_dot", tree_to_dot, tree)
    red_leaf = next(iter(tree.children["red"].leaves()))
    if red_leaf.ugs != 6 or abs(red_leaf.latest - 16.30) > PAPER_TOL:
        problems.append("exit-six tree does not wait at 6 until 16.30")

    table = tracer.call("analysis.sweep", sweep, network, schedule, paths, [1.61, 1.62],
                        strict_resolution=False)
    values["sweep_delays"] = [row.delay for row in table.rows]
    values["critical_speed"] = tracer.call("analysis.critical_speed", critical_speed, network,
                                           schedule, paths, 1.0, 2.0, strict_resolution=False)
    if reference is not None:
        for key, want in reference["demo"].items():
            if not _close(values.get(key), want):
                problems.append(f"demo value {key} differs from the pinned reference")
    return values, problems
