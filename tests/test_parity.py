"""Output parity on a fixed instance set, against committed digests.

``tests/parity.json`` holds one sha256 per (instance, speed, convention,
output). The instances are corpus 1-50 (``random_instance``), the demo and
the layered networks L13, L17, L36 and L85, each at 1.1 and 2 times its
speed floor, under the membership and the strict convention. The outputs
of each are ``SolveResult.dumps()``, the ``dumps()`` of the tables reloaded
by ``from_json``, the DOT drawing of the decision tree, and the playback
of every path on the reloaded tables (``verify_guarantee``) at the solved
delay and at half of it: each outcome with its transcript, or the error
text. The same playback runs at 1.25 and 1.5 times the solved delay (times
1 when that is 0), above the value, where a late red can reach a capture
move and a stay can read red again. The demo, L13 and L17 also hash a
21-point ``sweep`` CSV and the ``critical_speed`` between the floor and
the grid's top, per convention.
The demo and the layered networks also hash what the command line prints,
with its exit status: ``solve`` text, ``simulate --path 1`` and ``verify``
in text and ``--format json``, each at the solved delay, or at 1 when that
is 0 (a delay the commands refuse). Last come the general DAGs of
``conftest.dag_cases`` seeds 1-200: membership playback of every path at
the case's own solved delay, when that is positive. No test asserts what
it gives, and it fails on about a third of the cases, so the digests are
what shows a change there.

A change that should change no output leaves the file as it is. A change
that changes outputs on purpose rewrites it and names the changed keys:

    PYTHONPATH=src python tests/test_parity.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
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
    random_instance,
    random_layered_network,
    solve,
    speed_floor,
    sweep,
    tree_to_dot,
    verify_guarantee,
)

from conftest import dag_cases

DIGESTS = Path(__file__).with_name("parity.json")
LAYERED = {"L13": (13, None), "L17": (17, None), "L36": (5, None),
           "L85": (85, [1, 3, 3, 3, 3, 2])}
STUDIED = ("demo", "L13", "L17")
CONVENTIONS = {"membership": False, "strict": True}
FACTORS = {"x1.1": 1.1, "x2": 2.0}
LATE = {"verify-x1.25": 1.25, "verify-x1.5": 1.5}
DAG_SEEDS = range(1, 201)


def instances():
    """(name, (network, paths, schedule)) for every instance of the set."""
    for seed in range(1, 51):
        yield f"corpus-{seed}", random_instance(seed)
    yield "demo", demo_bundle()
    for name, (seed, widths) in LAYERED.items():
        network = random_layered_network(seed, widths)
        paths = enumerate_paths(network)
        yield name, (network, paths, build_schedule(paths, network.m))


def text_or_error(call) -> str:
    try:
        return call()
    except PursuitError as exc:
        return f"{type(exc).__name__}: {exc}"


def playback(network, schedule, metric, tables, delay) -> str:
    report = verify_guarantee(network, schedule, metric, tables, delay)
    return json.dumps([[k, outcome.captured, outcome.time, outcome.node, outcome.to_jsonl()]
                       for k, outcome in report.outcomes.items()])


def command_line(argv) -> str:
    """The exit status and everything ``ugs-pursuit argv`` prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return f"exit {status}\n{out.getvalue()}{err.getvalue()}"


def command_lines(name, network, folder, speed, strict, delay):
    """(output, text) for each command the set runs on one instance."""
    if name == "demo":
        source = "demo"
    else:
        source = str(Path(folder) / f"{name}.json")
        Path(source).write_text(json.dumps({
            "nodes": [{"id": j, "x": x, "y": y} for j, (x, y) in enumerate(network.coords[1:], 1)],
            "edges": [{"from": a, "to": b, "time": t} for a, b, t in network.edges()],
            "entry": network.entry}))
    given = ["--network", source, "--speed", repr(speed), *(["--strict-resolution"] * strict)]
    at = ["--t0", repr(delay or 1.0)]
    yield "cli-solve", command_line(["solve", *given])
    yield "cli-simulate", command_line(["simulate", *given, "--path", "1", *at])
    yield "cli-verify", command_line(["verify", *given, *at])
    yield "cli-verify-json", command_line(["verify", *given, *at, "--format", "json"])


def outputs():
    """(key, text) for every output of the set, keys in a fixed order."""
    with tempfile.TemporaryDirectory() as folder:
        yield from _outputs(folder)


def _outputs(folder):
    for name, (network, paths, schedule) in instances():
        floor = speed_floor(network)
        for convention, strict in CONVENTIONS.items():
            for label, factor in FACTORS.items():
                metric = euclidean_metric(network, factor * floor)
                result = solve(network, schedule, metric, paths, strict_resolution=strict)
                text = result.dumps()
                tables = SolveResult.from_json(json.loads(text))
                key = f"{name}/{label}/{convention}"
                yield f"{key}/dumps", text
                yield f"{key}/reloaded", tables.dumps()
                yield f"{key}/dot", text_or_error(
                    lambda: tree_to_dot(build_tree(result, schedule, metric)))
                delay = result.tolerable_delay
                late = [(part, (delay or 1.0) * f) for part, f in LATE.items()]
                for part, t0 in (("verify", delay), ("verify-half", delay / 2), *late):
                    yield f"{key}/{part}", text_or_error(
                        lambda: playback(network, schedule, metric, tables, t0))
                if not name.startswith("corpus"):
                    for part, text in command_lines(name, network, folder, factor * floor,
                                                    strict, delay):
                        yield f"{key}/{part}", text
            if name in STUDIED:
                grid = [floor * 0.9, *(floor * (1.02 + 0.2 * i) for i in range(20))]
                yield f"{name}/sweep/{convention}", sweep(
                    network, schedule, paths, grid, strict).to_csv()
                yield f"{name}/critical-speed/{convention}", text_or_error(lambda: repr(
                    critical_speed(network, schedule, paths, floor, grid[-1],
                                   strict_resolution=strict)))
    for seed in DAG_SEEDS:
        for label, (network, paths, schedule, metric) in zip(("euclidean", "table"),
                                                             dag_cases(seed)):
            result = solve(network, schedule, metric, paths,
                           strict_resolution=CONVENTIONS["membership"])
            if result.tolerable_delay > 0:
                yield f"dag-{seed}/{label}/membership/verify", text_or_error(
                    lambda: playback(network, schedule, metric, result, result.tolerable_delay))


def digests() -> dict:
    return {key: hashlib.sha256(text.encode()).hexdigest() for key, text in outputs()}


def test_outputs_match_the_committed_digests():
    expected = json.loads(DIGESTS.read_text())
    found = digests()
    assert found.keys() == expected.keys()
    changed = [key for key in found if found[key] != expected[key]]
    assert not changed, f"{len(changed)} of {len(found)} outputs changed: {changed}"


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(digests(), indent=1) + "\n")
