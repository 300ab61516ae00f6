"""Command-line interface.

Subcommands: paths, realizable, solve, tree, simulate, verify,
critical-speed, sweep. Exit status 0 on success, 2 on validation errors,
3 when ``solve --require-positive`` finds no positive tolerable delay.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

from .analysis import critical_speed, sweep
from .errors import MetricError, PursuitError
from .fixtures import demo_bundle, random_layered_network
from .information import realizable_sets
from .network import (
    build_schedule,
    enumerate_paths,
    euclidean_metric,
    indices_of,
    table_metric,
    validate_network,
)
from .simulator import check_table_sizes, simulate, verify_guarantee
from .solver import SolveResult, metric_digest, solve
from .tree_export import build_tree, tree_dumps, tree_to_dot
from .util import json_number

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_GUARANTEE = 3


def _load_json_file(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise PursuitError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except OSError as exc:
        raise PursuitError(f"{path}: {exc.strerror}") from None


@contextlib.contextmanager
def _parsing(source: str, shape: str):
    """Report a value from ``source`` that is not ``shape`` as a PursuitError."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise PursuitError(f"{source}: not {shape} ({type(exc).__name__}: {exc})") from None


def _load_bundle(args):
    if args.network == "demo":
        return demo_bundle()
    if args.network == "random":
        network = random_layered_network(args.seed)
    else:
        network = validate_network(_load_json_file(args.network))
    paths = enumerate_paths(network)
    schedule = build_schedule(paths, network.m)
    return network, paths, schedule


def _load_metric(args, network):
    if args.metric is None:
        return euclidean_metric(network, args.speed)
    data = _load_json_file(args.metric)
    if type(data) is not dict:
        raise MetricError(f"{args.metric}: a metric description is a JSON object, "
                          f"not a {type(data).__name__}")
    with _parsing(args.metric, "a metric description"):
        kind = data.get("kind", "table")
        if kind == "euclidean":
            speed = json_number(data["speed"])
            if speed is None:
                raise MetricError(f"{args.metric}: 'speed' is {data['speed']!r}, not a number")
            return euclidean_metric(network, speed)
        if kind == "table":
            return table_metric(data["d"], network)
    raise PursuitError(f"unknown metric kind {kind!r}")


def _solve(args, network, paths, schedule):
    metric = _load_metric(args, network)
    return metric, solve(network, schedule, metric, paths, strict_resolution=args.strict_resolution)


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_paths(args) -> int:
    network, paths, schedule = _load_bundle(args)
    if args.format == "json":
        payload = {
            "paths": [
                {"index": p.index, "nodes": list(p.nodes), "arrival": list(p.arrival),
                 "length": p.length}
                for p in paths
            ],
            "goals": sorted(network.goals),
        }
        _emit(json.dumps(payload, indent=2))
        return EXIT_OK
    _emit(f"{len(paths)} evader path(s); goals {sorted(network.goals)}")
    for p in paths:
        route = " -> ".join(str(j) for j in p.nodes)
        _emit(f"  path {p.index}: {route}  length {p.length:.4f}")
    _emit("visit times per node (inf = never):")
    for j in range(1, network.m + 1):
        times = ", ".join(f"{schedule.times[j][k]:.4g}" for k in range(1, schedule.n + 1))
        _emit(f"  node {j}: [{times}]")
    return EXIT_OK


def _cmd_realizable(args) -> int:
    _, paths, schedule = _load_bundle(args)
    family = realizable_sets(schedule, paths)
    if args.format == "json":
        _emit(json.dumps(family.to_json(), indent=2))
        return EXIT_OK
    _emit(f"{len(family.sets)} realizable set(s) out of {2 ** schedule.n - 1} subsets")
    for mask in family.sets:
        _emit("  {" + ",".join(str(i) for i in indices_of(mask)) + "}")
    _emit("event log (node, time -> sets in play):")
    for ev in family.log:
        sets = " ".join("{" + ",".join(str(i) for i in indices_of(s)) + "}" for s in ev.masks)
        _emit(f"  ({ev.node}, {ev.time:.4f}): {sets}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    network, paths, schedule = _load_bundle(args)
    _, result = _solve(args, network, paths, schedule)
    if args.format == "json":
        _emit(result.dumps())
    else:
        _emit(f"tolerable delay at entry: {result.tolerable_delay:.6f}")
        _emit(f"latest guaranteed exit from entry: {result.root_latest:.6f}")
        _emit(f"first move: {result.root_policy}")
    if args.require_positive and result.tolerable_delay <= 0:
        return EXIT_NO_GUARANTEE
    return EXIT_OK


def _cmd_tree(args) -> int:
    network, paths, schedule = _load_bundle(args)
    metric, result = _solve(args, network, paths, schedule)
    tree = build_tree(result, schedule, metric)
    _emit(tree_dumps(tree) if args.format == "json" else tree_to_dot(tree))
    return EXIT_OK


def _policy_or_solve(args, network, paths, schedule):
    if args.policy is None:
        return _solve(args, network, paths, schedule)
    metric, data = _load_metric(args, network), _load_json_file(args.policy)
    with _parsing(args.policy, "solved tables from 'solve --format json'"):
        # before from_json builds a mask as wide as the file's own n
        check_table_sizes(*SolveResult.sizes_of(data), schedule)
        result = SolveResult.from_json(data)
    if result.strict_resolution != args.strict_resolution:
        solved = "with" if result.strict_resolution else "without"
        raise PursuitError(f"{args.policy}: the tables were solved {solved} --strict-resolution")
    digest = metric_digest(metric)
    if result.metric_digest != digest:
        raise PursuitError(f"{args.policy}: the tables were solved for another metric "
                           f"(digest {result.metric_digest}, this metric's {digest})")
    return metric, result


def _cmd_simulate(args) -> int:
    network, paths, schedule = _load_bundle(args)
    metric, result = _policy_or_solve(args, network, paths, schedule)
    outcome = simulate(network, schedule, metric, result, args.path, args.t0)
    if args.format == "json":
        if outcome.transcript:  # empty on a capture at the entry
            _emit(outcome.to_jsonl())
        verdict = {"captured": outcome.captured, "time": outcome.time, "node": outcome.node}
        _emit(json.dumps(verdict))
        return EXIT_OK
    for row in outcome.transcript:
        obs = "green" if row.passage is None else f"red(delay {row.t - row.passage:.4f})"
        members = ",".join(str(i) for i in indices_of(row.info))
        _emit(f"  t={row.t:.4f} node {row.node}: {obs} -> {{{members}}}")
    word = "captured" if outcome.captured else "escaped"
    _emit(f"path {args.path}: {word} at node {outcome.node}, t={outcome.time:.4f}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    network, paths, schedule = _load_bundle(args)
    metric, result = _policy_or_solve(args, network, paths, schedule)
    report = verify_guarantee(network, schedule, metric, result, args.t0)
    if args.format == "json":
        payload = {
            "t0": report.t0,
            "all_captured": report.all_captured,
            "outcomes": {
                str(k): {"captured": o.captured, "time": o.time, "node": o.node}
                for k, o in report.outcomes.items()
            },
        }
        _emit(json.dumps(payload, indent=2))
        return EXIT_OK
    for k, o in sorted(report.outcomes.items()):
        word = "captured" if o.captured else "ESCAPED"
        _emit(f"  path {k}: {word} at node {o.node}, t={o.time:.4f}")
    _emit("all captured" if report.all_captured else "guarantee FAILED")
    return EXIT_OK


def _cmd_critical_speed(args) -> int:
    network, paths, schedule = _load_bundle(args)
    value = critical_speed(
        network, schedule, paths, args.lo, args.hi,
        tol=args.tol, strict_resolution=args.strict_resolution,
    )
    _emit(f"{value:.6f}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    network, paths, schedule = _load_bundle(args)
    with _parsing(f"--grid {args.grid}", "comma-separated speeds"):
        grid = [float(v) for v in args.grid.split(",")]
    table = sweep(network, schedule, paths, grid, strict_resolution=args.strict_resolution)
    _emit(table.to_csv())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # one parent per concern: each subcommand takes only the options it reads
    network = argparse.ArgumentParser(add_help=False)
    network.add_argument("--network", required=True,
                         help="network JSON file, or 'demo' / 'random'")
    network.add_argument("--seed", type=int, default=0, help="seed for --network random")
    metric = argparse.ArgumentParser(add_help=False)
    given = metric.add_mutually_exclusive_group(required=True)
    given.add_argument("--speed", type=float, help="pursuer speed for the euclidean metric")
    given.add_argument("--metric", help="metric JSON file")
    convention = argparse.ArgumentParser(add_help=False)
    convention.add_argument("--strict-resolution", action="store_true",
                            help="split red reports by delay; green resolves at the last visit")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("json", "text"), default="text",
                        help="text (default; DOT for tree) or json")
    solved = [network, metric, convention, output]

    parser = argparse.ArgumentParser(prog="ugs-pursuit",
                                     description="Guaranteed-capture pursuit planning "
                                                 "on sensor-instrumented road networks")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("paths", parents=[network, output]).set_defaults(func=_cmd_paths)
    sub.add_parser("realizable", parents=[network, output]).set_defaults(func=_cmd_realizable)

    p_solve = sub.add_parser("solve", parents=solved)
    p_solve.add_argument("--require-positive", action="store_true",
                         help="exit 3 unless a positive delay is tolerable")
    p_solve.set_defaults(func=_cmd_solve)

    sub.add_parser("tree", parents=solved).set_defaults(func=_cmd_tree)

    p_sim = sub.add_parser("simulate", parents=solved)
    p_sim.add_argument("--path", type=int, required=True, help="evader path index")
    p_sim.add_argument("--t0", type=float, required=True, help="initial delay")
    p_sim.add_argument("--policy", default=None,
                       help="solved tables from 'solve --format json'")
    p_sim.set_defaults(func=_cmd_simulate)

    p_verify = sub.add_parser("verify", parents=solved)
    p_verify.add_argument("--t0", type=float, required=True)
    p_verify.add_argument("--policy", default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_crit = sub.add_parser("critical-speed", parents=[network, convention])
    p_crit.add_argument("--lo", type=float, required=True)
    p_crit.add_argument("--hi", type=float, required=True)
    p_crit.add_argument("--tol", type=float, default=1e-4)
    p_crit.set_defaults(func=_cmd_critical_speed)

    p_sweep = sub.add_parser("sweep", parents=[network, convention])
    p_sweep.add_argument("--grid", required=True, help="comma-separated speeds")
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and kept: ``main`` may run many
    times in one process, and building the parser costs more than parsing."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage errors (2) and --help (0)
        return exc.code
    try:
        return args.func(args)
    except PursuitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
