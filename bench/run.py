"""Benchmark of the ugs-pursuit solver: four closed-loop workloads, checked
answers, end-to-end metrics and a traced per-layer breakdown.

    python3 bench/run.py --workload corpus --seed 0 --seconds 15 --trace 0
    python3 bench/run.py                       # every workload, untraced and traced
    python3 bench/run.py --record              # rewrite bench/reference.json

One run builds the workload (timed as set-up), checks the paper's demo
numbers, then answers in whole passes, one caller at a time, until
``--seconds`` have passed. Calibration slices run alongside the answers
and scale every reported time to a reference host speed
(bench/calibration.py). The last stdout line is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics untraced (``--trace 0``), the per-layer metrics traced
(``--trace 1``). See bench/README.md for what each workload and metric is.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing
from calibration import Calibrator

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
REFERENCE = BENCH_DIR / "reference.json"
WORKLOADS = ("corpus", "lattice", "layered", "sweep")
SETUP_SAMPLES = 15  # the run's own set-up plus 14 in fresh processes
TAIL_BEYOND = 10
SEGMENT_SLICES = 20  # calibration slices behind each host factor

END_TO_END = {
    "setup_s": "s",
    "answers_per_s": "1/s",
    "answer_p50_s": "s",
    "answer_tail_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}
PER_LAYER = {
    "network.build_s": "s",
    "network.metric_s": "s",
    "network.paths": "count",
    "information.realizable_s": "s",
    "information.family_sets": "count",
    "solver.solve_self_s": "s",
    "solver.solves": "count",
    "solver.cells": "count",
    "solver.on_demand_sets": "count",
    "solver.to_json_s": "s",
    "solver.from_json_s": "s",
    "solver.json_mb": "MB",
    "solver.reach_ratio": "ratio",
    "simulator.oracle_s": "s",
    "simulator.oracle_calls": "count",
    "simulator.playback_s": "s",
    "simulator.playbacks": "count",
    "simulator.playback_failed": "count",
    "analysis.self_s": "s",
    "analysis.solves_per_study": "count",
    "tree_export.build_s": "s",
    "tree_export.render_s": "s",
    "tree_export.nodes": "count",
    "cli.self_s": "s",
    "cli.output_mb": "MB",
    "trace.answer_p50_s": "s",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed: answer order on corpus, node labels elsewhere")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="start no new pass after this many seconds of the loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--answers", type=int, default=0,
                        help="stop after this many answers (0: no limit)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record", action="store_true",
                        help="solve one pass of every workload and rewrite the pinned reference")
    return parser.parse_args(argv)


def import_workloads():
    """Import the package from this checkout's sources (never an installed
    copy) together with the workloads built on it."""
    if not (SRC_DIR / "ugs_pursuit" / "__init__.py").is_file():
        raise SystemExit(f"error: package sources not found under {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    import workloads
    return workloads


def set_up(name, seed, tracer, workdir, calibrator):
    """Import the package and build the workload, with calibration slices on
    a timer when untraced; returns them and the set-up seconds, unscaled and
    scaled to the reference host."""
    mark = calibrator.mark()
    started = time.perf_counter()
    with contextlib.nullcontext() if tracer.active else calibrator.on_timer():
        workloads = import_workloads()
        workload = workloads.build(name, seed, tracer, workdir)
    seconds = time.perf_counter() - started - (calibrator.seconds - mark[0])
    return workloads, workload, (seconds, seconds * calibrator.factor(mark))


def fresh_setup_seconds(name, seed) -> tuple[float, float]:
    done = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    raw, scaled = done.stdout.split()[-2:]
    return float(raw), float(scaled)


def tail(per_answer):
    """(value, percentile) over the distinct answers of a pass, each timed
    by the median of its repetitions: the highest percentile with
    TAIL_BEYOND answers beyond it, or the slowest answer when a pass is too
    short for that percentile to lie above the median."""
    ordered = sorted(per_answer)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND + 1:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def answer_loop(workload, tracer, calibrator, seconds, max_answers):
    """Closed loop with one caller, in whole passes, with calibration slices
    on a timer (untraced) or between answers (traced). Returns the answer
    times in order, unscaled and scaled to the reference host, the number of
    passes, the outcomes (or the exception text) and the loop seconds,
    calibration included.

    Each run of consecutive answers alongside which at least SEGMENT_SLICES
    slices ran is scaled by the factor those slices give: a single answer on
    the slower workloads, several answers on corpus."""
    raw, scaled, outcomes = [], [], []
    passes = 0
    mark = calibrator.mark()
    started = time.perf_counter()
    with contextlib.nullcontext() if tracer.active else calibrator.on_timer():
        while not passes or time.perf_counter() - started < seconds:
            passes += 1
            for answer in workload.answers:
                tracer.answer_id = len(raw)
                calibrated = calibrator.seconds
                t0 = time.perf_counter()
                try:
                    outcome = tracer.call("answer", answer)
                except Exception:  # an answer that crashes is a failed answer, not a lost run
                    outcome = traceback.format_exc()
                raw.append(time.perf_counter() - t0 - (calibrator.seconds - calibrated))
                outcomes.append(outcome)
                if tracer.active:
                    calibrator.after(raw[-1])
                if calibrator.slices - mark[1] >= SEGMENT_SLICES or len(raw) == max_answers:
                    factor = calibrator.factor(mark)
                    scaled += [t * factor for t in raw[len(scaled):]]
                    mark = calibrator.mark()
                if len(raw) == max_answers:
                    break
            if len(raw) == max_answers:
                break
    elapsed = time.perf_counter() - started
    factor = calibrator.factor(mark)
    scaled += [t * factor for t in raw[len(scaled):]]
    return raw, scaled, passes, outcomes, elapsed


def answer_medians(times, per_pass):
    """Each distinct answer's median over its repetitions, in pass order."""
    return [statistics.median(times[i::per_pass]) for i in range(min(len(times), per_pass))]


def run_workload(args) -> int:
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    with tempfile.TemporaryDirectory(dir=BENCH_DIR, prefix="work-") as workdir:
        calibrator = Calibrator()
        workloads, workload, own_setup = set_up(
            args.workload, args.seed, tracer, workdir, calibrator)
        if args.setup_only:
            print(*own_setup)
            return 0
        reference = json.loads(REFERENCE.read_text())
        undo = tracing.install(tracer) if args.trace else (lambda: None)
        try:
            tracer.phase = "demo"
            _, demo_problems = workloads.check_demo(tracer, reference)
            tracer.phase = "loop"
            raw, times, passes, outcomes, elapsed = answer_loop(
                workload, tracer, calibrator, args.seconds, args.answers)
        finally:
            undo()

    failed = unexpected = playback_failed = 0
    for outcome in outcomes:
        if isinstance(outcome, str):
            print(outcome, file=sys.stderr)
            failed += 1
            unexpected += 1
            continue
        is_failed, is_unexpected = workloads.judge(workload.name, outcome, reference)
        failed += is_failed
        unexpected += is_unexpected
        playback_failed += outcome.playback_ok is False
        if is_unexpected:
            print(f"unexpected failure: {workload.name} {outcome}", file=sys.stderr)
    for problem in demo_problems:
        print(f"demo check: {problem}", file=sys.stderr)

    n = len(times)
    per_answer = answer_medians(times, len(workload.answers))
    tail_value, tail_pct = tail(per_answer)
    loop_factor = sum(times) / sum(raw)
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{n} answers in {passes} passes over {elapsed:.2f} s, one caller; "
          f"{sum(raw):.2f} s answering, host factor {loop_factor:.4f} "
          f"({calibrator.slices} calibration slices in {calibrator.seconds:.2f} s)")
    print(f"  fail_ratio {failed / n:.4f} ({failed} of {n} answers failed; "
          f"{failed / passes:g} of {n / passes:g} per pass; {unexpected} unexpected)")
    print(f"  answer_tail_s is p{tail_pct:.2f} of {len(per_answer)} distinct answers, "
          f"each the median of about {n / len(per_answer):.0f} repetitions")

    if args.trace:
        metrics = tracing.layer_metrics(tracer, n)
        metrics["trace.answer_p50_s"] *= loop_factor
        metrics["network.paths"] = workload.paths
        metrics["simulator.playback_failed"] = playback_failed / passes
        decisions = sum(tracer.counters.get("tree.decisions", []))
        cells = sum(tracer.counters.get("tree.cells", []))
        print(f"  solver.reach_ratio base: {decisions} tree decision nodes / {cells} cells stored")
        units = PER_LAYER
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{workload.name}-{args.seed}.jsonl"
        tracer.write(spans_file)
        print(f"  {len(tracer.spans)} spans written to {spans_file.relative_to(BENCH_DIR.parent)}")
    else:
        setups = [own_setup] + [fresh_setup_seconds(workload.name, args.seed)
                                for _ in range(SETUP_SAMPLES - 1)]
        raw_per_answer = answer_medians(raw, len(workload.answers))
        print(f"  unscaled: setup_s {statistics.median(s[0] for s in setups):.6g}, "
              f"answers_per_s {n / sum(raw):.6g}, "
              f"answer_p50_s {statistics.median(raw_per_answer):.6g}, "
              f"answer_tail_s {tail(raw_per_answer)[0]:.6g}")
        metrics = {
            "setup_s": statistics.median(s[1] for s in setups),
            "answers_per_s": n / sum(times),
            "answer_p50_s": statistics.median(per_answer),
            "answer_tail_s": tail_value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_ratio": 1 - failed / n,
        }
        units = END_TO_END
    for name, unit in units.items():
        print(f"  {name:28s} {metrics[name]:.6g} {unit}")
    correct = unexpected == 0 and not demo_problems
    print(json.dumps({
        "correct": correct,
        "attempted": n,
        "failed": unexpected,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another, untraced then
    traced; prints the tracing overhead on the answer median."""
    status = 0
    for name in WORKLOADS:
        results = {}
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace),
                 "--answers", str(args.answers)],
                capture_output=True, text=True, timeout=900,
            )
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                return done.returncode
            results[trace] = json.loads(done.stdout.splitlines()[-1])
            status |= not results[trace]["correct"]
        plain = results[0]["metrics"]["answer_p50_s"]["value"]
        traced = results[1]["metrics"]["trace.answer_p50_s"]["value"]
        print(f"  tracing overhead on {name}: answer p50 {plain:.6g} s untraced, "
              f"{traced:.6g} s traced ({100 * (traced - plain) / plain:+.1f}%)\n")
    return status


def record() -> int:
    """Pin the root values of one pass of every workload at seed 0, the
    playback failures seen, and the demo numbers."""
    reference = {"answers": {}, "known_playback_failures": {}}
    tracer = tracing.NullTracer()
    with tempfile.TemporaryDirectory(dir=BENCH_DIR, prefix="work-") as workdir:
        for name in WORKLOADS:
            workloads, workload, _ = set_up(name, 0, tracer, workdir, Calibrator())
            outcomes = sorted((answer() for answer in workload.answers), key=lambda o: o.key)
            for outcome in outcomes:
                if outcome.oracle_ok is False or outcome.problems:
                    raise SystemExit(f"refusing to pin a failing answer: {name} {outcome}")
            reference["answers"][name] = {o.key: o.values for o in outcomes}
            reference["known_playback_failures"][name] = [
                o.key for o in outcomes if o.playback_ok is False]
    reference["demo"], problems = workloads.check_demo(tracer, None)
    if problems:
        raise SystemExit(f"refusing to pin demo values: {problems}")
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.record:
        return record()
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
