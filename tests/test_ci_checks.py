"""Checks too slow for tier-1, which deselects the ``ci`` marker
(``pyproject.toml``); CI runs them with ``python -m pytest -m ci``: the
deep comb at the default recursion limit
(``test_deep_comb_at_the_default_recursion_limit``), lazy cells against the
full lattice at n = 12, the scale-ladder rungs L400 and L474 at twice their
floor, the oracle on 36 paths, and the general DAGs of seeds 1-1,199."""

import json
import sys

import pytest

from ugs_pursuit import (build_schedule, enumerate_paths, euclidean_metric, full_lattice,
                         oracle_max_delay, solve, validate_network, verify_guarantee)
from ugs_pursuit.cli import EXIT_OK, main
from ugs_pursuit.fixtures import random_layered_network, speed_floor
from ugs_pursuit.solver import MoveTable

from conftest import check_dags, comb


@pytest.mark.ci
def test_deep_comb_at_the_default_recursion_limit(capsys, tmp_path):
    """Comb 400 and comb 1000 (``conftest.comb``) at twice their floor, at
    Python's default recursion limit: cell passes nest about k deep, on the
    solver's own stack, not Python's. Through the CLI, comb 400 solves to
    the pinned delay under both conventions and plays back at it, and comb
    1000's strict tree (999 levels), built and written on explicit stacks,
    draws as DOT: 2,996 nodes, 999 of them capture leaves (shape=oval), and
    2,995 edges. Not as JSON: indented JSON writes each set member on its
    own line at the node's depth, so comb 1000 would be about 729 MB.
    Through the library, comb 1000's strict root solve computes 998 sets
    and playback at its root captures all 999 paths."""
    assert sys.getrecursionlimit() == 1000
    files = {}
    for k in (400, 1000):
        files[k] = tmp_path / f"comb{k}.json"
        files[k].write_text(json.dumps(comb(k)))
    speed = repr(2.0 / 1.5)  # every edge is one unit long and takes 1.5

    def cli(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, err) == (EXIT_OK, ""), argv
        return out.splitlines()

    for flag in ([], ["--strict-resolution"]):
        shared = ["--network", str(files[400]), "--speed", speed, *flag]
        assert "tolerable delay at entry: 1.939340" in cli(["solve", *shared])
        assert cli(["verify", *shared, "--t0", "1.9393398282201786"])[-1] == "all captured"
    dot = cli(["tree", "--network", str(files[1000]), "--speed", speed, "--strict-resolution"])
    assert len(dot) == 5994
    assert sum("->" in line for line in dot) == 2995
    assert sum("shape=oval" in line for line in dot) == 999

    network = validate_network(comb(1000))
    paths = enumerate_paths(network)
    schedule = build_schedule(paths, network.m)
    metric = euclidean_metric(network, 2.0 * speed_floor(network))
    result = solve(network, schedule, metric, paths, strict_resolution=True)
    assert abs(result.root_latest - 1.9393398282201786) <= 1e-9, result.root_latest
    assert len(result.on_demand_sets) == 998
    report = verify_guarantee(network, schedule, metric, result, result.root_latest)
    assert report.all_captured and len(report.outcomes) == schedule.n == 999


@pytest.mark.ci
def test_lazy_cells_equal_the_full_lattice_at_n12():
    """random_layered_network(28, widths=[1, 3, 3, 3, 3, 2]) (12 paths, 15
    nodes) at 1.1x and 2x its floor, both conventions: every cell the lazy
    solve reads equals the bottom-up full-lattice fill, 4,095 sets x 15
    nodes (tier-1 stops at n = 10). The fill scores m cells per distinct
    candidate list, since sets with equal lists share one scored row; the
    counts are pinned, so a change to which lists are distinct fails."""
    network = random_layered_network(28, widths=[1, 3, 3, 3, 3, 2])
    paths = enumerate_paths(network)
    schedule = build_schedule(paths, network.m)
    assert (schedule.n, schedule.m) == (12, 15), (schedule.n, schedule.m)
    keys = [(j, mask) for mask in full_lattice(schedule.n) for j in range(1, schedule.m + 1)]
    every = schedule.m * ((1 << schedule.n) - 1 - schedule.n)
    # cells the fill scores, by (factor, strict)
    pinned = {(1.1, False): 2835, (1.1, True): 4680, (2.0, False): 3705, (2.0, True): 6420}
    for factor in (1.1, 2.0):
        metric = euclidean_metric(network, factor * speed_floor(network))
        for strict in (False, True):
            lattice = solve(network, schedule, metric, paths, prune=False, strict_resolution=strict)
            lazy = solve(network, schedule, metric, paths, strict_resolution=strict)
            for view in ("latest", "policy", "capture_move"):
                full, read = getattr(lattice, view), getattr(lazy, view)
                differ = next((key for key in keys if full[key] != read[key]), None)
                assert differ is None, (factor, strict, view, differ)
            scored = lattice.solver.cells_scored
            print(f"{factor}x strict={strict}: {len(keys)} cells agree; "
                  f"{scored} of {every} cells scored")
            assert scored < every, (factor, strict, scored, every)
            assert scored == pinned[factor, strict], (factor, strict, scored)


@pytest.mark.ci
@pytest.mark.parametrize("seed,widths,root,count,scored,records", [
    (7, [1, 4, 4, 4, 4, 4, 3], 21.707122643086127, 7061, 24761, 41659),
    (3, [1, 4, 4, 4, 4, 4, 4, 3], 28.939323720432952, 6816, 29647, 50610),
], ids=["L400", "L474"])
def test_scale_ladder_rungs_at_twice_the_floor(seed, widths, root, count, scored, records):
    """L400 (400 paths, 24 nodes) and L474 (474 paths, 28 nodes) at 2x their
    speed floor, strict resolution: the pinned root, the exact counts of sets
    the root solve computes and cells it scores (a known-path bound that
    computes other sets fails here), and playback at the root captures every
    path. A solve given a ``MoveTable`` gives the same root and counts, and
    the table then holds the pinned number of split records."""
    network = random_layered_network(seed, widths=widths)
    paths = enumerate_paths(network)
    schedule = build_schedule(paths, network.m)
    metric = euclidean_metric(network, 2.0 * speed_floor(network))
    one_shot = solve(network, schedule, metric, paths, strict_resolution=True)
    assert abs(one_shot.root_latest - root) <= 1e-9, one_shot.root_latest
    moves = MoveTable(schedule, True)
    shared = solve(network, schedule, metric, paths, strict_resolution=True, moves=moves)
    assert shared.root_latest == one_shot.root_latest
    kept = sum(len(splits) for _, splits in moves.values())
    print(f"n={schedule.n}: the table keeps {kept} split records")
    assert kept == records
    for result in (one_shot, shared):
        sets, cells = len(result.on_demand_sets), result.solver.cells_scored
        print(f"n={schedule.n}: the root solve computes {sets} sets, scores {cells} cells")
        assert (sets, cells) == (count, scored)
        report = verify_guarantee(network, schedule, metric, result, result.root_latest)
        assert report.all_captured and len(report.outcomes) == schedule.n
        print(f"n={schedule.n}: root {result.root_latest!r}, all {schedule.n} captured")


@pytest.mark.ci
def test_oracle_on_36_paths():
    """random_layered_network(5) (36 paths, 12 nodes) at 1.1x and 2x its
    floor: each convention's solve equals the oracle of that convention, and
    the exact oracle (no convention) equals the strict one. At 1.1x the
    membership value lies above what the exact oracle allows: that
    convention overclaims there."""
    network = random_layered_network(5)
    paths = enumerate_paths(network)
    schedule = build_schedule(paths, network.m)
    values = {}
    for factor in (1.1, 2.0):
        metric = euclidean_metric(network, factor * speed_floor(network))
        oracle = {}
        for strict in (False, True):
            result = solve(network, schedule, metric, paths, strict_resolution=strict)
            oracle[strict] = oracle_max_delay(network, schedule, metric, paths, strict)
            assert abs(oracle[strict] - max(0.0, result.root_latest)) <= 1e-6, (factor, strict)
        exact = oracle_max_delay(network, schedule, metric, paths, exact=True)
        assert abs(exact - oracle[True]) <= 1e-6, (factor, exact, oracle[True])
        print(f"{factor}x: membership {oracle[False]:.6f}, strict and exact {exact:.6f}")
        values[factor] = round(oracle[False], 6), round(exact, 6)
    assert values == {1.1: (2.313133, 1.900316), 2.0: (12.223862, 12.011325)}, values
    assert values[1.1][0] > values[1.1][1]


@pytest.mark.ci
def test_general_dags_1_to_1199():
    """``conftest.check_dags`` over DAG seeds 1-1,199, of which tier-1 runs
    the first 200: 1,674 (network, metric) cases."""
    assert check_dags(range(1, 1200)) == 1674
