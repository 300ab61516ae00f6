import dataclasses
import gc
import math
import random
import weakref
from collections import Counter

import pytest

from ugs_pursuit import (
    BracketInvalid,
    MetricError,
    PursuitError,
    SweepRow,
    build_schedule,
    build_tree,
    critical_speed,
    demo_bundle,
    euclidean_metric,
    oracle_max_delay,
    solve,
    sweep,
    verify_guarantee,
)
from ugs_pursuit import analysis, simulator, solver, util
from ugs_pursuit.fixtures import random_instance, random_layered_network, speed_floor
from ugs_pursuit.network import enumerate_paths
from ugs_pursuit.solver import MoveTable
from ugs_pursuit.util import TIME_EPS, bisect_bracket, bisect_predicted


def parity_set():
    """(name, network, paths, schedule): the corpus, the demo, L17 and L36."""
    for seed in range(1, 51):
        yield (f"corpus {seed}", *random_instance(seed, n_max=4, m_max=8))
    yield ("demo", *demo_bundle())
    for name, seed in (("L17", 17), ("L36", 5)):
        network = random_layered_network(seed)
        paths = enumerate_paths(network)
        yield name, network, paths, build_schedule(paths, network.m)


def study_grid(network):
    """12 speeds from 0.9x to 2.55x the floor; the first is invalid."""
    floor = speed_floor(network)
    return [floor * (0.9 + 0.15 * i) for i in range(12)]


def fresh_solve(network, schedule, paths, speed, strict):
    return solve(network, schedule, euclidean_metric(network, speed), paths,
                 strict_resolution=strict)


@pytest.fixture
def study_solves(monkeypatch):
    """(metric, moves, result) of every solve the analysis module makes."""
    calls, original = [], analysis.solve

    def recorded(network, schedule, metric, paths, **kwargs):
        result = original(network, schedule, metric, paths, **kwargs)
        calls.append((metric, kwargs.get("moves"), result))
        return result

    monkeypatch.setattr(analysis, "solve", recorded)
    return calls


class TestSweep:
    def test_rows_in_grid_order_and_monotone(self, demo):
        network, paths, schedule = demo
        grid = [1.05, 1.2, 1.4, 1.61, 1.62, 2.0, 5.0, 50.0]
        table = sweep(network, schedule, paths, grid)
        assert [row.speed for row in table.rows] == grid
        values = [row.latest for row in table.rows]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_high_speed_approaches_shortest_path(self, demo):
        network, paths, schedule = demo
        table = sweep(network, schedule, paths, [2000.0])
        assert table.rows[0].latest == pytest.approx(min(p.length for p in paths), abs=0.01)

    def test_invalid_speed_flagged(self, demo):
        network, paths, schedule = demo
        table = sweep(network, schedule, paths, [0.8, 1.5])
        assert not table.rows[0].valid
        assert table.rows[1].valid

    def test_agrees_with_pointwise_solve(self, demo):
        network, paths, schedule = demo
        table = sweep(network, schedule, paths, [1.62])
        result = solve(network, schedule, euclidean_metric(network, 1.62), paths)
        assert table.rows[0].latest == result.root_latest
        assert table.rows[0].move == result.root_policy

    def test_csv_shape(self, demo):
        network, paths, schedule = demo
        text = sweep(network, schedule, paths, [0.8, 1.62]).to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "V,D,delay,mu"
        assert lines[1] == "0.8,,,"
        assert lines[2].startswith("1.62,")

    def test_studies_never_digest(self, demo, digest_calls):
        network, paths, schedule = demo
        sweep(network, schedule, paths, [0.8, 1.05, 1.62, 2.0])
        critical_speed(network, schedule, paths, 1.0, 2.0)
        assert digest_calls == []

    def test_delay_clamped_at_zero(self, demo):
        network, paths, schedule = demo
        table = sweep(network, schedule, paths, [1.05])
        row = table.rows[0]
        assert row.valid and row.delay == 0.0


class TestBisectBracket:
    @pytest.mark.parametrize("lo,hi,tol,named", [
        (math.nan, 1.0, 1e-3, "must be finite"),
        (0.0, math.inf, 1e-3, "must be finite"),
        (0.0, 1.0, 0.0, "tolerance must be > 0"),
    ], ids=["nan-lo", "inf-hi", "zero-tol"])
    def test_rejects_before_evaluating(self, lo, hi, tol, named):
        calls = []
        with pytest.raises(PursuitError, match=named):
            bisect_bracket(calls.append, lo, hi, tol)
        assert calls == []


def memoised(flips):
    """``flips`` with a record of the points it was called at, each once."""
    seen = {}

    def recorded(x):
        if x not in seen:
            seen[x] = flips(x)
        return seen[x]

    recorded.seen = seen
    return recorded


class TestBisectPredicted:
    """The walk-confirm-fallback bisection that critical_speed runs."""

    GUESSES = {
        "true": lambda x: True,
        "false": lambda x: False,
        "random": lambda x: random.Random(x).random() < 0.5,
    }

    @pytest.mark.parametrize("guess", GUESSES.values(), ids=GUESSES.keys())
    @pytest.mark.parametrize("tol", [1e-3, 1e-9, 1e-20])
    def test_monotone_predicate_gives_plain_bisection(self, guess, tol):
        rng = random.Random(5)
        for _ in range(50):
            lo, threshold = sorted(rng.uniform(0.0, 10.0) for _ in range(2))
            hi = threshold + rng.uniform(0.0, 10.0)

            def flips(x):
                return x >= threshold

            want = bisect_bracket(flips, lo, hi, tol)
            got = bisect_predicted(memoised(flips), guess, lo, hi, tol)
            assert [v.hex() for v in got] == [v.hex() for v in want]

    @pytest.mark.parametrize("guess", GUESSES.values(), ids=GUESSES.keys())
    @pytest.mark.parametrize("tol", [1e-3, 1e-20])
    def test_non_monotone_predicate_gives_confirmed_ends(self, guess, tol):
        for seed in range(50):
            def flips(x):  # false at 0, true at 1, a coin toss in between
                return x == 1.0 or (x != 0.0 and random.Random(x + seed).random() < 0.5)

            called = memoised(flips)
            lo, hi = bisect_predicted(called, guess, 0.0, 1.0, tol)
            assert not flips(lo) and flips(hi)
            assert lo in (0.0, *called.seen) and hi in (1.0, *called.seen)
            assert hi - lo <= tol or math.nextafter(lo, math.inf) == hi

    @pytest.mark.parametrize("lo,hi,tol,named", [
        (math.nan, 1.0, 1e-3, "must be finite"),
        (0.0, math.inf, 1e-3, "must be finite"),
        (0.0, 1.0, 0.0, "tolerance must be > 0"),
        (0.0, 1.0, math.nan, "tolerance must be > 0"),
    ], ids=["nan-lo", "inf-hi", "zero-tol", "nan-tol"])
    def test_rejects_before_evaluating(self, lo, hi, tol, named):
        calls = []
        with pytest.raises(PursuitError, match=named):
            bisect_predicted(calls.append, calls.append, lo, hi, tol)
        assert calls == []


class TestCriticalSpeed:
    def test_single_path_threshold(self, single_edge):
        network, paths, schedule = single_edge
        # positive delay exactly when the straight-line run beats the road time
        expected = 5.0 / 7.0
        got = critical_speed(network, schedule, paths, 0.5, 1.0, tol=1e-5)
        assert got == pytest.approx(expected, abs=2e-5)

    def test_bracket_endpoints_checked(self, demo):
        network, paths, schedule = demo
        with pytest.raises(BracketInvalid):
            critical_speed(network, schedule, paths, 1.62, 2.0)
        with pytest.raises(BracketInvalid):
            critical_speed(network, schedule, paths, 0.5, 0.9)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_bisection_tolerance_must_be_positive(self, demo, demo_metric, tol):
        network, paths, schedule = demo
        with pytest.raises(PursuitError, match="tolerance must be > 0"):
            critical_speed(network, schedule, paths, 1.0, 2.0, tol=tol)
        with pytest.raises(PursuitError, match="tolerance must be > 0"):
            oracle_max_delay(network, schedule, demo_metric, paths, tol=tol)

    @pytest.mark.parametrize("tol", [0.0, math.nan])
    def test_tolerance_rejected_before_solving(self, demo, demo_metric, monkeypatch, tol):
        """A bad tolerance is refused before any solve or oracle run, so the
        answer does not depend on the network's endpoint values."""
        calls = []
        monkeypatch.setattr(analysis, "_solve_at", lambda *args: calls.append(args))
        monkeypatch.setattr(simulator._Oracle, "wins", lambda self, *args: calls.append(args))
        network, paths, schedule = demo
        with pytest.raises(PursuitError, match="tolerance must be > 0"):
            critical_speed(network, schedule, paths, 1.0, 2.0, tol=tol)
        with pytest.raises(PursuitError, match="tolerance must be > 0"):
            oracle_max_delay(network, schedule, demo_metric, paths, tol=tol)
        assert calls == []

    @pytest.mark.parametrize("v_lo,v_hi", [(math.nan, 2.0), (-math.inf, 2.0), (1.0, math.inf)],
                             ids=["nan-lo", "minus-inf-lo", "inf-hi"])
    def test_non_finite_bracket_end_rejected(self, demo, v_lo, v_hi):
        """Speeds nan and -inf give no valid metric and inf a positive
        delay, so the endpoint checks pass and the bisection must refuse."""
        network, paths, schedule = demo
        with pytest.raises(PursuitError, match="must be finite"):
            critical_speed(network, schedule, paths, v_lo, v_hi)

    def test_bisection_below_float_spacing_ends(self, demo, demo_metric):
        """A tolerance below the spacing of floats near the bracket ends
        once the bracket's ends are adjacent floats."""
        network, paths, schedule = demo
        v = critical_speed(network, schedule, paths, 1.0, 2.0, tol=1e-20)
        assert abs(v - critical_speed(network, schedule, paths, 1.0, 2.0, tol=1e-12)) <= 1e-12
        d = oracle_max_delay(network, schedule, demo_metric, paths, tol=1e-20)
        assert abs(d - oracle_max_delay(network, schedule, demo_metric, paths)) <= 1e-7

    def test_solved_speeds_with_one_reciprocal(self):
        """Two solved speeds a float apart can share 1 / speed, so no line
        in w runs through them: the midpoint is solved instead. Here L17 is
        scaled so that its first valid speed lies just below 2."""
        base = random_layered_network(17)
        scale = 1.9999 / 0.822
        network = dataclasses.replace(base, coords=tuple(
            None if xy is None else (xy[0] * scale, xy[1] * scale) for xy in base.coords))
        paths = enumerate_paths(network)
        schedule = build_schedule(paths, network.m)

        def valid(speed):
            try:
                euclidean_metric(network, speed)
            except MetricError:
                return False
            return True

        floor = speed_floor(network)
        lo, first_valid = bisect_bracket(valid, floor, 2 * floor, 1e-30)
        hi = math.nextafter(math.nextafter(first_valid, math.inf), math.inf)
        assert 1 / hi == 1 / math.nextafter(first_valid, math.inf)
        assert critical_speed(network, schedule, paths, lo, hi, tol=1e-20) == first_valid

    def test_result_straddles_predicate(self, demo):
        network, paths, schedule = demo
        tol = 1e-4
        v_star = critical_speed(network, schedule, paths, 0.9, 2.0, tol=tol)
        assert v_star < 1.61  # positive delay already exists below the demo's kink
        above = solve(network, schedule, euclidean_metric(network, v_star + tol), paths)
        assert above.root_latest > TIME_EPS
        below_speed = v_star - tol
        if below_speed > 1.0:
            below = solve(network, schedule, euclidean_metric(network, below_speed), paths)
            assert below.root_latest <= TIME_EPS


@pytest.fixture
def solved_speeds(monkeypatch):
    """How often each speed reached ``analysis._solve_at``."""
    calls, original = Counter(), analysis._solve_at

    def counted(network, schedule, paths, speed, *args):
        calls[speed] += 1
        return original(network, schedule, paths, speed, *args)

    monkeypatch.setattr(analysis, "_solve_at", counted)
    return calls


def layered(seed, widths=None):
    network = random_layered_network(seed, widths)
    paths = enumerate_paths(network)
    return network, paths, build_schedule(paths, network.m)


@pytest.mark.parametrize("strict", [False, True], ids=["default", "strict"])
class TestCriticalSpeedSolves:
    """critical_speed predicts the bisection's midpoints and solves few."""

    @pytest.mark.parametrize("tol", [1e-4, 1e-9])
    def test_layered_networks_in_four_solves(self, strict, tol, solved_speeds):
        """Four speeds decide the answer and three of them are solved: the
        top speed, one midpoint to draw the line, and the confirmed upper
        end of the final bracket. The floor's metric is invalid, which the
        edge test tells with no solve."""
        for seed in (13, 17, 5):
            network, paths, schedule = layered(seed)
            floor = speed_floor(network)
            critical_speed(network, schedule, paths, floor, 4.82 * floor, tol=tol,
                           strict_resolution=strict)
            assert sum(solved_speeds.values()) <= 3, seed
            solved_speeds.clear()

    def test_no_speed_solved_twice(self, strict, solved_speeds, monkeypatch):
        """Also where a confirmation fails and plain bisection reruns: it
        reuses the solved speeds."""
        walks, original = [], util.bisect_bracket

        def counted(*args):
            walks.append(args)
            return original(*args)

        monkeypatch.setattr(util, "bisect_bracket", counted)
        networks = [*parity_set(), ("L13", *layered(13)),
                    ("L85", *layered(85, [1, 3, 3, 3, 3, 2]))]
        cases = [("demo 1-2", *demo_bundle(), 1.0, 2.0)]
        for name, network, paths, schedule in networks:
            floor, grid = speed_floor(network), study_grid(network)
            cases += [(name, network, paths, schedule, grid[0], grid[-1]),
                      (name, network, paths, schedule, floor, 4.82 * floor)]
        fallbacks = []
        for name, network, paths, schedule, lo, hi in cases:
            walks.clear()
            try:
                critical_speed(network, schedule, paths, lo, hi, strict_resolution=strict)
            except BracketInvalid:
                pass
            assert max(solved_speeds.values()) == 1, name
            solved_speeds.clear()
            if len(walks) == 2:
                fallbacks.append(name)
        # the demo's root jumps from 0 to 1.45 between speeds 1.26 and 1.27
        assert "demo 1-2" in fallbacks


@pytest.mark.parametrize("strict", [False, True], ids=["default", "strict"])
class TestStudyParity:
    """A study's solves share one move table; each value still equals the
    one a fresh solve at that speed gives."""

    def test_sweep_rows_equal_fresh_solves(self, strict):
        for name, network, paths, schedule in parity_set():
            grid = study_grid(network)
            want = []
            for speed in grid:
                try:
                    result = fresh_solve(network, schedule, paths, speed, strict)
                except MetricError:
                    want.append(SweepRow(speed, None, None, None, False))
                    continue
                want.append(SweepRow(speed, result.root_latest, result.tolerable_delay,
                                     result.root_policy, True))
            got = sweep(network, schedule, paths, grid, strict_resolution=strict).rows
            assert not got[0].valid, name
            assert repr(got) == repr(tuple(want)), name

    def test_critical_speed_equals_fresh_bisection(self, strict):
        for name, network, paths, schedule in parity_set():
            grid = study_grid(network)
            lo, hi = grid[0], grid[-1]

            def positive(speed):  # critical_speed's predicate, one fresh solve per probe
                try:
                    result = fresh_solve(network, schedule, paths, speed, strict)
                except MetricError:
                    return False
                return result.root_latest > TIME_EPS

            if not positive(hi):
                with pytest.raises(BracketInvalid):
                    critical_speed(network, schedule, paths, lo, hi, strict_resolution=strict)
                continue
            want = bisect_bracket(positive, lo, hi, 1e-4)[1]
            got = critical_speed(network, schedule, paths, lo, hi, strict_resolution=strict)
            assert got.hex() == want.hex(), name

    def test_study_solve_exports_as_a_fresh_solve(self, strict, study_solves):
        for name, network, paths, schedule in parity_set():
            sweep(network, schedule, paths, study_grid(network)[1::5], strict_resolution=strict)
            for metric, moves, result in study_solves:
                assert moves is not None
                fresh = solve(network, schedule, metric, paths, strict_resolution=strict)
                assert result.to_json() == fresh.to_json(), name
            study_solves.clear()


class TestStudyMoveTable:
    """Where a move table lives: one per study call, none elsewhere."""

    @pytest.mark.parametrize("strict", [False, True], ids=["default", "strict"])
    def test_each_set_built_once_per_study(self, monkeypatch, strict):
        built, original = Counter(), solver.set_moves

        def counted(mask, *args):
            built[mask] += 1
            return original(mask, *args)

        monkeypatch.setattr(solver, "set_moves", counted)
        network = random_layered_network(17)
        paths = enumerate_paths(network)
        schedule = build_schedule(paths, network.m)
        grid = study_grid(network)
        sweep(network, schedule, paths, grid, strict_resolution=strict)
        assert built and max(built.values()) == 1
        built.clear()
        critical_speed(network, schedule, paths, grid[0], grid[-1], strict_resolution=strict)
        assert built and max(built.values()) == 1

    def test_one_shot_calls_build_no_table(self, demo, demo_metric, monkeypatch):
        tables, original = [], MoveTable.__init__

        def counted(self, *args):
            tables.append(args)
            original(self, *args)

        monkeypatch.setattr(MoveTable, "__init__", counted)
        network, paths, schedule = demo
        for strict in (False, True):
            result = solve(network, schedule, demo_metric, paths, strict_resolution=strict)
            result.to_json()
            verify_guarantee(network, schedule, demo_metric, result, result.tolerable_delay)
            build_tree(result, schedule, demo_metric)
            assert tables == []
            sweep(network, schedule, paths, [1.2, 1.62], strict_resolution=strict)
            assert tables == [(schedule, strict)]
            tables.clear()
            critical_speed(network, schedule, paths, 1.0, 2.0, strict_resolution=strict)
            assert tables == [(schedule, strict)]
            tables.clear()

    def test_table_for_another_schedule_or_convention_rejected(self, demo, demo_metric):
        network, paths, schedule = demo
        other = random_instance(1)[2]
        for moves in (MoveTable(other, False), MoveTable(schedule, True)):
            with pytest.raises(ValueError, match="another schedule or convention"):
                solve(network, schedule, demo_metric, paths, strict_resolution=False,
                      moves=moves)
        # an equal schedule built again is the same schedule
        moves = MoveTable(build_schedule(paths, network.m), False)
        shared = solve(network, schedule, demo_metric, paths, strict_resolution=False,
                       moves=moves)
        assert shared.rows == solve(network, schedule, demo_metric, paths,
                                    strict_resolution=False).rows

    def test_table_freed_when_the_study_returns(self, demo, study_solves):
        network, paths, schedule = demo
        gc.disable()
        try:
            for strict in (False, True):
                sweep(network, schedule, paths, [0.8, 1.2, 1.62, 2.0], strict_resolution=strict)
                critical_speed(network, schedule, paths, 1.0, 2.0, strict_resolution=strict)
                tables = {id(moves): weakref.ref(moves) for _, moves, _ in study_solves}
                study_solves.clear()
                assert len(tables) == 2, strict
                assert all(ref() is None for ref in tables.values()), strict
        finally:
            gc.enable()
