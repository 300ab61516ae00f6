import math

import pytest

from ugs_pursuit import (
    BracketInvalid,
    PursuitError,
    critical_speed,
    euclidean_metric,
    oracle_max_delay,
    solve,
    sweep,
)
from ugs_pursuit import analysis, simulator
from ugs_pursuit.util import TIME_EPS, bisect_bracket


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
