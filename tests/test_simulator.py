import math
import random
import re

import pytest

from ugs_pursuit import (
    CapExceeded,
    InconsistentObservation,
    NonTermination,
    PolicyHole,
    PursuitError,
    SimulationError,
    SolveResult,
    build_schedule,
    enumerate_paths,
    euclidean_metric,
    guarantee_exists,
    indices_of,
    oracle_max_delay,
    simulate,
    solve,
    update_red,
    validate_network,
    verify_guarantee,
)
from ugs_pursuit import simulator
from ugs_pursuit.fixtures import random_instance, random_layered_network, speed_floor
from ugs_pursuit.util import tle

from conftest import check_dags, looping_demo_tables


@pytest.fixture(scope="module")
def demo_solved(demo, demo_metric):
    network, paths, schedule = demo
    return solve(network, schedule, demo_metric, paths)


class TestSimulate:
    def test_capture_at_exit_six(self, demo, demo_metric, demo_solved, demo_index):
        network, paths, schedule = demo
        k = demo_index[(1, 3, 4, 6)]
        outcome = simulate(network, schedule, demo_metric, demo_solved, k, demo_solved.root_latest)
        assert outcome.captured
        assert outcome.node == 6
        assert outcome.time == pytest.approx(16.30, abs=1e-9)

    def test_single_path_capture_at_exit(self, single_edge):
        network, paths, schedule = single_edge
        metric = euclidean_metric(network, 1.0)
        result = solve(network, schedule, metric, paths)
        outcome = simulate(network, schedule, metric, result, 1, result.root_latest)
        assert outcome.captured
        assert outcome.node == paths[0].exit
        assert outcome.time == pytest.approx(paths[0].length, abs=1e-12)

    def test_escape_at_huge_delay(self, demo, demo_metric, demo_solved):
        network, paths, schedule = demo
        t0 = demo_solved.root_latest + 10 * max(p.length for p in paths)
        outcomes = [
            simulate(network, schedule, demo_metric, demo_solved, k, t0)
            for k in range(1, schedule.n + 1)
        ]
        assert any(not o.captured for o in outcomes)
        for o in outcomes:
            if not o.captured:
                assert o.node in network.goals

    def test_deterministic(self, demo, demo_metric, demo_solved):
        network, _, schedule = demo
        a = simulate(network, schedule, demo_metric, demo_solved, 2, 3.0)
        b = simulate(network, schedule, demo_metric, demo_solved, 2, 3.0)
        assert a == b

    def test_transcript_chain_is_replayable(self, demo, demo_metric):
        network, paths, schedule = demo
        result = solve(network, schedule, demo_metric, paths, strict_resolution=True)
        for k in range(1, schedule.n + 1):
            outcome = simulate(network, schedule, demo_metric, result, k, result.root_latest)
            previous = (1 << schedule.n) - 1
            for row in outcome.transcript:
                assert row.info & previous == row.info  # only ever discards
                if row.passage is not None:
                    replay = update_red(previous, row.node, row.passage, schedule)
                else:
                    replay = previous & ~schedule.through[row.node]
                assert replay == row.info
                previous = row.info

    def test_policy_that_loops_exhausts_the_epoch_budget(self, demo, demo_index):
        # the known path is sent back and forth along its own route, reading
        # red at nodes 2 and 1 in turn
        network, _, schedule = demo
        metric, tables = looping_demo_tables(demo, demo_index, prune=True,
                                             moves={3: 2, 2: 1, 1: 2})
        with pytest.raises(NonTermination, match="within 14 decision epochs"):
            simulate(network, schedule, metric, tables, demo_index[(1, 2, 7)], 1.0)

    def test_move_reading_no_path_is_a_policy_hole(self, demo, demo_index):
        # the known path is sent to node 4, which it never passes: a green
        # there would keep the set, and playback would loop
        network, _, schedule = demo
        metric, tables = looping_demo_tables(demo, demo_index, prune=True)
        alone = (demo_index[(1, 2, 7)],)
        with pytest.raises(PolicyHole, match=re.escape(
                f"the policy moves to node 4, which no path of set {alone} passes")):
            simulate(network, schedule, metric, tables, alone[0], 1.0)

    def test_stay_that_reads_red_again_raises(self):
        """On ``random_instance(2)`` at 1.1x the floor and 1.25x the solved
        delay, playback against either path under either convention reads a
        red and then moves to the node it stands on, whose red reading keeps
        the set it holds: playback stops there rather than loop."""
        network, paths, schedule = random_instance(2)
        metric = euclidean_metric(network, 1.1 * speed_floor(network))
        for strict in (False, True):
            result = solve(network, schedule, metric, paths, strict_resolution=strict)
            t0 = 1.25 * result.tolerable_delay
            for k in range(1, schedule.n + 1):
                with pytest.raises(SimulationError, match="policy waits at node 2 with"):
                    simulate(network, schedule, metric, result, k, t0)

    def test_lost_membership_evader_is_inconsistent_where_it_surfaces(self):
        """On L36 at 1.1x the floor, a membership green drops paths 10-12 and
        34-36, which pass its node later; at node 9 their passage matches no
        visit-time class of the tracked set, so the red is inconsistent."""
        network = random_layered_network(5)
        paths = enumerate_paths(network)
        schedule = build_schedule(paths, network.m)
        metric = euclidean_metric(network, 1.1 * speed_floor(network))
        result = solve(network, schedule, metric, paths, strict_resolution=False)
        for t0 in (result.tolerable_delay, 0.5 * result.tolerable_delay):
            for k in (10, 11, 12, 34, 35, 36):
                with pytest.raises(InconsistentObservation, match="red at node 9,"):
                    simulate(network, schedule, metric, result, k, t0)

    def test_entry_is_read_like_any_sensor(self, demo, demo_metric, demo_solved):
        """Below TIME_EPS the evader is still at the entry on arrival: a
        capture at its passage, time 0.0, with no reading; above it the
        entry reads red and keeps every path."""
        network, _, schedule = demo
        for k in range(1, schedule.n + 1):
            outcome = simulate(network, schedule, demo_metric, demo_solved, k, 1e-10)
            assert (outcome.captured, outcome.node, outcome.time) == (True, 1, 0.0)
            assert outcome.transcript == ()
            first = simulate(network, schedule, demo_metric, demo_solved, k, 2.0).transcript[0]
            assert (first.t, first.node, first.passage, first.info) == (2.0, 1, 0.0, 15)

    def test_smaller_delay_keeps_capture(self, demo, demo_metric, demo_solved):
        network, _, schedule = demo
        for k in range(1, schedule.n + 1):
            full = simulate(network, schedule, demo_metric, demo_solved, k,
                            demo_solved.root_latest)
            half = simulate(network, schedule, demo_metric, demo_solved, k,
                            0.5 * demo_solved.root_latest)
            assert full.captured and half.captured

    def test_policy_hole_is_loud(self, demo, demo_metric, demo_solved):
        network, _, schedule = demo
        data = demo_solved.to_json()
        data["sets"] = [r for r in data["sets"] if len(r["set"]) != 3]
        holed = SolveResult.from_json(data)
        with pytest.raises(PolicyHole):
            simulate(network, schedule, demo_metric, holed, 2, demo_solved.root_latest)

    def test_rejects_nonpositive_delay(self, demo, demo_metric, demo_solved):
        network, _, schedule = demo
        for t0 in (-1.0, math.nan):
            with pytest.raises(SimulationError, match="initial delay must be positive"):
                simulate(network, schedule, demo_metric, demo_solved, 1, t0)

    def test_rejects_non_finite_delay(self, demo, demo_metric, demo_solved):
        network, _, schedule = demo
        for t0 in (math.inf, float("1e400")):
            with pytest.raises(SimulationError, match="positive and finite, got inf"):
                simulate(network, schedule, demo_metric, demo_solved, 1, t0)

    @pytest.mark.parametrize("k", [0, 9])
    def test_rejects_path_outside_range(self, demo, demo_metric, demo_solved, k):
        network, _, schedule = demo
        with pytest.raises(SimulationError, match=r"numbered 1\.\.4"):
            simulate(network, schedule, demo_metric, demo_solved, k, 1.0)

    def test_transcript_jsonl_shape(self, demo, demo_metric, demo_solved):
        network, _, schedule = demo
        outcome = simulate(network, schedule, demo_metric, demo_solved, 2,
                           demo_solved.root_latest)
        import json

        for line in outcome.to_jsonl().splitlines():
            row = json.loads(line)
            assert {"t", "node", "obs", "set"} <= row.keys()


class TestVerifyGuarantee:
    def test_all_captured_at_latest_delay(self, demo, demo_metric, demo_solved):
        network, _, schedule = demo
        report = verify_guarantee(network, schedule, demo_metric, demo_solved,
                                  demo_solved.root_latest)
        assert report.all_captured
        assert set(report.outcomes) == set(range(1, schedule.n + 1))

    def test_all_captured_at_half_delay(self, demo, demo_metric, demo_solved):
        network, _, schedule = demo
        report = verify_guarantee(network, schedule, demo_metric, demo_solved,
                                  0.5 * demo_solved.root_latest)
        assert report.all_captured

    def test_guarantee_breaks_just_past_latest(self, demo, demo_metric, demo_solved):
        network, paths, schedule = demo
        report = verify_guarantee(network, schedule, demo_metric, demo_solved,
                                  demo_solved.root_latest + 0.01)
        assert not report.all_captured
        assert not guarantee_exists(network, schedule, demo_metric, paths,
                                    demo_solved.root_latest + 0.01)


# (strict_resolution, exact) per oracle mode
ORACLE_MODES = {"membership": (False, False), "strict": (True, False), "exact": (False, True)}


class _Memoized(simulator._Oracle):
    """The oracle's search with a memo per (node, time, set) and no
    thresholds, so that it assumes nothing about monotonicity in time."""

    def wins(self, p, t, mask):
        known = self.known.get(mask)
        if known is not None:
            return tle(t, known[p])
        key = (p, t, mask)
        if key not in self.memo:
            moves = (self.sets.get(mask) or self._build_set(mask))[0]
            self.memo[key] = (self._expand_exact(p, t, mask, moves) if self.exact
                              else self._expand(p, t, moves))
        return self.memo[key]


def _probe_instances():
    """The n <= 6, m <= 10 instances of seeds 1-30 at 1.1x the speed floor."""
    for seed in range(1, 31):
        network, paths, schedule = random_instance(seed, n_max=6, m_max=10)
        yield seed, network, paths, schedule, euclidean_metric(network, 1.1 * speed_floor(network))


class TestOracle:
    def test_single_path_value(self, single_edge):
        network, paths, schedule = single_edge
        metric = euclidean_metric(network, 1.0)
        got = oracle_max_delay(network, schedule, metric, paths)
        assert got == pytest.approx(7.0 - 5.0, abs=1e-6)

    def test_zero_metric_demo(self, demo, zero_metric):
        network, paths, schedule = demo
        got = oracle_max_delay(network, schedule, zero_metric, paths)
        assert got == pytest.approx(11.83, abs=1e-6)

    def test_general_dags_match_the_solver(self):
        # skip edges, exits at several depths and tied integer visit times,
        # none of which a layered network draws; tests/test_ci_checks.py runs
        # seeds 1-1,199
        assert check_dags(range(1, 201)) == 286

    def test_seven_paths_and_eleven_nodes_match_the_solver(self):
        # entry -> 7 middle nodes -> one goal (n=7 paths), and an 11-node chain (m=11 nodes)
        fan = ({1: (0.0, 0.0), **{j: (1.0, j - 5.0) for j in range(2, 9)}, 9: (2.0, 0.0)},
               [(1, j) for j in range(2, 9)] + [(j, 9) for j in range(2, 9)])
        chain = ({j: (float(j), 0.0) for j in range(1, 12)}, [(j, j + 1) for j in range(1, 11)])
        for coords, edges in (fan, chain):
            network = validate_network({
                "nodes": [{"id": j, "x": x, "y": y} for j, (x, y) in coords.items()],
                "edges": [{"from": a, "to": b, "time": 2.0 * math.dist(coords[a], coords[b])}
                          for a, b in edges],
                "entry": 1,
            })
            paths = enumerate_paths(network)
            schedule = build_schedule(paths, network.m)
            metric = euclidean_metric(network, 1.0)
            for strict in (False, True):
                value = max(0.0, solve(network, schedule, metric, paths,
                                       strict_resolution=strict).root_latest)
                got = oracle_max_delay(network, schedule, metric, paths, strict_resolution=strict)
                assert got == pytest.approx(value, abs=1e-6), (schedule.n, strict)
                assert guarantee_exists(network, schedule, metric, paths, 0.5 * got, strict)

    @pytest.mark.parametrize("mode", ORACLE_MODES)
    def test_set_budget_enforced(self, demo, demo_metric, monkeypatch, mode):
        network, paths, schedule = demo
        strict, exact = ORACLE_MODES[mode]
        monkeypatch.setattr(simulator, "ORACLE_SET_BUDGET", 1)
        with pytest.raises(CapExceeded, match="budget of 1 uncertainty sets"):
            oracle_max_delay(network, schedule, demo_metric, paths, strict, exact)
        with pytest.raises(CapExceeded, match="n=4 paths and m=7 nodes"):
            guarantee_exists(network, schedule, demo_metric, paths, 1.0, strict, exact)

    @pytest.mark.parametrize("factor", [1.1, 2.0])
    @pytest.mark.parametrize("seed,widths", [(13, None), (17, None), (85, [1, 3, 3, 3, 3, 2])],
                             ids=["L13", "L17", "L85"])
    def test_benchmark_networks_match_the_solver(self, seed, widths, factor):
        # n=16, 18 and 10 paths on m=10, 11 and 15 nodes: the solver equals the oracle
        # of its convention, and the exact oracle equals the strict one
        network = random_layered_network(seed, widths=widths)
        paths = enumerate_paths(network)
        schedule = build_schedule(paths, network.m)
        metric = euclidean_metric(network, factor * speed_floor(network))
        oracle = {}
        for strict in (False, True):
            value = max(0.0, solve(network, schedule, metric, paths,
                                   strict_resolution=strict).root_latest)
            oracle[strict] = oracle_max_delay(network, schedule, metric, paths, strict)
            assert oracle[strict] == pytest.approx(value, abs=1e-6), strict
        exact = oracle_max_delay(network, schedule, metric, paths, exact=True)
        assert exact == pytest.approx(oracle[True], abs=1e-6)

    def test_monotone_in_speed(self, demo):
        network, paths, schedule = demo
        values = []
        for speed in (1.2, 1.62, 2.5, 6.0):
            metric = euclidean_metric(network, speed)
            values.append(oracle_max_delay(network, schedule, metric, paths))
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_win_predicate_brackets_solver_value(self, demo, demo_metric, demo_solved):
        network, paths, schedule = demo
        d = demo_solved.root_latest
        assert guarantee_exists(network, schedule, demo_metric, paths, d - 1e-4)
        assert not guarantee_exists(network, schedule, demo_metric, paths, d + 1e-3)

    def test_no_delay_is_always_a_guarantee(self, demo, demo_metric):
        # the pursuer stands at the entry as the evader passes it
        network, paths, schedule = demo
        for mode in ORACLE_MODES.values():
            for t0 in (0.0, -1.0):
                assert guarantee_exists(network, schedule, demo_metric, paths, t0, *mode) is True

    def test_agrees_with_solver_by_mode(self):
        for seed in (3, 7, 11, 15):
            network, paths, schedule = random_instance(seed, n_max=4, m_max=8)
            metric = euclidean_metric(network, 1.1 * speed_floor(network))
            for strict in (False, True):
                result = solve(network, schedule, metric, paths, strict_resolution=strict)
                value = max(0.0, result.root_latest)
                got = oracle_max_delay(network, schedule, metric, paths,
                                       strict_resolution=strict)
                assert got == pytest.approx(value, abs=1e-6), (seed, strict)

    def test_exact_enumeration_never_below_strict(self):
        # raw-outcome search may find strategies outside either convention,
        # never fewer
        for seed in range(1, 21):
            network, paths, schedule = random_instance(seed, n_max=4, m_max=8)
            metric = euclidean_metric(network, 1.1 * speed_floor(network))
            strict = oracle_max_delay(network, schedule, metric, paths, strict_resolution=True)
            exact = oracle_max_delay(network, schedule, metric, paths, exact=True)
            assert exact >= strict - 1e-6

    @pytest.mark.parametrize("mode", ORACLE_MODES)
    def test_max_delay_matches_fresh_oracle_per_probe(self, mode):
        strict, exact = ORACLE_MODES[mode]
        kw = {"strict_resolution": strict, "exact": exact}
        for seed, network, paths, schedule, metric in _probe_instances():
            def wins(t0):  # a fresh oracle per probe
                return guarantee_exists(network, schedule, metric, paths, t0, **kw)

            lo, hi = 0.0, min(p.length for p in paths)
            want = hi
            if not wins(hi):
                while hi - lo > 1e-7 and lo < 0.5 * (lo + hi) < hi:
                    mid = 0.5 * (lo + hi)
                    if wins(mid):
                        lo = mid
                    else:
                        hi = mid
                want = lo
            got = oracle_max_delay(network, schedule, metric, paths, **kw)
            assert got.hex() == want.hex(), (seed, mode)

    @pytest.mark.parametrize("mode", ORACLE_MODES)
    def test_shuffled_probes_match_guarantee_exists(self, mode):
        strict, exact = ORACLE_MODES[mode]
        kw = {"strict_resolution": strict, "exact": exact}
        for seed, network, paths, schedule, metric in _probe_instances():
            value = oracle_max_delay(network, schedule, metric, paths, **kw)
            longest = max(p.length for p in paths)
            delays = [value, math.nextafter(value, 0.0), math.nextafter(value, math.inf),
                      value - 1e-9, value + 1e-9, value - 1e-6, value + 1e-6]
            rng = random.Random(seed)
            delays += [rng.uniform(1e-3, longest) for _ in range(20 - len(delays))]
            delays = [t0 for t0 in delays if t0 > 0]
            rng.shuffle(delays)
            oracle = simulator._Oracle(network, schedule, metric, paths, strict, exact)
            got = [oracle.guarantees(t0) for t0 in delays]
            want = [guarantee_exists(network, schedule, metric, paths, t0, **kw) for t0 in delays]
            assert got == want, (seed, mode)

    @pytest.mark.parametrize("mode", ["membership", "strict"])
    def test_wins_is_a_down_set_on_corpus_sub_states(self, mode, monkeypatch):
        """The thresholds rest on this: on every (node, set) the corpus
        search visits, winning at some time implies winning at every
        earlier time the search asked about."""
        strict, _ = ORACLE_MODES[mode]
        cached_wins = simulator._Oracle.wins
        for seed in range(1, 51):
            network, paths, schedule = random_instance(seed)
            metric = euclidean_metric(network, 1.1 * speed_floor(network))
            visited = {}

            def recording(self, p, t, mask):
                result = cached_wins(self, p, t, mask)
                if mask not in self.known:
                    visited.setdefault((p, mask), {})[t] = result
                return result

            with monkeypatch.context() as patch:
                patch.setattr(simulator._Oracle, "wins", recording)
                oracle_max_delay(network, schedule, metric, paths, strict_resolution=strict)
            assert visited, seed
            memoized = _Memoized(network, schedule, metric, paths, strict, False)
            for (p, mask), answers in visited.items():
                times = sorted(answers)
                searched = [memoized.wins(p, t, mask) for t in times]
                assert searched == [answers[t] for t in times], (seed, p, mask)
                # True at every time up to the latest winning one
                assert searched == sorted(searched, reverse=True), (seed, p, mask)


class TestResolutionConventionAdjudication:
    """Where the two report conventions disagree, closed-loop playback
    decides which value is physically honest."""

    def test_divergent_instances_favor_strict_resolution(self):
        divergent = []
        for seed in range(1, 51):
            network, paths, schedule = random_instance(seed, n_max=4, m_max=8)
            metric = euclidean_metric(network, 1.1 * speed_floor(network))
            default = solve(network, schedule, metric, paths, strict_resolution=False)
            strict = solve(network, schedule, metric, paths, strict_resolution=True)
            if abs(default.root_latest - strict.root_latest) > 1e-9:
                divergent.append((network, paths, schedule, metric, default, strict))
        assert divergent, "expected at least one instance separating the conventions"
        for network, paths, schedule, metric, default, strict in divergent:
            # strict tables survive true-dynamics playback at their own value
            report = verify_guarantee(network, schedule, metric, strict, strict.root_latest)
            assert report.all_captured
            # the default value overclaims here: playback under real readings
            # breaks down or loses a path
            try:
                report = verify_guarantee(network, schedule, metric, default,
                                          default.root_latest)
                overclaim_exposed = not report.all_captured
            except (InconsistentObservation, PolicyHole):
                overclaim_exposed = True
            assert overclaim_exposed


class TestTranscriptSetsShrink:
    def test_info_sets_form_a_chain(self, demo, demo_metric, demo_solved):
        network, _, schedule = demo
        for k in range(1, schedule.n + 1):
            outcome = simulate(network, schedule, demo_metric, demo_solved, k,
                               demo_solved.root_latest)
            masks = [row.info for row in outcome.transcript]
            for earlier, later in zip(masks, masks[1:]):
                assert later & earlier == later, [indices_of(x) for x in masks]


def _playback(network, schedule, metric, result, k, t0):
    """Captured flag of one playback, or the type of the error it raised."""
    try:
        return simulate(network, schedule, metric, result, k, t0).captured
    except PursuitError as exc:
        return type(exc)


class TestExportedTablesPlayBack:
    """Exported tables hold every row that playback of the policy reads."""

    def test_corpus_outcomes_survive_json_round_trip(self):
        instances = [random_instance(seed, n_max=4, m_max=8) for seed in range(1, 51)]
        for network in (random_layered_network(85, widths=[1, 3, 3, 3, 3, 2]),
                        random_layered_network(5)):
            paths = enumerate_paths(network)
            instances.append((network, paths, build_schedule(paths, network.m)))
        for case, (network, paths, schedule) in enumerate(instances, start=1):
            metric = euclidean_metric(network, 1.1 * speed_floor(network))
            for strict in (False, True):
                result = solve(network, schedule, metric, paths, strict_resolution=strict)
                clone = SolveResult.from_json(result.to_json())
                delay = result.tolerable_delay
                if delay <= 0:
                    continue
                for t0 in (delay, 0.5 * delay):
                    for k in range(1, schedule.n + 1):
                        live = _playback(network, schedule, metric, result, k, t0)
                        assert _playback(network, schedule, metric, clone, k, t0) == live, (
                            case, strict, t0, k)

    @pytest.mark.parametrize("seed", [13, 5])
    def test_large_strict_tables_capture_every_path(self, seed):
        network = random_layered_network(seed)
        paths = enumerate_paths(network)
        schedule = build_schedule(paths, network.m)
        assert schedule.n > 14
        metric = euclidean_metric(network, 1.1 * speed_floor(network))
        result = solve(network, schedule, metric, paths, strict_resolution=True)
        assert result.tolerable_delay > 0
        clone = SolveResult.from_json(result.to_json())
        report = verify_guarantee(network, schedule, metric, clone, result.tolerable_delay)
        assert report.all_captured
