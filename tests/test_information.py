import math
import re
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ugs_pursuit import (
    InconsistentObservation,
    PolicyHole,
    build_schedule,
    enumerate_paths,
    euclidean_metric,
    full_lattice,
    indices_of,
    mask_from,
    move_children,
    observe,
    realizable_sets,
    red_reports,
    solve,
    update_red,
    validate_network,
    verify_guarantee,
)
from ugs_pursuit.fixtures import random_instance, random_layered_network

from conftest import mask_of


NEAR_TIES = [(1.0 + 0.8e-9, 1.0 + 1.6e-9), (math.nextafter(1.0 + 1e-9, 0.0), 1.0 + 1e-9)]


def near_tie_network(second, third):
    """(network, paths, schedule) where paths 1-3 visit node 5 at 1.0,
    ``second`` and ``third`` and path 4 avoids it."""
    xy = ((0, 0), (1, 1), (1, 0), (1, -1), (2, 0), (3, 0))
    raw = {
        "nodes": [{"id": j, "x": x, "y": y} for j, (x, y) in enumerate(xy, 1)],
        "edges": [{"from": a, "to": b, "time": t} for a, b, t in (
            (1, 2, 0.5), (1, 3, 0.5), (1, 4, 0.5), (1, 6, 3.0),
            (2, 5, 0.5), (3, 5, second - 0.5), (4, 5, third - 0.5), (5, 6, 1.0))],
    }
    network = validate_network(raw)
    paths = enumerate_paths(network)
    return network, paths, build_schedule(paths, network.m)


class TestUpdates:
    def test_red_at_first_branch_node(self, demo, demo_index):
        _, _, schedule = demo
        full = (1 << 4) - 1
        got = update_red(full, 2, 4.83, schedule)
        assert got == mask_of(demo_index, (1, 2, 7))

    def test_red_at_exit_six(self, demo, demo_index):
        _, _, schedule = demo
        pair = mask_of(demo_index, (1, 3, 4, 6), (1, 3, 4, 7))
        got = update_red(pair, 6, 16.30, schedule)
        assert got == mask_of(demo_index, (1, 3, 4, 6))

    def test_red_with_delay_keeps_consistent_path(self, demo, demo_index):
        _, _, schedule = demo
        only = mask_of(demo_index, (1, 2, 7))
        assert update_red(only, 2, 6.0 - 1.17, schedule) == only

    def test_red_contradiction(self, demo, demo_index):
        _, _, schedule = demo
        only = mask_of(demo_index, (1, 2, 7))
        with pytest.raises(InconsistentObservation):
            update_red(only, 2, 6.0 - 0.5, schedule)


class TestObserve:
    """One case per branch of the observation rule, on the demo's node 7:
    path (1,2,7) passes it at 14.66 and path (1,3,4,7) at 17.54, while
    (1,3,4,6) and (1,3,5) avoid it."""

    EARLY, LATE = (1, 2, 7), (1, 3, 4, 7)
    AVOID = ((1, 3, 4, 6), (1, 3, 5))

    @pytest.mark.parametrize("strict", [False, True])
    def test_synchronous_arrival_captures(self, demo, strict):
        _, _, schedule = demo
        assert observe(15, 2, 4.83, 4.83, schedule, strict) is None

    def test_strict_red_narrows_to_visit_class(self, demo, demo_index):
        _, _, schedule = demo
        pair = mask_of(demo_index, self.EARLY, self.LATE)
        row = observe(pair, 7, 18.0, 14.66, schedule, True)
        assert row.info == mask_of(demo_index, self.EARLY)
        assert row.passage == 14.66
        assert (row.t, row.node) == (18.0, 7)

    def test_default_red_keeps_red_part(self, demo, demo_index):
        _, _, schedule = demo
        full = (1 << 4) - 1
        row = observe(full, 7, 18.0, 14.66, schedule, False)
        assert row.info == mask_of(demo_index, self.EARLY, self.LATE)
        assert row.passage == 14.66 and row.t == 18.0

    def test_strict_green_waits_for_last_red_visit(self, demo, demo_index):
        _, _, schedule = demo
        full = (1 << 4) - 1
        # a passage before the arrival reads red at once and keeps its class
        row = observe(full, 7, 15.0, 14.66, schedule, True)
        assert row.info == mask_of(demo_index, self.EARLY) and row.t == 15.0
        # a passage while the pursuer waits for the last class is a capture
        assert observe(full, 7, 15.0, 17.54, schedule, True) is None
        # otherwise the green resolves at 17.54 and keeps the avoiding paths
        row = observe(full, 7, 15.0, math.inf, schedule, True)
        assert row.info == mask_of(demo_index, *self.AVOID)
        assert row.passage is None and row.t == 17.54

    def test_default_green_waits_for_earliest_red_visit(self, demo, demo_index):
        _, _, schedule = demo
        full = (1 << 4) - 1
        # an evader passing inside the window [arrival, 14.66] is caught
        assert observe(full, 7, 10.0, 14.66, schedule, False) is None
        # otherwise the green resolves at 14.66 and keeps the avoiding paths,
        # also when the evader passes later (the convention's overclaim)
        for visit in (math.inf, 17.54):
            row = observe(full, 7, 10.0, visit, schedule, False)
            assert row.info == mask_of(demo_index, *self.AVOID)
            assert row.passage is None and row.t == 14.66

    @pytest.mark.parametrize("strict", [False, True])
    def test_wait_step_captures_passage_during_wait(self, demo, demo_index, strict):
        """Holding a set every path of which passes the node (a capture
        move), the pursuer waits for the last class under either convention;
        holding one split by the node, for the set's last red report."""
        _, _, schedule = demo
        pair = mask_of(demo_index, self.EARLY, self.LATE)
        assert observe(pair, 7, 15.0, 17.54, schedule, strict) is None
        mask = mask_of(demo_index, self.LATE, *self.AVOID)
        assert observe(mask, 7, 15.0, 17.54, schedule, strict) is None
        row = observe(mask, 7, 15.0, math.inf, schedule, strict)
        assert row.info == mask_of(demo_index, *self.AVOID)
        assert row.passage is None and row.t == 17.54
        # a passage before the arrival is read, not waited for
        row = observe(pair, 7, 15.0, 14.66, schedule, strict)
        assert row.passage == 14.66 and row.t == 15.0

    @pytest.mark.parametrize("second, third", NEAR_TIES,
                             ids=["within-both-neighbours", "at-window-edge"])
    def test_near_tie_readings_keep_whole_classes(self, second, third):
        """Node 5 is visited at 1.0, ``second`` and ``third`` by paths 1-3,
        and path 4 avoids it; the classes are {1,2} and {3}. Either path 2
        lies within TIME_EPS of both neighbours, or it sits at the last float
        of its class's window and path 3 starts the next class one float
        later, where ``t - (t - visit)`` can round across the boundary. A red
        keeps the evader's whole class, an arrival not after a passage waits
        for the last class and catches it, a move holding only path 4 reads
        nothing there, and playback at the solved delay captures every
        evader."""
        network, paths, schedule = near_tie_network(second, third)
        assert schedule.groups[5] == ((1.0, mask_from([1, 2])), (third, mask_from([3])))
        times = [0.5, 1.0 - 0.5e-9, 1.0, second, 1.0 + 1.2e-9, third - 0.5e-9, third, 2.0]
        times += [visit + delay for visit in (1.0, second, third)
                  for delay in (1.1e-9, 2e-9, 0.3, 7.3, 1e3)]
        for mask in full_lattice(schedule.n):
            reports = red_reports(mask, 5, schedule, True)
            avoiders = mask & ~schedule.through[5]
            for t in times:
                for k in indices_of(mask):
                    if avoiders == mask:  # no path passes node 5: the move reads nothing
                        with pytest.raises(PolicyHole, match="node 5, which no path of set"):
                            observe(mask, 5, t, schedule.times[5][k], schedule, True)
                        continue
                    row = observe(mask, 5, t, schedule.times[5][k], schedule, True)
                    if row is None:
                        continue
                    assert row.info >> (k - 1) & 1, (mask, t, k)
                    if row.passage is not None:
                        assert row.info in [cls for _, cls in reports], (mask, t, k)
                    else:
                        assert row.info == avoiders, (mask, t, k)
                        assert row.t == max([t] + [tau for tau, _ in reports]), (mask, t, k)
        metric = euclidean_metric(network, 6.0)
        for strict in (False, True):
            result = solve(network, schedule, metric, paths, strict_resolution=strict)
            report = verify_guarantee(network, schedule, metric, result, result.tolerable_delay)
            assert report.all_captured, strict

    @pytest.mark.parametrize("strict, mask, t, visit", [
        (True, (EARLY,), 18.0, 17.54),  # red at a time no path passes
        (False, AVOID, 18.0, 14.66),  # red where no tracked path passes
        (True, (EARLY,), 15.0, math.inf),  # green after every visit
        (False, (EARLY, LATE), 18.0, math.inf),
        (False, (EARLY,), 16.0, 15.5),  # every red must match a visit-time class
        (False, (LATE, *AVOID), 18.0, 14.66),
    ])
    def test_inconsistent_readings_raise(self, demo, demo_index, strict, mask, t, visit):
        _, _, schedule = demo
        with pytest.raises(InconsistentObservation):
            observe(mask_of(demo_index, *mask), 7, t, visit, schedule, strict)

    @pytest.mark.parametrize("strict, mask, t, visit", [
        (True, (EARLY, LATE), 16.0, 17.54),  # a passage while waiting is a capture
        (False, (EARLY,), 16.0, 14.66),  # membership reds match the passage's class
        (False, (LATE, *AVOID), 18.0, 17.54),
        (False, (EARLY, *AVOID), 15.0, 17.54),  # split: the green part
    ])
    def test_consistent_or_lenient_readings_do_not_raise(self, demo, demo_index, strict, mask, t,
                                                         visit):
        _, _, schedule = demo
        observe(mask_of(demo_index, *mask), 7, t, visit, schedule, strict)


class TestPartition:
    """A move's children (``move_children``) partition the set held: its red
    reports, then the paths avoiding the move's node."""

    def test_exit_six(self, demo, demo_index):
        _, _, schedule = demo
        pair = mask_of(demo_index, (1, 3, 4, 6), (1, 3, 4, 7))
        red, green = mask_of(demo_index, (1, 3, 4, 6)), mask_of(demo_index, (1, 3, 4, 7))
        for strict in (False, True):
            assert move_children(pair, 6, schedule, strict) == [
                ("red", 16.3, red), ("green", 16.3, green)]

    def test_inner_junction(self, demo, demo_index):
        _, _, schedule = demo
        full = (1 << 4) - 1
        red = mask_of(demo_index, (1, 3, 4, 6), (1, 3, 4, 7), (1, 3, 5))
        for strict in (False, True):  # every red path passes node 3 at once
            assert move_children(full, 3, schedule, strict) == [
                ("red", 6.83, red), ("green", 6.83, mask_of(demo_index, (1, 2, 7)))]

    def test_visit_time_classes(self, demo, demo_index):
        _, _, schedule = demo
        full = (1 << 4) - 1
        early, late = mask_of(demo_index, (1, 2, 7)), mask_of(demo_index, (1, 3, 4, 7))
        green = full & ~early & ~late
        assert move_children(full, 7, schedule, True) == [
            ("red 1", 14.66, early), ("red 2", 17.54, late), ("green", 17.54, green)]
        assert move_children(full, 7, schedule, False) == [
            ("red", 14.66, early | late), ("green", 14.66, green)]

    def test_capture_move_has_no_green(self, demo):
        _, _, schedule = demo
        full = (1 << 4) - 1
        for strict in (False, True):
            assert move_children(full, 1, schedule, strict) == [("red", 0.0, full)]

    def test_avoided_node(self, demo, demo_index):
        _, _, schedule = demo
        only = mask_of(demo_index, (1, 2, 7))
        assert only & schedule.through[4] == 0
        for strict in (False, True):
            with pytest.raises(PolicyHole, match=re.escape(
                    f"moves to node 4, which no path of set {indices_of(only)} passes")):
                move_children(only, 4, schedule, strict)


@st.composite
def instances(draw):
    seed = draw(st.integers(min_value=0, max_value=400))
    network = random_layered_network(seed)
    paths = enumerate_paths(network)
    schedule = build_schedule(paths, network.m)
    return network, paths, schedule


@settings(max_examples=40, deadline=None)
@given(instances(), st.data())
def test_updates_only_discard(inst, data):
    network, paths, schedule = inst
    full = (1 << schedule.n) - 1
    u = data.draw(st.integers(min_value=1, max_value=network.m))
    k = data.draw(st.integers(min_value=1, max_value=schedule.n))
    t = schedule.times[u][k]
    if t == float("inf"):
        return
    # the passage itself, and one rebuilt from a reading at t + 1.0 with delay 1.0
    reds = [update_red(full, u, passage, schedule) for passage in (t, (t + 1.0) - 1.0)]
    for red in reds:
        assert red & full == red and red != 0


@settings(max_examples=30, deadline=None)
@given(instances(), st.booleans())
def test_partition_is_exact(inst, strict):
    network, _, schedule = inst
    full = (1 << schedule.n) - 1
    for u in range(1, network.m + 1):
        sets = [sub for _, _, sub in move_children(full, u, schedule, strict)]
        assert reduce(or_, sets) == full
        assert sum(map(int.bit_count, sets)) == full.bit_count()  # no path in two


def flip_id(network):
    """Node id ``j`` of ``network`` with ids 2..m reversed (an involution)."""
    return lambda j: j if j == network.entry else network.m + 2 - j


def reversed_ids(network):
    """``network`` with its non-entry node ids reversed."""
    new = flip_id(network)
    return validate_network({
        "nodes": [{"id": new(j), "x": x, "y": y} for j, (x, y) in enumerate(network.coords[1:], 1)],
        "edges": [{"from": new(a), "to": new(b), "time": t} for a, b, t in network.edges()],
        "entry": network.entry,
    })


def family_of(network):
    """The realizable family of ``network``, and its paths."""
    paths = enumerate_paths(network)
    return realizable_sets(build_schedule(paths, network.m), paths), paths


class TestRealizableFamily:
    def test_demo_family_is_exactly_eight_sets(self, demo):
        _, paths, schedule = demo
        family = realizable_sets(schedule, paths)
        got = {indices_of(s) for s in family.sets}
        assert got == {
            (1,), (2,), (3,), (4,),
            (2, 3), (1, 2, 3), (2, 3, 4), (1, 2, 3, 4),
        }

    def test_unencounterable_pair_absent(self, demo):
        _, paths, schedule = demo
        family = realizable_sets(schedule, paths)
        assert mask_from([1, 4]) not in family.sets

    def test_family_bound(self, demo):
        _, paths, schedule = demo
        family = realizable_sets(schedule, paths)
        assert len(family.sets) == 8 < 2 ** schedule.n - 1

    def test_log_row_at_rejoin_node(self, demo, demo_index):
        _, paths, schedule = demo
        family = realizable_sets(schedule, paths)
        row = next(ev for ev in family.log if ev.node == 4)
        assert row.time == pytest.approx(12.06, abs=0.01)
        expected = {
            mask_of(demo_index, (1, 2, 7)),
            mask_of(demo_index, (1, 2, 7), (1, 3, 4, 6), (1, 3, 4, 7)),
            mask_of(demo_index, (1, 3, 4, 6), (1, 3, 4, 7)),
        }
        assert set(row.masks) == expected

    def test_single_path_family(self, single_edge):
        _, paths, schedule = single_edge
        family = realizable_sets(schedule, paths)
        assert family.sets == (1,)

    def test_tie_order_independent(self, demo):
        """Reversing the non-entry node ids reverses the order of events at
        equal times and renumbers the paths; matched by node sequence, the
        family is the same."""
        for network in [demo[0], *map(random_layered_network, range(6))]:
            flip = flip_id(network)
            forward, paths = family_of(network)
            backward, flipped_paths = family_of(reversed_ids(network))
            index = {p.nodes: p.index for p in paths}
            renumber = {q.index: index[tuple(map(flip, q.nodes))] for q in flipped_paths}
            assert set(forward.sets) == {
                mask_from(renumber[k] for k in indices_of(s)) for s in backward.sets}

    def test_every_member_has_a_split_parent(self, demo):
        _, paths, schedule = demo
        family = realizable_sets(schedule, paths)
        full = (1 << schedule.n) - 1
        produced = {full}
        for ev in family.log:
            group = {
                k for k in range(1, schedule.n + 1)
                if abs(schedule.times[ev.node][k] - ev.time) <= 1e-9
            }
            gmask = mask_from(group)
            for s in ev.masks:
                hit = s & gmask
                if 0 < hit < s:
                    produced.add(hit)
                    produced.add(s & ~hit)
        assert set(family.sets) <= produced

    def test_bound_holds_on_random_instances(self):
        for seed in range(10):
            network = random_layered_network(seed)
            paths = enumerate_paths(network)
            schedule = build_schedule(paths, network.m)
            family = realizable_sets(schedule, paths)
            assert len(family.sets) <= 2 ** schedule.n - 1
            full = (1 << schedule.n) - 1
            assert full in family.sets
            assert all(s != 0 for s in family.sets)

    def test_json_export_shape(self, demo):
        _, paths, schedule = demo
        payload = realizable_sets(schedule, paths).to_json()
        assert {"sets", "log"} <= payload.keys()
        assert all({"node", "time", "sets"} <= row.keys() for row in payload["log"])


class TestRedReports:
    """``red_reports`` against the per-path ``min_visit``/``max_visit``
    scans the oracle uses, and against strict red readings, on every set of
    every corpus instance."""

    def test_matches_per_path_visit_times(self):
        for seed in range(1, 51):
            _, _, schedule = random_instance(seed, n_max=4, m_max=8)
            for mask in full_lattice(schedule.n):
                for u in range(1, schedule.m + 1):
                    red = mask & schedule.through[u]
                    strict = red_reports(mask, u, schedule, True)
                    default = red_reports(mask, u, schedule, False)
                    if red == 0:
                        assert strict == () and default == (), (seed, mask, u)
                        continue
                    times = [t for t, _ in strict]
                    assert times == sorted(set(times)), (seed, mask, u)
                    union = 0
                    for _, cls in strict:
                        assert cls and cls & union == 0, (seed, mask, u)
                        union |= cls
                    assert union == red, (seed, mask, u)
                    assert times[0] == schedule.min_visit(u, red), (seed, mask, u)
                    assert times[-1] == schedule.max_visit(u, red), (seed, mask, u)
                    assert default == ((schedule.min_visit(u, red), red),), (seed, mask, u)
                    for k in indices_of(red):  # a strict red reading keeps the evader's class
                        row = observe(mask, u, times[-1] + 1.0, schedule.times[u][k], schedule,
                                      True)
                        assert row.info in [cls for _, cls in strict], (seed, mask, u, k)
                        assert row.info >> (k - 1) & 1, (seed, mask, u, k)
