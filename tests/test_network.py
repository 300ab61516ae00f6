import json
import math
import re

import pytest

from ugs_pursuit import (
    CycleDetected,
    EntryIsGoal,
    GoalMismatch,
    MetricError,
    NetworkError,
    NonPositiveEdgeTime,
    NonZeroDiagonal,
    OrphanUgs,
    SpeedAdvantageViolated,
    TriangleViolation,
    UnreachableNode,
    build_schedule,
    enumerate_paths,
    euclidean_metric,
    indices_of,
    table_metric,
    validate_metric,
    validate_network,
)
from ugs_pursuit.fixtures import demo_raw, random_instance, random_layered_network, speed_floor
from ugs_pursuit.network import PursuerMetric, euclidean_admissible


def net(nodes, edges, **extra):
    raw = {
        "nodes": [{"id": j} for j in nodes],
        "edges": [{"from": a, "to": b, "time": t} for a, b, t in edges],
        "entry": 1,
    }
    raw.update(extra)
    return validate_network(raw)


class TestValidateNetwork:
    def test_demo_is_valid(self, demo):
        network, _, _ = demo
        assert network.m == 7
        assert network.goals == {5, 6, 7}

    def test_single_edge(self):
        network = net([1, 2], [(1, 2, 5.0)])
        assert network.goals == {2}

    def test_cycle_rejected(self):
        with pytest.raises(CycleDetected):
            net([1, 2], [(1, 2, 1.0), (2, 1, 1.0)])

    def test_self_loop_rejected(self):
        with pytest.raises(CycleDetected):
            net([1, 2], [(1, 2, 1.0), (2, 2, 1.0)])

    def test_entry_is_goal(self):
        with pytest.raises(EntryIsGoal):
            net([1, 2], [(2, 1, 1.0)])

    def test_unreachable_node(self):
        with pytest.raises(UnreachableNode):
            net([1, 2, 3], [(1, 2, 1.0)])

    def test_dead_end_node(self):
        # 3 is reachable but on no entry-to-goal path only if childless...
        # a childless reachable node is a goal, so use one that cannot be
        # reached instead: parent chain into the entry.
        with pytest.raises(UnreachableNode):
            net([1, 2, 3], [(1, 2, 1.0), (3, 2, 1.0)])

    def test_nonpositive_edge_time(self):
        with pytest.raises(NonPositiveEdgeTime):
            net([1, 2], [(1, 2, 0.0)])

    def test_infinite_edge_time(self):
        # "time": 1e999 in a network file loads as inf
        with pytest.raises(NetworkError, match="infinite"):
            net([1, 2], [(1, 2, json.loads("1e999"))])

    def test_goal_mismatch(self):
        with pytest.raises(GoalMismatch):
            net([1, 2], [(1, 2, 1.0)], goals=[1, 2])

    def test_declared_goals_accepted(self):
        network = net([1, 2], [(1, 2, 1.0)], goals=[2])
        assert network.goals == {2}

    def test_entry_must_be_node_one(self):
        raw = demo_raw()
        raw["entry"] = 3
        with pytest.raises(NetworkError):
            validate_network(raw)

    def test_non_contiguous_ids_rejected(self):
        with pytest.raises(NetworkError, match=re.escape("contiguous 1..2, got [1, 3]")):
            net([1, 3], [(1, 3, 1.0)])

    def test_edge_to_unknown_node_rejected(self):
        with pytest.raises(NetworkError, match=re.escape("edge (1,3) references an unknown node")):
            net([1, 2], [(1, 2, 1.0), (1, 3, 1.0)])

    def test_goals_not_a_list_rejected(self):
        with pytest.raises(NetworkError, match="'goals' must be a list of node ids, not a int"):
            net([1, 2], [(1, 2, 1.0)], goals=2)

    def test_duplicate_edge_rejected(self):
        with pytest.raises(NetworkError):
            net([1, 2], [(1, 2, 1.0), (1, 2, 2.0)])

    @pytest.mark.parametrize("edit,named", [
        (lambda raw: raw["nodes"][0].update(id=True), "'id'"),
        (lambda raw: raw.update(entry=True), "'entry'"),
        (lambda raw: raw["edges"][0].update({"from": True}), "'from'"),
        (lambda raw: raw["edges"][0].update(to="2"), "'to'"),
        (lambda raw: raw.update(goals=[True, 2]), "'goals'"),
        (lambda raw: raw["nodes"][0].update(x=True, y=0.0), "'x'"),
        (lambda raw: raw["nodes"][0].update(x="3e0", y=0.0), "'x'"),
        (lambda raw: raw["nodes"][0].update(x=10 ** 400, y=0.0), "'x'"),
        (lambda raw: raw["edges"][0].update(time=True), "'time'"),
        (lambda raw: raw["edges"][0].update(time="7"), "'time'"),
    ], ids=["bool-id", "bool-entry", "bool-from", "string-to", "bool-goal", "bool-x",
            "string-x", "int-x-beyond-float", "bool-time", "string-time"])
    def test_only_json_numbers_of_the_field_kind(self, edit, named):
        # ids, entry, endpoints and goals take JSON integers, coordinates and times any
        # JSON number a float holds: True is no number, and "7" is a string
        raw = {"nodes": [{"id": 1}, {"id": 2}], "edges": [{"from": 1, "to": 2, "time": 1.0}],
               "entry": 1}
        edit(raw)
        with pytest.raises(NetworkError, match=f"{named} is missing or of the wrong type"):
            validate_network(raw)

    def test_integer_coordinates_and_times_accepted(self):
        network = validate_network({"nodes": [{"id": 1, "x": 0, "y": 0}, {"id": 2, "x": 3, "y": 4}],
                                    "edges": [{"from": 1, "to": 2, "time": 7}], "entry": 1})
        assert network.coords[2] == (3.0, 4.0) and network.edge_time[(1, 2)] == 7.0
        assert type(network.edge_time[(1, 2)]) is float


class TestEnumeratePaths:
    def test_demo_paths(self, demo):
        _, paths, _ = demo
        assert [p.nodes for p in paths] == [
            (1, 2, 7),
            (1, 3, 4, 6),
            (1, 3, 4, 7),
            (1, 3, 5),
        ]
        by_nodes = {p.nodes: p for p in paths}
        assert by_nodes[(1, 3, 5)].length == pytest.approx(11.83, abs=1e-9)
        assert by_nodes[(1, 3, 4, 6)].length == pytest.approx(16.30, abs=1e-9)
        assert by_nodes[(1, 3, 4, 7)].length == pytest.approx(17.54, abs=1e-9)
        assert by_nodes[(1, 2, 7)].length == pytest.approx(14.66, abs=1e-9)

    def test_lexicographic_indices(self, demo):
        _, paths, _ = demo
        assert [p.index for p in paths] == [1, 2, 3, 4]
        assert sorted(p.nodes for p in paths) == [p.nodes for p in paths]

    def test_single_edge_length(self, single_edge):
        _, paths, _ = single_edge
        assert len(paths) == 1
        assert paths[0].length == pytest.approx(5.0 + 2.0)

    def test_no_cap_by_default(self):
        # 288 routes; bitmasks are Python ints
        network = random_layered_network(7, widths=[1, 4, 4, 4, 4, 3])
        paths = enumerate_paths(network)
        assert len(paths) == 288
        schedule = build_schedule(paths, network.m)
        assert schedule.n == 288
        assert schedule.through[network.entry] == (1 << 288) - 1
        assert sum(bin(schedule.through[g]).count("1") for g in network.goals) == 288

    def test_arrival_times_match_edge_sums(self):
        for seed in range(8):
            network = random_layered_network(seed)
            for path in enumerate_paths(network):
                total = 0.0
                assert path.arrival[0] == 0.0
                for pos, (a, b) in enumerate(zip(path.nodes, path.nodes[1:]), start=1):
                    total += network.edge_time[(a, b)]
                    assert path.arrival[pos] == pytest.approx(total, abs=1e-12)

    def test_paths_end_in_goals_and_cover_them(self):
        for seed in range(8):
            network = random_layered_network(seed)
            paths = enumerate_paths(network)
            exits = {p.exit for p in paths}
            assert all(p.exit in network.goals for p in paths)
            assert exits == network.goals


class TestBuildSchedule:
    def test_demo_rows(self, demo, demo_index):
        _, _, schedule = demo
        k_27 = demo_index[(1, 2, 7)]
        row2 = [schedule.times[2][k] for k in range(1, 5)]
        assert row2[k_27 - 1] == pytest.approx(4.83)
        assert all(math.isinf(v) for i, v in enumerate(row2, start=1) if i != k_27)
        for k in (demo_index[(1, 3, 4, 6)], demo_index[(1, 3, 4, 7)]):
            assert schedule.times[4][k] == pytest.approx(12.06)

    def test_entry_row_all_zero(self, demo):
        _, _, schedule = demo
        assert all(schedule.times[1][k] == 0.0 for k in range(1, schedule.n + 1))

    def test_membership_masks(self, demo, demo_index):
        _, _, schedule = demo
        assert set(indices_of(schedule.through[7])) == {
            demo_index[(1, 3, 4, 7)],
            demo_index[(1, 2, 7)],
        }
        assert set(indices_of(schedule.through[3])) == {
            demo_index[(1, 3, 4, 6)],
            demo_index[(1, 3, 4, 7)],
            demo_index[(1, 3, 5)],
        }

    def test_no_paths_rejected(self):
        with pytest.raises(NetworkError, match="no evader paths"):
            build_schedule((), 2)

    def test_orphan_node(self, demo):
        network, paths, _ = demo
        without_27 = [p for p in paths if p.nodes != (1, 2, 7)]
        with pytest.raises(OrphanUgs):
            build_schedule(without_27, network.m)

    def test_schedule_recovers_path_node_sets(self):
        for seed in range(8):
            network = random_layered_network(seed)
            paths = enumerate_paths(network)
            schedule = build_schedule(paths, network.m)
            for path in paths:
                visited = {
                    j for j in range(1, network.m + 1)
                    if schedule.times[j][path.index] < math.inf
                }
                assert visited == set(path.nodes)


class TestMetrics:
    def test_exit_pair_distance(self, demo, demo_metric):
        assert demo_metric.time(6, 7) == pytest.approx(2.0 / 1.62, abs=1e-6)

    def test_zero_diagonal(self, demo_metric):
        assert all(demo_metric.time(j, j) == 0.0 for j in range(1, 8))

    def test_speed_scaling(self, demo):
        network, _, _ = demo
        m1 = euclidean_metric(network, 1.3)
        m2 = euclidean_metric(network, 2.6)
        for i in range(1, 8):
            for j in range(1, 8):
                if i != j:
                    assert m2.time(i, j) == pytest.approx(m1.time(i, j) / 2.0, rel=1e-12)

    def test_speed_advantage_violated(self, demo):
        network, _, _ = demo
        assert speed_floor(network) == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(SpeedAdvantageViolated):
            euclidean_metric(network, 0.9)

    def test_nan_speed_rejected(self, demo):
        network, _, _ = demo
        with pytest.raises(MetricError, match="must be positive, got nan"):
            euclidean_metric(network, math.nan)

    def test_admissible_exactly_when_the_metric_builds(self):
        networks = [validate_network(demo_raw()), random_layered_network(13),
                    random_layered_network(17)]
        networks += [random_instance(seed)[0] for seed in range(1, 21)]
        floors = [*map(speed_floor, networks)]
        for coordinate in (None, math.nan, math.inf):  # node 3 without finite coordinates
            raw = demo_raw()
            raw["nodes"][2]["x"] = coordinate
            if coordinate is None:
                del raw["nodes"][2]["y"]
            networks.append(validate_network(raw))
            floors.append(floors[0])
        for network, floor in zip(networks, floors):
            speeds = [0.0, -1.0, math.nan, math.inf, 1e-300, floor, 2 * floor]
            speeds += [floor * (1 + k * 1e-10) for k in range(-20, 21)]
            speeds += [math.nextafter(floor, 0.0), math.nextafter(floor, math.inf)]
            for speed in speeds:
                try:
                    euclidean_metric(network, speed)
                except MetricError:
                    builds = False
                else:
                    builds = True
                assert euclidean_admissible(network, speed) is builds, (network.m, speed)

    def test_distance_table_changes_no_metric(self):
        # each entry is the straight-line distance over the speed, as computed
        # per entry; where that table is invalid, euclidean_metric raises what
        # validating it raises and euclidean_admissible is false
        networks = [random_instance(seed)[0] for seed in range(1, 51)]
        networks += [random_layered_network(seed) for seed in (13, 17, 5)]
        networks.append(random_layered_network(85, widths=[1, 3, 3, 3, 3, 2]))
        for network in networks:
            floor = speed_floor(network)
            for speed in (0.5 * floor, floor, 1.02 * floor, 4.82 * floor):
                nodes = range(1, network.m + 1)
                expected = [[0.0] * (network.m + 1)] + [
                    [0.0, *(math.hypot(network.coords[i][0] - network.coords[j][0],
                                       network.coords[i][1] - network.coords[j][1]) / speed
                            for j in nodes)] for i in nodes]
                try:
                    validate_metric(PursuerMetric(d=expected), network, check_triangle=False)
                except MetricError as exc:
                    fault = exc
                else:
                    fault = None
                assert euclidean_admissible(network, speed) is (fault is None), (network, speed)
                if fault is not None:
                    with pytest.raises(type(fault)) as raised:
                        euclidean_metric(network, speed)
                    assert type(raised.value) is type(fault) and str(raised.value) == str(fault)
                    continue
                got = euclidean_metric(network, speed).d
                assert [[x.hex() for x in row] for row in got] == \
                    [[x.hex() for x in row] for row in expected], (network, speed)

    def test_distance_table_needs_every_coordinate(self):
        raw = demo_raw()
        del raw["nodes"][2]["x"], raw["nodes"][2]["y"]
        network = validate_network(raw)
        message = "node 3 has no coordinates; euclidean metric unavailable"
        for build in (lambda: network.distances, lambda: euclidean_metric(network, 2.0)):
            with pytest.raises(MetricError) as raised:
                build()
            assert str(raised.value) == message
        assert euclidean_admissible(network, 2.0) is False

    def test_triangle_violation(self):
        network = net([1, 2, 3], [(1, 2, 2.0), (2, 3, 2.0)])
        rows = [
            [0.0, 1.0, 10.0],
            [1.0, 0.0, 1.0],
            [10.0, 1.0, 0.0],
        ]
        with pytest.raises(TriangleViolation) as exc:
            table_metric(rows, network)
        assert any(v[0] == "triangle" for v in exc.value.violations)

    def test_nonzero_diagonal(self):
        network = net([1, 2], [(1, 2, 2.0)])
        with pytest.raises(NonZeroDiagonal):
            table_metric([[0.5, 1.0], [1.0, 0.0]], network)

    def test_nan_entry_rejected(self, demo, demo_metric):
        # a NaN fails every comparison; only a test that the entry is >= 0 catches it
        network, _, _ = demo
        rows = [[*row[1:]] for row in demo_metric.d[1:]]
        rows[0][5] = math.nan
        with pytest.raises(NonZeroDiagonal, match="non-finite") as exc:
            table_metric(rows, network)
        assert exc.value.violations[0][:2] == ("diagonal", (1, 6))

    def test_infinite_goal_row_rejected(self, demo, demo_metric):
        # goal 5 has no edge for the speed test, and every triangle test through
        # its row compares inf with inf: only a finiteness test catches it
        network, _, _ = demo
        rows = [[*row[1:]] for row in demo_metric.d[1:]]
        rows[4] = [0.0 if j == 4 else math.inf for j in range(network.m)]
        with pytest.raises(NonZeroDiagonal, match="non-finite") as exc:
            table_metric(rows, network)
        assert exc.value.violations[0][:2] == ("diagonal", (5, 1))

    def test_all_zero_table_is_valid(self, demo, zero_metric):
        network, _, _ = demo
        validate_metric(zero_metric, network)

    def test_euclidean_passes_full_validation(self, demo, demo_metric):
        network, _, _ = demo
        validate_metric(demo_metric, network)

    @pytest.mark.parametrize("entry", [True, "2.98", None], ids=["bool", "string", "null"])
    def test_table_entries_are_json_numbers(self, demo, demo_metric, entry):
        network, _, _ = demo
        rows = [[*row[1:]] for row in demo_metric.d[1:]]
        rows[2][4] = entry
        with pytest.raises(MetricError, match=re.escape(f"metric entry (3, 5) is {entry!r}, not a number")):
            table_metric(rows, network)

    def test_table_shape_checked(self, demo):
        network, _, _ = demo
        with pytest.raises(Exception):
            table_metric([[0.0] * 3 for _ in range(3)], network)

    def test_wrong_size_table_rejected(self, demo):
        network, _, _ = demo
        small = PursuerMetric(d=tuple((0.0,) * 4 for _ in range(4)))
        with pytest.raises(MetricError, match="metric is 3x3 but the network has 7 nodes"):
            validate_metric(small, network)

    def test_metric_without_coords(self):
        network = net([1, 2], [(1, 2, 1.0)])
        with pytest.raises(Exception):
            euclidean_metric(network, 2.0)

    def test_random_layered_metrics_valid(self):
        for seed in range(6):
            network = random_layered_network(seed)
            metric = euclidean_metric(network, 1.1 * speed_floor(network))
            validate_metric(metric, network)

    def test_metric_wrapper_type(self, demo_metric):
        assert isinstance(demo_metric, PursuerMetric)
        assert demo_metric.m == 7
