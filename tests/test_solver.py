import gc
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
import weakref
from bisect import bisect_left
from collections import Counter
from itertools import accumulate, chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ugs_pursuit
from ugs_pursuit import (
    InconsistentObservation,
    PursuitError,
    SolveResult,
    base_case,
    build_schedule,
    enumerate_paths,
    euclidean_metric,
    build_tree,
    demo_bundle,
    full_lattice,
    observe,
    realizable_sets,
    simulate,
    solve,
    tree_dumps,
    validate_network,
    verify_guarantee,
)
from ugs_pursuit import solver
from ugs_pursuit.analysis import sweep
from ugs_pursuit.fixtures import random_instance, random_layered_network, speed_floor
from ugs_pursuit.information import move_children, red_reports
from ugs_pursuit.network import indices_of, mask_from
from ugs_pursuit.solver import (CAPTURE, SPLIT, MoveTable, _candidates, _known_bound, _Solver,
                                known_path_margin, set_moves)
from ugs_pursuit.util import TIME_EPS

from conftest import comb, mask_of, reversed_ids, with_few_frames


def positions_value(j, path, metric):
    """Best over the path's positions: reach that sensor when the evader
    does. The independent form of the known-path bound."""
    return max(arr - metric.time(j, node) for node, arr in zip(path.nodes, path.arrival))


def record_row(record):
    """An exported record's ``(D, mu, capture)`` lists, as ``rows`` holds them."""
    return record["D"], record["mu"], record["capture"]


def unbounded_candidates(mask, latest, schedule, strict=False):
    """A set's admissible moves as (node, exit time at node, kind), capture
    moves first then splits, each by node, valued with no known-path bound:
    every split is read, each subset's value looked up in ``latest`` by
    ``(node, mask)``. A split is admissible when its green part reaches the
    last red report's time, and worth its worst part."""
    captures, splits = set_moves(mask, schedule, strict)
    moves = list(captures)
    for u, green, time, reds in splits:
        worth = latest[(u, green)]
        if worth >= time - TIME_EPS:
            moves.append((u, min(worth, *(latest[(u, red)] for red in reds)), SPLIT))
    return moves


class TestBaseCase:
    def test_exit_six_known_path(self, demo, demo_index, demo_metric):
        _, paths, schedule = demo
        k = demo_index[(1, 3, 4, 6)]
        assert base_case(6, k, schedule, demo_metric, paths) == pytest.approx(16.30, abs=1e-9)

    def test_exit_six_for_rejoining_path(self, demo, demo_index, demo_metric):
        _, paths, schedule = demo
        k = demo_index[(1, 3, 4, 7)]
        expected = 17.54 - 2.0 / 1.62
        assert base_case(6, k, schedule, demo_metric, paths) == pytest.approx(expected, abs=1e-3)

    def test_each_exit_equals_path_length(self, demo, demo_metric):
        _, paths, schedule = demo
        for p in paths:
            assert base_case(p.exit, p.index, schedule, demo_metric, paths) == pytest.approx(
                p.length, abs=1e-12
            )

    def test_both_forms_agree(self, demo, demo_metric):
        _, paths, schedule = demo
        for p in paths:
            for j in range(1, schedule.m + 1):
                closed = base_case(j, p.index, schedule, demo_metric, paths)
                assert closed == pytest.approx(positions_value(j, p, demo_metric), abs=1e-9)

    def test_linear_in_travel_time(self, demo, demo_metric):
        _, paths, schedule = demo
        k = 2
        ref = base_case(6, k, schedule, demo_metric, paths)
        shifted = [list(row) for row in demo_metric.d]
        delta = 0.37
        exit_node = paths[k - 1].exit
        shifted[6][exit_node] += delta
        bumped = type(demo_metric)(d=tuple(tuple(r) for r in shifted))
        assert base_case(6, k, schedule, bumped, paths) == pytest.approx(ref - delta, abs=1e-12)


class TestCandidateMoves:
    def test_split_at_exit_six(self, demo, demo_index, demo_metric):
        _, paths, schedule = demo
        result = solve(demo[0], schedule, demo_metric, paths)
        pair = mask_of(demo_index, (1, 3, 4, 6), (1, 3, 4, 7))
        moves = unbounded_candidates(pair, result.latest, schedule)
        by_node = {u: (value, kind) for u, value, kind in moves}
        assert by_node[6][1] == SPLIT
        assert by_node[6][0] == pytest.approx(16.30, abs=1e-9)
        assert 7 not in by_node  # green side cannot wait out the later visit

    def test_capture_move_at_exit_seven(self, demo, demo_index, demo_metric):
        _, paths, schedule = demo
        result = solve(demo[0], schedule, demo_metric, paths)
        only = mask_of(demo_index, (1, 2, 7))
        moves = unbounded_candidates(only, result.latest, schedule)
        by_node = {u: (value, kind) for u, value, kind in moves}
        assert by_node[7] == (pytest.approx(14.66, abs=1e-9), CAPTURE)

    def test_capture_moves_sort_first(self, demo, demo_index, demo_metric):
        _, paths, schedule = demo
        result = solve(demo[0], schedule, demo_metric, paths)
        pair = mask_of(demo_index, (1, 3, 4, 6), (1, 3, 4, 7))
        moves = unbounded_candidates(pair, result.latest, schedule)
        kinds = [kind for _, _, kind in moves]
        assert kinds == sorted(kinds, key=lambda k: k != CAPTURE)


class TestSolve:
    def test_zero_metric_root(self, demo, zero_metric):
        network, paths, schedule = demo
        result = solve(network, schedule, zero_metric, paths)
        assert result.root_latest == pytest.approx(11.83, abs=1e-9)
        assert result.root_latest == pytest.approx(min(p.length for p in paths))

    def test_zero_metric_tiebreak_deterministic(self, demo, zero_metric):
        network, paths, schedule = demo
        result = solve(network, schedule, zero_metric, paths)
        assert result.root_policy == 2  # several moves tie at 11.83; smallest wins

    def test_single_path_root(self, single_edge):
        network, paths, schedule = single_edge
        metric = euclidean_metric(network, 1.0)
        result = solve(network, schedule, metric, paths)
        assert result.root_latest == pytest.approx(7.0 - 5.0, abs=1e-12)
        assert result.root_latest > 0
        assert result.root_policy == 2

    def test_root_never_negative(self):
        for seed in range(6):
            network, paths, schedule = random_instance(seed, n_max=4, m_max=8)
            metric = euclidean_metric(network, 1.1 * speed_floor(network))
            result = solve(network, schedule, metric, paths)
            assert result.root_latest is not None
            assert result.root_latest >= -1e-12

    def test_known_path_rows_match_base_case(self, demo, demo_metric):
        network, paths, schedule = demo
        result = solve(network, schedule, demo_metric, paths)
        for p in paths:
            for j in range(1, network.m + 1):
                expected = base_case(j, p.index, schedule, demo_metric, paths)
                assert result.latest[(j, 1 << (p.index - 1))] == pytest.approx(expected, abs=1e-12)

    def test_earliest_visit_lower_bound(self):
        # sets fully contained in a node's traffic can always be met there
        for seed in range(6):
            network, paths, schedule = random_instance(seed, n_max=4, m_max=8)
            metric = euclidean_metric(network, 1.1 * speed_floor(network))
            result = solve(network, schedule, metric, paths, prune=False)
            for (j, mask), value in result.latest.items():
                if mask & schedule.through[j] == mask:
                    assert value is not None
                    assert value >= schedule.min_visit(j, mask) - 1e-9

    def test_pruning_neutrality(self, demo, demo_metric):
        network, paths, schedule = demo
        pruned = solve(network, schedule, demo_metric, paths, prune=True)
        lattice = solve(network, schedule, demo_metric, paths, prune=False)
        family = realizable_sets(schedule, paths)
        assert pruned.root_latest == lattice.root_latest
        for mask in family.sets:
            for j in range(1, network.m + 1):
                assert pruned.latest[(j, mask)] == lattice.latest[(j, mask)]

    def test_speed_monotonicity(self, demo):
        network, paths, schedule = demo
        values = []
        for speed in [1.05 + 0.15 * i for i in range(20)]:
            metric = euclidean_metric(network, speed)
            values.append(solve(network, schedule, metric, paths).root_latest)
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_on_demand_sets_are_the_lazy_sets(self, demo, demo_metric):
        network, paths, schedule = demo
        lazy = solve(network, schedule, demo_metric, paths, prune=True)
        assert lazy.root_mask in lazy.on_demand_sets
        assert all(mask & (mask - 1) for mask in lazy.on_demand_sets)  # no singleton
        lattice = solve(network, schedule, demo_metric, paths, prune=False)
        assert lattice.on_demand_sets == ()

    def test_tables_fill_on_read(self, demo, demo_metric):
        network, paths, schedule = demo
        lazy = solve(network, schedule, demo_metric, paths)
        lattice = solve(network, schedule, demo_metric, paths, prune=False)
        unread = [mask for mask in full_lattice(schedule.n) if (1, mask) not in lazy.latest]
        assert unread
        for mask in unread:
            for j in range(1, network.m + 1):
                key = (j, mask)
                assert lazy.latest[key] == lattice.latest[key]
                assert lazy.policy[key] == lattice.policy[key]
                assert lazy.capture_move[key] == lattice.capture_move[key]
        alone = solve(network, schedule, demo_metric, paths).policy  # result dropped
        assert alone[(1, unread[0])] == lattice.policy[(1, unread[0])]
        full = lazy.root_mask
        for key in ((0, full), (network.m + 1, full), (1, 0), (1, full + 1)):
            for table in (lazy.latest, lazy.policy, lazy.capture_move):
                with pytest.raises(KeyError):
                    table[key]

    def test_family_domain_covered(self, demo, demo_metric):
        network, paths, schedule = demo
        result = solve(network, schedule, demo_metric, paths, prune=False)
        for mask in full_lattice(schedule.n):
            for j in range(1, network.m + 1):
                assert (j, mask) in result.latest

    def test_modes_agree_on_demo(self, demo, demo_metric):
        network, paths, schedule = demo
        default = solve(network, schedule, demo_metric, paths, strict_resolution=False)
        strict = solve(network, schedule, demo_metric, paths, strict_resolution=True)
        assert default.root_latest == pytest.approx(strict.root_latest, abs=1e-12)

    def test_json_round_trip(self, demo, demo_metric):
        network, paths, schedule = demo
        result = solve(network, schedule, demo_metric, paths)
        clone = SolveResult.from_json(result.to_json())
        assert clone.latest == result.latest
        assert clone.policy == result.policy
        assert clone.capture_move == result.capture_move
        assert clone.strict_resolution == result.strict_resolution
        assert clone.metric_digest == result.metric_digest

    def test_json_set_spelling_does_not_split_rows(self, demo, demo_metric):
        network, paths, schedule = demo
        result = solve(network, schedule, demo_metric, paths)
        data = result.to_json()
        for record in data["sets"][::2]:
            record["set"] = record["set"][::-1]
        clone = SolveResult.from_json(data)
        assert clone.rows.keys() == result.rows.keys()
        assert clone.latest == result.latest and clone.policy == result.policy

    @pytest.mark.parametrize("member", [1.0, "1", None, [1], True])
    def test_json_set_member_not_an_int(self, demo, demo_metric, member):
        network, paths, schedule = demo
        data = solve(network, schedule, demo_metric, paths).to_json()
        last = data["sets"][-1]["set"]
        assert last[0] == 1
        last[0] = member
        named = f"sets[{len(data['sets']) - 1}]: set is {last!r}, not a list of paths 1..4"
        with pytest.raises(ValueError, match=re.escape(named) + "$"):
            SolveResult.from_json(data)

    @pytest.mark.parametrize("value", [3, 1.5, True, None], ids=["int", "float", "bool", "null"])
    def test_json_set_not_a_list_named(self, demo, demo_metric, value):
        network, paths, schedule = demo
        data = solve(network, schedule, demo_metric, paths).to_json()
        data["sets"][3]["set"] = value
        named = f"sets[3]: set is {value!r}, not a list of paths 1..4"
        with pytest.raises(ValueError, match=re.escape(named) + "$"):
            SolveResult.from_json(data)

    def test_json_entry_listed_twice(self, demo, demo_metric):
        network, paths, schedule = demo
        data = solve(network, schedule, demo_metric, paths).to_json()
        root = next(r for r in data["sets"] if r["set"] == [1, 2, 3, 4])
        # the same set in another member order, with other values
        data["sets"].append({**root, "set": [4, 3, 2, 1], "D": [999.0] * 7})
        with pytest.raises(ValueError, match="set \\[4, 3, 2, 1\\]: listed twice"):
            SolveResult.from_json(data)

    def test_json_set_listed_for_some_nodes(self, demo, demo_metric):
        network, paths, schedule = demo
        data = solve(network, schedule, demo_metric, paths).to_json()
        del data["sets"][-1]["D"][-1]
        with pytest.raises(ValueError, match="D is a list of 6 values, not a list of 7 values"):
            SolveResult.from_json(data)

    @pytest.mark.parametrize("name,value", [
        ("n", 4.0), ("n", True), ("n", "4"), ("m", 7.0), ("m", False),
        ("strict_resolution", "false"), ("strict_resolution", 0),
        ("pruned", "true"), ("pruned", None), ("metric_digest", 12), ("metric_digest", None),
    ])
    def test_json_meta_field_type(self, demo, demo_metric, name, value):
        network, paths, schedule = demo
        data = solve(network, schedule, demo_metric, paths).to_json()
        data["meta"][name] = value
        with pytest.raises(ValueError, match=f"meta {name} is {value!r}, not of type"):
            SolveResult.from_json(data)

    @pytest.mark.parametrize("n,m,listed", [(0, 7, False), (-2, 7, False), (4, 0, True),
                                            (4, -1, True)])
    def test_json_sizes_below_one_rejected(self, demo, demo_metric, n, m, listed):
        network, paths, schedule = demo
        data = solve(network, schedule, demo_metric, paths).to_json()
        data["meta"].update(n=n, m=m)
        if not listed:
            data["sets"] = []
        named = f"meta n is {n} and m is {m}; tables have at least one path and one node"
        with pytest.raises(ValueError, match=re.escape(named) + "$"):
            SolveResult.from_json(data)

    def test_json_sizes_read_before_any_set(self, demo, demo_metric):
        # sizes_of makes from_json's meta checks and reads no record
        network, paths, schedule = demo
        data = solve(network, schedule, demo_metric, paths).to_json()
        data["sets"] = None
        assert SolveResult.sizes_of(data) == (schedule.n, schedule.m) == (4, 7)
        data["meta"]["m"] = 7.0
        with pytest.raises(ValueError, match=r"^meta m is 7\.0, not of type int$"):
            SolveResult.sizes_of(data)
        del data["meta"]
        with pytest.raises(ValueError, match=r"^the tables: no field 'meta'$"):
            SolveResult.sizes_of(data)

    def test_json_more_paths_than_records_rejected_before_reading_sets(self, demo, demo_metric):
        network, paths, schedule = demo
        data = solve(network, schedule, demo_metric, paths).to_json()
        data["meta"]["n"] = 10 ** 8
        data["sets"].append({**data["sets"][-1], "set": [10 ** 8]})
        records = len(data["sets"])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as raised:
                SolveResult.from_json(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f"meta n is {10 ** 8}, but the tables list only {records} sets" in str(raised.value)
        # the mask of path 10**8 alone would take 12.5 MB
        assert peak < 4_000_000

    @pytest.mark.parametrize("name", ["D", "mu"])
    def test_json_null_rejected(self, name):
        # every set has the capture move at the entry, so no writer leaves a cell null
        meta = {"n": 1, "m": 1, "strict_resolution": False, "pruned": True, "metric_digest": "x"}
        record = {"set": [1], "D": [3.0], "mu": [1], "capture": [True], name: [None]}
        with pytest.raises(ValueError, match=f"set \\[1\\], node 1: .*{name} None"):
            SolveResult.from_json({"meta": meta, "sets": [record]})

    # (edit, message): each drops a field, or puts a non-object where an object goes or a
    # non-list where the list of records goes; an edit that is not a function is the tables
    @pytest.mark.parametrize("edit,named", [
        (5, "the tables: a int, not an object"), (None, "the tables: a NoneType, not an object"),
        (1.5, "the tables: a float, not an object"), (True, "the tables: a bool, not an object"),
        (lambda data: data.update(sets=7), "sets: a int, not a list"),
        (lambda data: data.update(sets=None), "sets: a NoneType, not a list"),
        (lambda data: data.update(sets="[1, 2, 3, 4]"), "sets: a str, not a list"),
        (lambda data: data.update(sets={str(k): {} for k in range(9)}), "sets: a dict, not a list"),
        (lambda data: data.pop("meta"), "the tables: no field 'meta'"),
        (lambda data: data.pop("sets"), "the tables: no field 'sets'"),
        (lambda data: data["meta"].pop("n"), "meta: no field 'n'"),
        (lambda data: data["meta"].pop("metric_digest"), "meta: no field 'metric_digest'"),
        (lambda data: data.update(meta=[4, 7]), "meta: a list, not an object"),
        (lambda data: data["sets"][3].pop("set"), "sets[3]: no field 'set'"),
        (lambda data: data["sets"][3].pop("D"), "sets[3]: no field 'D'"),
        (lambda data: data["sets"][3].pop("mu"), "sets[3]: no field 'mu'"),
        (lambda data: data["sets"][3].pop("capture"), "sets[3]: no field 'capture'"),
        (lambda data: data["sets"].__setitem__(3, [[1, 2], [0.0] * 7]),
         "sets[3]: a list, not an object"),
        (lambda data: data["sets"].__setitem__(3, None), "sets[3]: a NoneType, not an object"),
    ], ids=["tables-int", "tables-null", "tables-float", "tables-bool", "sets-int", "sets-null",
            "sets-string", "sets-object", "no-meta", "no-sets", "no-meta-n", "no-meta-digest",
            "meta-not-an-object", "no-set", "no-D", "no-mu", "no-capture", "record-a-list",
            "record-null"])
    def test_json_missing_field_named(self, demo, demo_metric, edit, named):
        network, paths, schedule = demo
        data = solve(network, schedule, demo_metric, paths).to_json()
        if callable(edit):
            edit(data)
        else:
            data = edit
        with pytest.raises(ValueError, match=re.escape(named) + "$"):
            SolveResult.from_json(data)

    # a column (or the set) is replaced whole; a cell is node 3's value in the column
    @pytest.mark.parametrize("name,value,cell,named", [
        ("D", 1.9, False, ": D is a float, not a list of 7 values"),
        ("mu", "1", False, ": mu is a str, not a list of 7 values"),
        ("capture", True, False, ": capture is a bool, not a list of 7 values"),
        ("capture", "false", True, "capture 'false'"), ("capture", 1, True, "capture 1"),
        ("set", [0], False, "paths 1..4"), ("set", [-1], False, "paths 1..4"),
        ("set", [], False, "paths 1..4"), ("D", None, True, "D None"),
        ("mu", None, True, "mu None"), ("D", math.nan, True, "D nan"),
        ("D", math.inf, True, "D inf"), ("D", -math.inf, True, "D -inf"),
        ("mu", [1] * 8, False, ": mu is a list of 8 values, not a list of 7 values"),
        ("mu", 0, True, "mu 0"), ("mu", 8, True, "mu 8"), ("mu", 1.0, True, "mu 1.0"),
        ("mu", True, True, "mu True"), ("D", "1", True, "D '1'"), ("D", False, True, "D False"),
    ], ids=["fractional-node", "string-node", "bool-node", "string-capture", "int-capture",
            "member-zero", "negative-member", "empty-set", "null-D", "null-mu", "nan-D",
            "infinite-D", "minus-infinite-D", "long-column", "mu-zero", "mu-above-m",
            "float-mu", "bool-mu", "string-D", "bool-D"])
    def test_json_entry_field_rejected(self, demo, demo_metric, name, value, cell, named):
        network, paths, schedule = demo
        data = solve(network, schedule, demo_metric, paths).to_json()
        root = next(r for r in data["sets"] if r["set"] == [1, 2, 3, 4])
        if cell:
            root[name][2] = value
        else:
            root[name] = value
        with pytest.raises(ValueError, match=re.escape(named)) as raised:
            SolveResult.from_json(data)
        if name != "set":
            where = "set [1, 2, 3, 4], node 3: " if cell else "set [1, 2, 3, 4]: "
            assert str(raised.value).startswith(where)

    def test_tables_are_read_only_views(self, demo, demo_metric):
        network, paths, schedule = demo
        result = solve(network, schedule, demo_metric, paths)
        assert len(result.latest) == network.m * len(result.rows)
        assert list(result.policy) == [(j, mask) for mask in result.rows
                                       for j in range(1, network.m + 1)]
        for table in (result.latest, result.policy, result.capture_move):
            with pytest.raises(TypeError):
                table[(1, result.root_mask)] = 0.0
        assert (1, result.root_mask) in result.latest
        assert (0, result.root_mask) not in result.latest

    def test_dropped_result_freed_without_cycle_collector(self, demo, demo_metric):
        network, paths, schedule = demo
        lattice = solve(network, schedule, demo_metric, paths, prune=False)
        gc.disable()
        try:
            result = solve(network, schedule, demo_metric, paths)
            unread = next(mask for mask in lattice.rows if mask not in result.rows)
            alone, ref = result.policy, weakref.ref(result)
            del result
            assert ref() is None
            assert alone[(1, unread)] == lattice.policy[(1, unread)]
        finally:
            gc.enable()


class TestMetricDigest:
    """A solved result computes its metric digest on first read, and only
    then: a speed study or a playback never pays for it."""

    def test_solve_and_playback_never_digest(self, demo, demo_metric, digest_calls):
        network, paths, schedule = demo
        for strict in (False, True):
            result = solve(network, schedule, demo_metric, paths, strict_resolution=strict)
            report = verify_guarantee(network, schedule, demo_metric, result,
                                      result.tolerable_delay)
            assert report.all_captured
        assert digest_calls == []

    def test_package_imports_without_openssl(self):
        # the digest takes SHA-256 from the interpreter (_sha2 on 3.12+, _sha256 before):
        # importing hashlib would load OpenSSL, about 3.7 MB of resident memory. A fresh
        # interpreter, since this one may have loaded hashlib already
        check = 'import sys, ugs_pursuit, ugs_pursuit.cli; assert "_hashlib" not in sys.modules'
        source = str(Path(ugs_pursuit.__file__).parents[1])
        done = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": source})
        assert done.returncode == 0, done.stderr

    def test_export_and_tree_digest_once(self, demo, demo_metric, digest_calls):
        # a tree drawn with the solve's own metric compares nothing; one drawn
        # with an equal metric object compares digests, the solve's once
        network, paths, schedule = demo
        copy = euclidean_metric(network, 1.62)
        for read, calls in ((SolveResult.to_json, 1),
                            (lambda r: build_tree(r, schedule, demo_metric), 0),
                            (lambda r: build_tree(r, schedule, copy), 1)):
            digest_calls.clear()
            result = solve(network, schedule, demo_metric, paths)
            read(result)
            read(result)
            assert len(digest_calls) == calls and all(m is demo_metric for m in digest_calls)

    def test_demo_digest_unchanged(self, demo, demo_metric):
        network, paths, schedule = demo
        result = solve(network, schedule, demo_metric, paths, strict_resolution=True)
        assert result.to_json()["meta"]["metric_digest"] == "e50bee16cc7c"

    def test_loaded_result_keeps_file_digest(self, demo, demo_metric, digest_calls):
        network, paths, schedule = demo
        data = solve(network, schedule, demo_metric, paths).to_json()
        data["meta"]["metric_digest"] = "0123456789ab"
        digest_calls.clear()
        clone = SolveResult.from_json(data)
        assert clone.solver is None
        assert clone.metric_digest == "0123456789ab"
        assert clone.to_json()["meta"] == data["meta"]
        assert digest_calls == []


def reference_rows(mask, latest, schedule, metric, strict):
    """Per-node (latest, policy, capture) rows of a set, its subsets' values
    looked up in ``latest``, scored the plain way: candidates sorted capture
    moves first then by node, one ``metric.time`` call per (node,
    candidate), first strictly better score wins."""
    moves = sorted(unbounded_candidates(mask, latest, schedule, strict),
                   key=lambda move: (move[2] != CAPTURE, move[0]))
    rows = []
    for j in range(1, schedule.m + 1):
        best = (None, None, None)
        for u, value, kind in moves:
            score = value - metric.time(j, u)
            if best[0] is None or score > best[0] + TIME_EPS:
                best = (score, u, kind)
        rows.append((best[0], best[1], best[2] == CAPTURE))
    return rows


def assert_kernel_matches_reference(result, schedule, metric):
    computed = sorted({mask for _, mask in list(result.latest) if mask & (mask - 1)})
    assert computed
    for mask in computed:
        expected = reference_rows(mask, result.latest, schedule, metric, result.strict_resolution)
        got = [(result.latest[(j, mask)], result.policy[(j, mask)], result.capture_move[(j, mask)])
               for j in range(1, schedule.m + 1)]
        assert got == expected, mask


def corpus(factor=1.1):
    for seed in range(1, 51):
        network, paths, schedule = random_instance(seed, n_max=4, m_max=8)
        yield network, paths, schedule, euclidean_metric(network, factor * speed_floor(network))


def layered(seed, factor, **kwargs):
    """(network, paths, schedule, metric) for a layered instance at
    ``factor`` times its speed floor."""
    network = random_layered_network(seed, **kwargs)
    paths = enumerate_paths(network)
    schedule = build_schedule(paths, network.m)
    return network, paths, schedule, euclidean_metric(network, factor * speed_floor(network))


L13 = dict(seed=13)  # n=16 paths, m=10 nodes
L17 = dict(seed=17)  # n=18 paths, m=11 nodes
L85 = dict(seed=85, widths=[1, 3, 3, 3, 3, 2])  # n=10 paths, m=15 nodes
L36 = dict(seed=5)  # n=36 paths, m=12 nodes
L288 = dict(seed=7, widths=[1, 4, 4, 4, 4, 3])  # n=288 paths, m=20 nodes
L400 = dict(seed=7, widths=[1, 4, 4, 4, 4, 4, 3])  # n=400 paths, m=24 nodes
L474 = dict(seed=3, widths=[1, 4, 4, 4, 4, 4, 4, 3])  # n=474 paths, m=28 nodes


def relabelled(network, seed):
    """The same network with node ids 2..m shuffled; the entry stays 1."""
    others = list(range(2, network.m + 1))
    shuffled = others[:]
    random.Random(seed).shuffle(shuffled)
    ids = {1: 1, **dict(zip(others, shuffled))}
    return validate_network({
        "nodes": [{"id": ids[j], "x": network.coords[j][0], "y": network.coords[j][1]}
                  for j in range(1, network.m + 1)],
        "edges": [{"from": ids[a], "to": ids[b], "time": t} for a, b, t in network.edges()],
        "entry": 1,
    })


class TestKnownPathRows:
    """Decision trees draw a known path through the general capture branch,
    so every singleton row must be a capture move at the path's exit."""

    @pytest.mark.parametrize("strict", [False, True])
    def test_singleton_rows_capture_at_exit(self, strict):
        for network, paths, schedule, metric in [*corpus(), layered(factor=1.1, **L85)]:
            result = solve(network, schedule, metric, paths, strict_resolution=strict)
            for tables in (result, SolveResult.from_json(result.to_json())):
                for p in paths:
                    mask = 1 << (p.index - 1)
                    for j in range(1, network.m + 1):
                        assert tables.policy[(j, mask)] == p.exit
                        assert tables.capture_move[(j, mask)] is True
                        assert tables.latest[(j, mask)] == base_case(j, p.index, schedule, metric, paths)


class TestScoringKernel:
    @pytest.mark.parametrize("strict", [False, True])
    def test_rows_match_reference_on_corpus(self, strict):
        for network, paths, schedule, metric in corpus():
            result = solve(network, schedule, metric, paths, strict_resolution=strict)
            assert_kernel_matches_reference(result, schedule, metric)

    @pytest.mark.parametrize("strict", [False, True])
    def test_full_lattice_matches_reference(self, strict):
        network, paths, schedule, metric = layered(factor=1.1, **L85)
        result = solve(network, schedule, metric, paths, prune=False, strict_resolution=strict)
        assert_kernel_matches_reference(result, schedule, metric)

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("factor", [1.1, 2.0])
    def test_layered_rows_match_reference(self, factor, strict):
        # each cell values only the splits that can reach its best so far;
        # the reference scores every candidate of every set the export computed
        for instance in (L13, L17, L36):
            network, paths, schedule, metric = layered(factor=factor, **instance)
            result = solve(network, schedule, metric, paths, strict_resolution=strict)
            result.to_json()
            assert_kernel_matches_reference(result, schedule, metric)

    @pytest.mark.parametrize("strict", [False, True])
    def test_root_solve_values_few_sets(self, strict):
        # a bound that stops pruning computes 110 (membership) or 28 (strict)
        network, paths, schedule, metric = layered(factor=1.1, **L13)
        result = solve(network, schedule, metric, paths, strict_resolution=strict)
        assert result.on_demand_sets == (result.root_mask,)

    @pytest.mark.parametrize("strict", [False, True])
    def test_root_invariant_under_relabelling(self, strict):
        for network, paths, schedule, metric in corpus():
            speed = 1.1 * speed_floor(network)
            root = solve(network, schedule, metric, paths, strict_resolution=strict).root_latest
            for seed in (1, 2, 3):
                other = relabelled(network, seed)
                other_paths = enumerate_paths(other)
                other_schedule = build_schedule(other_paths, other.m)
                other_metric = euclidean_metric(other, speed)
                value = solve(other, other_schedule, other_metric, other_paths,
                              strict_resolution=strict).root_latest
                assert value == pytest.approx(root, abs=1e-9)

    @pytest.mark.parametrize("strict", [False, True])
    def test_roots_bit_identical_under_reversed_tie_order(self, strict):
        # a cell keeps the first of equal moves in node order: reversing the ids 2..m
        # reverses that order and renumbers the paths, yet no root may move by one bit
        networks = {f"corpus {seed}": random_instance(seed, n_max=4, m_max=8)[0]
                    for seed in range(1, 51)}
        networks["demo"] = demo_bundle()[0]
        for name, instance in {"L13": L13, "L17": L17, "L36": L36, "L85": L85}.items():
            networks[name] = random_layered_network(**instance)
        for name, network in networks.items():
            for factor in (1.1, 2.0):
                speed = factor * speed_floor(network)
                roots = []
                for labelled in (network, reversed_ids(network)):
                    paths = enumerate_paths(labelled)
                    schedule = build_schedule(paths, labelled.m)
                    metric = euclidean_metric(labelled, speed)
                    result = solve(labelled, schedule, metric, paths, strict_resolution=strict)
                    roots.append(result.root_latest.hex())
                assert roots[0] == roots[1], (name, factor)


def first_pick(scores):
    """The node ``_candidates`` keeps among capture moves at nodes 1, 2, ...
    worth ``scores``, scored from a node at no distance from any of them."""
    m = len(scores)
    d = [None] + [[0.0] * (m + 1)] * m
    row = ([None], [None], [None])
    pass_ = _candidates((tuple((u, score, CAPTURE) for u, score in enumerate(scores, 1)), []), {},
                        [(d, None, None, solver.tie_slack(m), None)], 0, (1,), row)
    next(pass_, None)  # no split, so the pass runs to completion
    return row[1][0]


def pick_without(scores, slack):
    """``first_pick`` once every score more than ``slack`` below the maximum
    is dropped, as the node of the kept score."""
    kept = [(u, score) for u, score in enumerate(scores, 1) if score >= max(scores) - slack]
    return kept[first_pick([score for _, score in kept]) - 1][0]


class TestTieRule:
    """A cell keeps the first move whose score beats the best so far by more
    than ``TIME_EPS``; a move more than (K + 1) * ``TIME_EPS`` below the
    maximum of K moves never changes that pick, so a cell need not value it."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=12))
    def test_far_moves_never_change_the_pick(self, steps):
        # scores on a grid of quarters of TIME_EPS, each a few quarters from
        # the last, so near-ties chain; with a 2 * TIME_EPS slack in place of
        # (K + 1) * TIME_EPS this finds failing chains
        scores = [7.0 + step * TIME_EPS / 4 for step in accumulate(steps)]
        assert pick_without(scores, (len(scores) + 1) * TIME_EPS) == first_pick(scores)

    def test_a_two_eps_slack_changes_the_pick(self):
        # dropping the move at node 2, 2.7 TIME_EPS below the maximum, lets
        # node 3 through and so node 5 in place of node 4
        scores = [7.0 + step * TIME_EPS for step in (0.0, 1.5, 2.4, 3.3, 4.2)]
        assert first_pick(scores) == 4
        assert pick_without(scores, 2 * TIME_EPS) == 5
        assert pick_without(scores, (len(scores) + 1) * TIME_EPS) == 4

    def test_slack_covers_one_move_per_node(self):
        for m in (1, 10, 28):
            assert solver.tie_slack(m) > (m + 1) * TIME_EPS


def unbounded_lattice(paths, schedule, metric, strict):
    """Every set's rows, bottom-up over the full lattice, from the exhaustive
    candidate list: no split is dropped before its green part is solved."""
    memo, rows = {}, {}
    for mask in full_lattice(schedule.n):
        if mask & (mask - 1):
            row = reference_rows(mask, memo, schedule, metric, strict)
        else:
            k = mask.bit_length()
            row = [(base_case(j, k, schedule, metric, paths), paths[k - 1].exit, True)
                   for j in range(1, schedule.m + 1)]
        for j, cell in enumerate(row, start=1):
            memo[(j, mask)] = cell[0]
            rows[(j, mask)] = cell
    return rows


class TestKnownPathBound:
    """A set's value never exceeds its best-informed path's known-path value
    by more than the margin, so dropping splits by that bound changes no
    computed row."""

    @pytest.mark.parametrize("strict", [False, True])
    def test_every_cell_within_bound(self, strict):
        for network, paths, schedule, metric in [*corpus(), layered(factor=1.1, **L85)]:
            margin = known_path_margin(network.m)
            lattice = solve(network, schedule, metric, paths, prune=False, strict_resolution=strict)
            for (j, mask), value in lattice.latest.items():
                if value is None:
                    continue
                bound = min(base_case(j, k, schedule, metric, paths) for k in indices_of(mask))
                assert value <= bound + margin, (j, indices_of(mask))

    @pytest.mark.parametrize("strict", [False, True])
    def test_computed_rows_equal_unbounded_rows(self, strict):
        # the reference fills no row through fill_lattice, so it also checks
        # the rows the lattice fill shares between sets with equal candidates
        for network, paths, schedule, metric in chain.from_iterable(
                [*corpus(factor), layered(factor=factor, **L85)] for factor in (1.1, 2.0)):
            expected = unbounded_lattice(paths, schedule, metric, strict)
            lattice = solve(network, schedule, metric, paths, prune=False, strict_resolution=strict)
            lazy = solve(network, schedule, metric, paths, strict_resolution=strict)
            assert lattice.latest.keys() == expected.keys()
            for result in (lattice, lazy):
                for key in list(result.latest):
                    got = (result.latest[key], result.policy[key], result.capture_move[key])
                    assert got == expected[key], key


class TestLatticePass:
    """A solve without pruning fills the lattice bottom-up by lookups: it
    reads each node's red reports once per red part, and evaluates no set
    lazily."""

    @pytest.mark.parametrize("strict", [False, True])
    def test_red_reports_read_once_per_red_part(self, monkeypatch, strict):
        # captures and splits alike: a split keeps only its bar and worst part
        reads = Counter()

        def counted(mask, u, *args):
            reads[(u, mask)] += 1
            return red_reports(mask, u, *args)

        monkeypatch.setattr(solver, "red_reports", counted)
        for factor in (1.1, 2.0):
            network, paths, schedule, metric = layered(factor=factor, **L85)
            reads.clear()
            solve(network, schedule, metric, paths, prune=False, strict_resolution=strict)
            through = schedule.through
            parts = {(u, mask & through[u]) for mask in full_lattice(schedule.n)
                     if mask & (mask - 1) for u in range(1, network.m + 1) if mask & through[u]}
            assert len(parts) == 1623
            assert reads.keys() == parts and set(reads.values()) == {1}, factor

    @pytest.mark.parametrize("strict", [False, True])
    def test_no_set_evaluated_lazily(self, monkeypatch, strict):
        network, paths, schedule, metric = layered(factor=1.1, **L85)
        calls = Counter()
        for name in ("evaluate", "value"):
            def counted(self, *args, name=name, original=getattr(_Solver, name)):
                calls[name] += 1
                return original(self, *args)

            monkeypatch.setattr(_Solver, name, counted)
        lattice = solve(network, schedule, metric, paths, prune=False, strict_resolution=strict)
        assert lattice.root_latest == lattice.rows[lattice.root_mask][0][0]
        lattice.to_json()
        assert not calls
        # the lazy solve goes through both
        solve(network, schedule, metric, paths, strict_resolution=strict)
        assert calls["evaluate"] and calls["value"]

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("factor", [1.1, 2.0])
    def test_equal_candidates_share_one_scored_row(self, factor, strict):
        for network, paths, schedule, metric in [*corpus(factor), layered(factor=factor, **L85)]:
            lattice = solve(network, schedule, metric, paths, prune=False, strict_resolution=strict)
            groups = {}
            for mask in full_lattice(schedule.n):
                if mask & (mask - 1):
                    moves = tuple(unbounded_candidates(mask, lattice.latest, schedule, strict))
                    groups.setdefault(moves, []).append(mask)
            # one pass of m cells per distinct list, and one row object per list
            assert lattice.solver.cells_scored == network.m * len(groups)
            rows = lattice.rows
            assert len({id(rows[masks[0]]) for masks in groups.values()}) == len(groups)
            for masks in groups.values():
                assert all(rows[mask] is rows[masks[0]] for mask in masks), masks
            shared = sum(len(masks) > 1 for masks in groups.values())
            # the export copies every list: a record's edit reaches neither
            # the rows nor the other records, even of a set sharing its row
            before = {mask: tuple(map(list, row)) for mask, row in rows.items()}
            records = lattice.to_json()["sets"]
            expected = json.loads(json.dumps(records))
            pick = next((masks[0] for masks in groups.values() if len(masks) > 1),
                        lattice.root_mask)
            i = next(i for i, record in enumerate(records) if mask_from(record["set"]) == pick)
            records[i]["D"][0] += 1.0
            expected[i]["D"][0] += 1.0
            assert records == expected
            assert {mask: tuple(map(list, row)) for mask, row in rows.items()} == before
        # L85, the last instance, has sets with equal candidate lists
        assert shared


class TestOneSolvePath:
    """``solve`` computes what the root reads; ``to_json`` computes, once,
    what playback and the tree read before it lists their rows; and every
    set has the capture move at the entry, so no exported cell is None."""

    @pytest.mark.parametrize("strict", [False, True])
    def test_export_closes_tables_of_any_solve(self, strict):
        network, paths, schedule, metric = layered(factor=1.1, seed=13)
        unclosed = solve(network, schedule, metric, paths, strict_resolution=strict,
                         close_for_simulation=False)
        text = json.dumps(unclosed.to_json())
        assert text == json.dumps(solve(network, schedule, metric, paths,
                                        strict_resolution=strict).to_json())
        reloaded = SolveResult.from_json(json.loads(text))
        report = verify_guarantee(network, schedule, metric, reloaded, reloaded.tolerable_delay)
        assert report.all_captured and len(report.outcomes) == schedule.n

    @pytest.mark.parametrize("strict", [False, True])
    def test_table_and_one_shot_solves_compute_the_same_sets(self, strict):
        # a one-shot solve builds each set's moves, a table solve reads them from
        # a MoveTable; both score them in _candidates under the known-path bound
        for factor in (1.1, 2.0):
            for network, paths, schedule, metric in [
                    *corpus(factor),
                    *(layered(factor=factor, **instance) for instance in (L13, L17, L36, L85))]:
                one_shot = solve(network, schedule, metric, paths, strict_resolution=strict)
                shared = solve(network, schedule, metric, paths, strict_resolution=strict,
                               moves=MoveTable(schedule, strict))
                # the splits each set keeps after the known-path bound, and their worths
                assert shared.solver.pending == one_shot.solver.pending
                assert shared.on_demand_sets == one_shot.on_demand_sets
                assert shared.rows == one_shot.rows
                assert shared.to_json() == one_shot.to_json()
                assert shared.solver.pending == one_shot.solver.pending
                assert shared.on_demand_sets == one_shot.on_demand_sets
                assert shared.rows == one_shot.rows
        # the benchmark's speed study: L17's 20-point grid, one table for the grid
        network, paths, schedule, _ = layered(factor=2.0, **L17)
        floor, moves, sets, cells = speed_floor(network), MoveTable(schedule, strict), 0, 0
        for i in range(20):
            metric = euclidean_metric(network, floor * (1.02 + 0.2 * i))
            one_shot = solve(network, schedule, metric, paths, strict_resolution=strict)
            shared = solve(network, schedule, metric, paths, strict_resolution=strict, moves=moves)
            assert shared.solver.pending == one_shot.solver.pending, i
            assert shared.on_demand_sets == one_shot.on_demand_sets, i
            assert shared.solver.cells_scored == one_shot.solver.cells_scored, i
            sets += len(shared.on_demand_sets)
            cells += shared.solver.cells_scored
        assert (sets, cells) == ((341, 770) if strict else (354, 898))
        # the split records the table keeps, of 90 that set_moves lists
        assert sum(len(splits) for _, splits in moves.values()) == (42 if strict else 54)

    @pytest.mark.parametrize("strict", [False, True])
    def test_table_leaves_out_only_splits_no_speed_admits(self, strict):
        # every split of set_moves that the table leaves out fails evaluate's
        # known-path bound at each speed of L17's 20-point grid
        network, paths, schedule, _ = layered(factor=2.0, **L17)
        floor, moves = speed_floor(network), MoveTable(schedule, strict)
        metrics = [euclidean_metric(network, floor * (1.02 + 0.2 * i)) for i in range(20)]
        for metric in metrics:
            solve(network, schedule, metric, paths, strict_resolution=strict, moves=moves)
        left_out = [split for mask, (_, kept) in moves.items()
                    for split in set_moves(mask, schedule, strict)[1] if split not in kept]
        assert len(left_out) == (48 if strict else 36)
        for i, metric in enumerate(metrics):
            known = _Solver(schedule, metric, strict).known
            for u, green, time, _ in left_out:
                ceilings, below = known[u] or _known_bound(known, u)
                assert below[bisect_left(ceilings, time)] & green, (i, u, indices_of(green))

    def test_table_bound_is_each_paths_length_plus_the_margin(self):
        # the table reads each path's length from the schedule; at a zero row
        # its bound is the one built from the paths themselves
        for network, paths, schedule, _ in [
                *corpus(), *(layered(factor=1.1, **instance) for instance in (L13, L17, L36, L85))]:
            zero = [(0.0,) * (schedule.m + 1)] * (schedule.m + 1)
            bits = [1 << k for k in range(len(paths))]
            known = [(zero, [(path.length, path.exit) for path in paths],
                      known_path_margin(schedule.m), None, bits), None]
            expected = _known_bound(known, 1)
            for strict in (False, True):
                ceilings, below = MoveTable(schedule, strict).admits
                assert [c.hex() for c in ceilings] == [c.hex() for c in expected[0]]
                assert below == expected[1]

    @pytest.mark.parametrize("strict", [False, True])
    def test_table_solves_keep_each_paths_exit_when_arrivals_tie(self, strict):
        # 2**57 + 15.0 rounds back to 2**57, so the path visits nodes 2 and 3 at
        # one time; its exit is 3, and from the entry 2**57 - d[1][3] is 2**57 - 16
        network = validate_network({
            "nodes": [{"id": 1, "x": -1.0, "y": 0.0}, {"id": 2, "x": 0.0, "y": 0.0},
                      {"id": 3, "x": 15.0, "y": 0.0}],
            "edges": [{"from": 1, "to": 2, "time": 2.0 ** 57}, {"from": 2, "to": 3, "time": 15.0}]})
        paths = enumerate_paths(network)
        schedule = build_schedule(paths, network.m)
        assert schedule.times[2][1] == schedule.times[3][1] and paths[0].exit == 3
        grid = [1.01, 2.0]
        rows = sweep(network, schedule, paths, grid, strict).rows
        for speed, row in zip(grid, rows):
            metric = euclidean_metric(network, speed)
            one_shot = solve(network, schedule, metric, paths, strict_resolution=strict)
            shared = solve(network, schedule, metric, paths, strict_resolution=strict,
                           moves=MoveTable(schedule, strict))
            assert shared.rows == one_shot.rows
            assert row.latest.hex() == one_shot.root_latest.hex()
            # playback meets the path at its exit, or sees it leave there
            for t0, captured in ((one_shot.tolerable_delay, True), (2.0 ** 58, False)):
                outcome = simulate(network, schedule, metric, shared, 1, t0)
                assert (outcome.captured, outcome.node, outcome.time) == (captured, 3, 2.0 ** 57)
        assert rows[0].latest == 2.0 ** 57 - 16

    def test_only_export_walks_and_only_once(self, monkeypatch):
        network, paths, schedule, metric = layered(factor=1.1, seed=13)
        steps = []
        monkeypatch.setattr(solver, "move_children",
                            lambda mask, *args: steps.append(mask) or move_children(mask, *args))
        result = solve(network, schedule, metric, paths)
        solved = result.on_demand_sets
        assert verify_guarantee(network, schedule, metric, result,
                                result.tolerable_delay).all_captured
        build_tree(result, schedule, metric)
        assert steps == []
        data = result.to_json()
        walked = len(steps)
        assert walked and result.to_json() == data and len(steps) == walked
        # the root solve values only the root cell's splits; the walk computes
        # the rest of the policy after them
        assert result.on_demand_sets[:len(solved)] == solved
        reloaded = SolveResult.from_json(data)
        assert reloaded.on_demand_sets == () and reloaded.to_json() == data

    @pytest.mark.parametrize("strict", [False, True])
    def test_exported_rows_equal_the_lattice(self, strict):
        for network, paths, schedule, metric in [*corpus(), layered(factor=1.1, **L85)]:
            lattice = solve(network, schedule, metric, paths, prune=False, strict_resolution=strict)
            data = solve(network, schedule, metric, paths, strict_resolution=strict).to_json()
            assert data["meta"]["tolerable_delay"] == lattice.tolerable_delay
            for record in data["sets"]:
                columns = record["D"], record["mu"], record["capture"]
                assert [*map(len, columns)] == [network.m] * 3
                for j, cell in enumerate(zip(*columns), 1):
                    key = (j, mask_from(record["set"]))
                    expected = (lattice.latest[key], lattice.policy[key], lattice.capture_move[key])
                    assert cell == expected, key

    @pytest.mark.parametrize("strict", [False, True])
    def test_every_set_captures_at_the_entry(self, strict):
        for network, paths, schedule, metric in corpus():
            lattice = solve(network, schedule, metric, paths, prune=False, strict_resolution=strict)
            lazy = solve(network, schedule, metric, paths, strict_resolution=strict)
            for mask in full_lattice(schedule.n):
                moves = unbounded_candidates(mask, lattice.latest, schedule, strict)
                assert moves[0] == (1, 0.0, CAPTURE), indices_of(mask)
            for result in (lattice, lazy):
                for record in result.to_json()["sets"]:
                    assert None not in chain(*record_row(record))
                    assert result.rows[mask_from(record["set"])] == record_row(record)


class TestCellsFillOnRead:
    """A set's moves are listed when the set is first read, and a node's cell
    is scored, valuing the splits it needs, when that cell is first read:
    reads in any order give the cells an export of a fresh solve lists and
    compute the sets that export computed, and a solve that reads only its
    root scores few of them."""

    @pytest.mark.parametrize("strict", [False, True])
    def test_any_read_order_equals_the_export(self, strict):
        rng = random.Random(18)
        instances = [*corpus(), *(layered(factor=1.1, **instance)
                                  for instance in (L13, L17, L36, L85))]
        for network, paths, schedule, metric in instances:
            result = solve(network, schedule, metric, paths, strict_resolution=strict)
            data = result.to_json()
            exported = {mask_from(record["set"]): record for record in data["sets"]}
            keys = [(j, mask) for mask in exported for j in range(1, network.m + 1)]
            rng.shuffle(keys)
            lazy = solve(network, schedule, metric, paths, strict_resolution=strict)
            for j, mask in keys:
                record = exported[mask]
                assert lazy.latest[(j, mask)].hex() == record["D"][j - 1].hex(), (j, mask)
                assert lazy.policy[(j, mask)] == record["mu"][j - 1], (j, mask)
                assert lazy.capture_move[(j, mask)] is record["capture"][j - 1], (j, mask)
            assert lazy.rows.keys() == result.rows.keys()
            assert {mask: lazy.rows[mask] for mask in exported} == \
                {mask: record_row(record) for mask, record in exported.items()}

    def test_root_read_scores_few_cells(self):
        network, paths, schedule, metric = layered(factor=1.1, seed=17)
        result = solve(network, schedule, metric, paths, strict_resolution=True)
        assert result.root_latest > 0
        computed = sum(1 for mask in result.rows if mask & (mask - 1))  # non-singleton rows
        assert 0 < result.solver.cells_scored < network.m * computed
        result.to_json()  # scores every other cell of each set the walk reads, each once
        walked = {mask for mask in result.solver.walked if mask & (mask - 1)}
        unwalked = [row for mask, row in result.rows.items()
                    if mask & (mask - 1) and mask not in walked]
        read = sum(cell is not None for latest, _, _ in unwalked for cell in latest)
        assert 0 < read < network.m * len(unwalked)  # the export fills no unwalked set
        assert result.solver.cells_scored == network.m * len(walked) + read


class TestBuiltOnFirstRead:
    """A solve builds a singleton's row and a node's known-path bound only
    when they are first read; the export lists every singleton all the same."""

    def test_root_read_stores_no_singleton(self):
        network, paths, schedule, metric = layered(factor=1.1, seed=17)
        result = solve(network, schedule, metric, paths, strict_resolution=True)
        assert result.root_latest > 0
        assert all(mask & (mask - 1) for mask in result.rows)
        computed = result.on_demand_sets
        assert computed == tuple(result.rows)
        data = result.to_json()
        assert result.on_demand_sets[:len(computed)] == computed
        singletons = [record for record in data["sets"] if len(record["set"]) == 1]
        assert [record["set"] for record in singletons] == [[k] for k in range(1, schedule.n + 1)]
        # the rows a solve without pruning builds for them (n = 18 is too many
        # paths for its whole lattice here): ``base_row`` of each singleton
        lattice = _Solver(schedule, metric, True)
        for record in singletons:
            row = lattice.base_row(mask_from(record["set"]))
            assert (record["D"], record["mu"], record["capture"]) == row

    @pytest.mark.parametrize("strict", [False, True])
    def test_export_equals_the_lattice_rows(self, strict):
        network, paths, schedule, metric = layered(factor=1.1, **L85)
        lattice = solve(network, schedule, metric, paths, prune=False, strict_resolution=strict)
        result = solve(network, schedule, metric, paths, strict_resolution=strict)
        data = result.to_json()
        assert [record["set"] for record in data["sets"] if len(record["set"]) == 1] == \
            [[k] for k in range(1, schedule.n + 1)]
        for record in data["sets"]:
            row = (record["D"], record["mu"], record["capture"])
            assert row == lattice.rows[mask_from(record["set"])], record["set"]

    def test_singleton_rows_equal_base_case(self):
        instances = [*corpus(), *(layered(factor=1.1, **instance) for instance in
                                  (L13, L17, L36, L85))]
        for network, paths, schedule, metric in instances:
            result = solve(network, schedule, metric, paths)
            for p in paths:
                mask = 1 << (p.index - 1)
                for j in range(1, network.m + 1):
                    expected = base_case(j, p.index, schedule, metric, paths)
                    assert result.latest[(j, mask)].hex() == expected.hex(), (j, p.index)
                    assert result.policy[(j, mask)] == p.exit
                    assert result.capture_move[(j, mask)] is True

    def test_known_bounds_sorted_as_the_singleton_columns(self):
        # ascending known-path values plus the margin, ties by path bit: the
        # diamond's two paths tie at every node
        diamond = validate_network({
            "nodes": [{"id": j, "x": x, "y": y} for j, x, y in
                      [(1, 0.0, 0.0), (2, 1.0, 1.0), (3, 1.0, -1.0), (4, 2.0, 0.0)]],
            "edges": [{"from": a, "to": b, "time": 2.0} for a, b in [(1, 2), (1, 3), (2, 4), (3, 4)]],
        })
        diamond_paths = enumerate_paths(diamond)
        diamond_schedule = build_schedule(diamond_paths, diamond.m)
        instances = [layered(factor=2.0, **L400)]  # n=400: the sort does real work
        for factor in (1.1, 2.0):
            instances += [*corpus(factor),
                          *(layered(factor=factor, **rung) for rung in (L13, L17, L36, L85)),
                          (diamond, diamond_paths, diamond_schedule,
                           euclidean_metric(diamond, factor * speed_floor(diamond)))]
        for network, paths, schedule, metric in instances:
            worker = _Solver(schedule, metric, False)
            margin = known_path_margin(network.m)
            for u in range(1, network.m + 1):
                pairs = sorted((base_case(u, p.index, schedule, metric, paths), 1 << (p.index - 1))
                               for p in paths)
                assert worker.known[u] is None
                ceilings, below = _known_bound(worker.known, u)
                assert worker.known[u] == (ceilings, below)
                assert [c.hex() for c in ceilings] == [(v + margin).hex() for v, _ in pairs]
                bits = [bit for _, bit in pairs]
                assert below == [0, *(sum(bits[:i + 1]) for i in range(len(bits)))]
            assert not worker.rows


def policy_masks(result, schedule):
    """The sets playback of ``result``'s policy from the entry reads, walked
    through the closed-form image of ``observe``, every singleton reached
    included."""
    seen = {(1, result.root_mask)}
    stack = list(seen)
    while stack:
        p, mask = stack.pop()
        if mask & (mask - 1):
            u = result.policy[(p, mask)]
            for _, _, sub in move_children(mask, u, schedule, result.strict_resolution):
                if (u, sub) not in seen:
                    seen.add((u, sub))
                    stack.append((u, sub))
    return {mask for _, mask in seen}


def playback(network, schedule, metric, result, delay):
    """``verify_guarantee``'s report, or the type and message of what it raised."""
    try:
        return verify_guarantee(network, schedule, metric, result, delay)
    except PursuitError as exc:
        return type(exc), str(exc)


class TestPolicyExport:
    """A pruned export is the policy: the sets its walk from the entry reads
    plus every singleton. Reloaded, it plays back and draws its tree as the
    live tables do. Without pruning the export lists the whole lattice."""

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("factor", [1.1, 2.0])
    def test_export_is_the_policy(self, factor, strict):
        for network, paths, schedule, metric in [
                *corpus(factor),
                *(layered(factor=factor, **instance) for instance in (L13, L17, L36, L85))]:
            result = solve(network, schedule, metric, paths, strict_resolution=strict)
            data = result.to_json()
            singletons = {1 << k for k in range(schedule.n)}
            exported = [mask_from(record["set"]) for record in data["sets"]]
            assert exported == sorted(policy_masks(result, schedule) | singletons)
            reloaded = SolveResult.from_json(json.loads(json.dumps(data)))
            for delay in (result.tolerable_delay, result.tolerable_delay / 2):
                assert playback(network, schedule, metric, reloaded, delay) == \
                    playback(network, schedule, metric, result, delay), delay
            assert tree_dumps(build_tree(reloaded, schedule, metric)) == \
                tree_dumps(build_tree(result, schedule, metric))

    @pytest.mark.parametrize("strict", [False, True])
    def test_lattice_export_lists_every_set(self, strict):
        for factor in (1.1, 2.0):
            for network, paths, schedule, metric in [*corpus(factor),
                                                     layered(factor=factor, **L85)]:
                lattice = solve(network, schedule, metric, paths, prune=False,
                                strict_resolution=strict)
                sets = [mask_from(record["set"]) for record in lattice.to_json()["sets"]]
                assert sets == [*range(1, 1 << schedule.n)]


class TestJsonRoundTrip:
    """Solved tables survive ``to_json``, the JSON text and ``from_json``
    unchanged, and ``SolveResult.dumps`` prints the per-set layout exactly
    as ``json.dumps`` does."""

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("prune", [True, False])
    def test_reload_equals_the_solve(self, prune, strict):
        instances = [*corpus(), layered(factor=1.1, **L85)]
        if prune:  # L13's full lattice is 65,535 sets, too slow here
            instances.append(layered(factor=1.1, seed=13))
        for network, paths, schedule, metric in instances:
            result = solve(network, schedule, metric, paths, prune=prune, strict_resolution=strict)
            data = result.to_json()
            loaded = SolveResult.from_json(json.loads(json.dumps(data)))
            # a pruned export lists the sets its walk reads and every singleton
            listed = (sorted(result.solver.walked | {1 << k for k in range(schedule.n)})
                      if prune else sorted(result.rows))
            assert list(loaded.rows) == listed
            assert loaded.rows == {mask: result.rows[mask] for mask in listed}
            for view in ("latest", "policy", "capture_move"):
                live = getattr(result, view)
                assert getattr(loaded, view) == {key: live[key] for key in getattr(loaded, view)}
            assert loaded.metric_digest == result.metric_digest
            assert loaded.root_latest == result.root_latest

    @pytest.mark.parametrize("strict", [False, True])
    def test_writer_matches_json_dumps(self, demo, strict):
        """``dumps`` on corpus 1-50, the demo, L13, L17, L36 and L85 at
        ×1.1 and ×2, pruned and, for n <= 10, unpruned, and on each pruned
        result reloaded from that text."""
        for factor in (1.1, 2.0):
            demo_metric = euclidean_metric(demo[0], factor * speed_floor(demo[0]))
            for network, paths, schedule, metric in [
                    *corpus(factor), (*demo, demo_metric),
                    *(layered(factor=factor, **instance) for instance in (L13, L17, L36, L85))]:
                for prune in (True, False) if schedule.n <= 10 else (True,):
                    result = solve(network, schedule, metric, paths, prune=prune,
                                   strict_resolution=strict)
                    text = result.dumps()
                    assert text == json.dumps(result.to_json(), indent=2)
                    if prune:  # a reloaded lattice is written as a reloaded policy is
                        assert SolveResult.from_json(json.loads(text)).dumps() == text

    @pytest.mark.parametrize("prune", [True, False])
    def test_each_record_lists_its_own_members(self, prune):
        # to_json lists a set's members from an earlier record where it can
        for strict in (False, True):
            for network, paths, schedule, metric in [*corpus(), layered(factor=1.1, **L85)]:
                result = solve(network, schedule, metric, paths, prune=prune,
                               strict_resolution=strict)
                records = result.to_json()["sets"]
                masks = sorted(result.rows) if not prune else sorted(
                    result.solver.walked | {1 << k for k in range(schedule.n)})
                assert [record["set"] for record in records] == [
                    list(indices_of(mask)) for mask in masks]
                assert all(type(record["set"]) is list for record in records)
                assert len({id(record["set"]) for record in records}) == len(records)
                # the root without its lowest path is the record the root's list came from
                expected = json.loads(json.dumps(records))
                below = next((i for i, mask in enumerate(masks)
                              if mask == result.root_mask ^ 1), 0)
                records[below]["set"].append(99)
                expected[below]["set"].append(99)
                assert records == expected

    def test_export_does_not_share_the_rows(self, demo, demo_metric):
        network, paths, schedule = demo
        result = solve(network, schedule, demo_metric, paths)
        data = result.to_json()
        root = result.root_latest
        next(r for r in data["sets"] if r["set"] == [1, 2, 3, 4])["D"][0] = root + 1.0
        assert result.root_latest == root

    def test_cell_rule_decides_what_the_column_checks_cannot(self, demo, demo_metric):
        # an int too large for a float fails the column check; the per-record
        # rule judges each cell by the same test, so it names the cell
        network, paths, schedule = demo
        data = solve(network, schedule, demo_metric, paths).to_json()
        next(r for r in data["sets"] if r["set"] == [1, 2, 3, 4])["D"][2] = 10 ** 400
        with pytest.raises(ValueError, match=re.escape("set [1, 2, 3, 4], node 3: D 1000")):
            SolveResult.from_json(data)

    def with_latest(self, demo, demo_metric, cells, listed=(1, 2, 3, 4)):
        """The demo's pruned export with the ``D`` cells from node 1 on of
        the set ``listed`` replaced by ``cells``, and that set's record."""
        network, paths, schedule = demo
        data = solve(network, schedule, demo_metric, paths).to_json()
        record = next(r for r in data["sets"] if r["set"] == [*listed])
        record["D"][:len(cells)] = cells
        return data, record

    def test_finite_floats_whose_sum_overflows_accepted(self, demo, demo_metric):
        data, root = self.with_latest(demo, demo_metric, [1e308, 1e308, 1e308])
        assert not math.isfinite(sum(chain.from_iterable(r["D"] for r in data["sets"])))
        loaded = SolveResult.from_json(json.loads(json.dumps(data)))
        assert loaded.rows[mask_from([1, 2, 3, 4])][0] == root["D"]
        assert loaded.to_json()["sets"] == data["sets"]

    def test_huge_ints_that_cancel_in_a_sum_rejected(self, demo, demo_metric):
        # the first record's cells come first in the column, so an int sum cancels them
        data, first = self.with_latest(demo, demo_metric, [10 ** 400, -10 ** 400], listed=[1])
        assert data["sets"][0] is first
        assert math.isfinite(sum(chain.from_iterable(r["D"] for r in data["sets"])))
        with pytest.raises(ValueError, match=re.escape("set [1], node 1: D 1000")):
            SolveResult.from_json(data)

    @pytest.mark.parametrize("cells", [[3, -2, 0], [-0.0, 0.0]], ids=["ints", "minus-zero"])
    def test_int_and_signed_zero_latest_accepted(self, demo, demo_metric, cells):
        data, root = self.with_latest(demo, demo_metric, cells)
        loaded = SolveResult.from_json(data)
        latest = loaded.rows[mask_from([1, 2, 3, 4])][0]
        assert latest == root["D"]
        assert [*map(type, latest)] == [*map(type, root["D"])]
        assert math.copysign(1.0, latest[0]) == math.copysign(1.0, cells[0])


class TestScaleLadder:
    """L288, L400 and L474, solved under strict resolution."""

    def test_root_values_and_playback(self):
        network, paths, schedule, metric = layered(factor=1.1, **L288)
        assert solve(network, schedule, metric, paths, strict_resolution=True).root_latest == 0.0
        network, paths, schedule, metric = layered(factor=2.0, **L288)
        result = solve(network, schedule, metric, paths, strict_resolution=True)
        assert result.root_latest == pytest.approx(6.946649811879957, abs=1e-9)
        report = verify_guarantee(network, schedule, metric, result, result.tolerable_delay)
        assert report.all_captured
        assert len(report.outcomes) == 288

    def test_larger_rungs_at_one_point_one(self):
        network, paths, schedule, metric = layered(factor=1.1, **L400)
        assert solve(network, schedule, metric, paths, strict_resolution=True).root_latest == \
            pytest.approx(0.0, abs=1e-9)
        network, paths, schedule, metric = layered(factor=1.1, **L474)
        result = solve(network, schedule, metric, paths, strict_resolution=True)
        assert result.root_latest == pytest.approx(6.660303587811998, abs=1e-9)
        report = verify_guarantee(network, schedule, metric, result, result.tolerable_delay)
        assert report.all_captured
        assert len(report.outcomes) == 474

    def test_default_closure_stays_small(self):
        # the walk once added every visit-time class and remainder here,
        # sets default playback never reads, and ran out of memory; it now
        # reads only the policy's sets, each cell valuing only the splits
        # that can reach its best
        network, paths, schedule, metric = layered(factor=2.0, **L288)
        result = solve(network, schedule, metric, paths, strict_resolution=False)
        result.to_json()  # the walk runs when the tables are exported
        assert len(result.on_demand_sets) == 10933


def count_passes(monkeypatch):
    """Patch ``solver._candidates`` to record how many cell passes, each
    waiting on the cells its splits read, are live at once; returns the
    record, whose ``"max"`` holds the most seen."""
    record = {"now": 0, "max": 0}
    original = solver._candidates

    def counted(*args):
        record["now"] += 1
        record["max"] = max(record["max"], record["now"])
        try:
            yield from original(*args)
        finally:
            record["now"] -= 1

    monkeypatch.setattr(solver, "_candidates", counted)
    return record


def comb_instance(k, factor):
    """(network, paths, schedule, metric) for comb ``k`` at ``factor``
    times its speed floor."""
    network = validate_network(comb(k))
    paths = enumerate_paths(network)
    schedule = build_schedule(paths, network.m)
    return network, paths, schedule, euclidean_metric(network, factor * speed_floor(network))


class TestRecursionDepth:
    @pytest.mark.parametrize("instance,factor,strict", [
        (L36, 1.1, False), (L36, 1.1, True), (L36, 2.0, True),
        (L288, 1.1, False), (L288, 2.0, True),
    ], ids=["L36x1.1-default", "L36x1.1-strict", "L36x2-strict", "L288x1.1-default",
            "L288x2-strict"])
    def test_at_most_m_plus_one_levels(self, monkeypatch, instance, factor, strict):
        network, paths, schedule, metric = layered(factor=factor, **instance)
        record = count_passes(monkeypatch)
        solve(network, schedule, metric, paths, strict_resolution=strict)
        assert 1 < record["max"] <= network.m + 1

    @pytest.mark.parametrize("strict", [False, True], ids=["default", "strict"])
    @pytest.mark.parametrize("instance", ["comb60", "L36"])
    def test_solves_with_few_spare_frames(self, instance, strict):
        # the cell passes nest about 60 deep on comb 60 and up to 13 on L36,
        # but run on the solver's own stack, so a few frames suffice
        network, paths, schedule, metric = (comb_instance(60, 1.1) if instance == "comb60"
                                            else layered(factor=1.1, **L36))

        def export():
            return solve(network, schedule, metric, paths, strict_resolution=strict).dumps()

        assert with_few_frames(export, 16) == export()
        # a cell the root solve left unread computes its set, and the sets below, on read
        lazy = solve(network, schedule, metric, paths, strict_resolution=strict)
        unread = (1, lazy.root_mask & ~1)
        assert unread not in lazy.latest
        fresh = solve(network, schedule, metric, paths, strict_resolution=strict)
        assert with_few_frames(lambda: lazy.latest[unread], 16) == fresh.latest[unread]


def observed_image(mask, u, schedule, strict):
    """Brute force: every set ``observe`` hands on when any path of ``mask``
    is the evader and the pursuer reaches ``u`` at one of the set's visit
    times there, between two of them, before the first or after the last."""
    times = sorted({schedule.times[u][k] for k in indices_of(mask)} - {math.inf})
    arrivals = [times[0] - 1.0, *times, *((a + b) / 2 for a, b in zip(times, times[1:])),
                times[-1] + 1.0]
    image = set()
    for k in indices_of(mask):
        for arrival in arrivals:
            try:
                row = observe(mask, u, arrival, schedule.times[u][k], schedule, strict)
            except InconsistentObservation:
                continue
            if row is not None:
                image.add(row.info)
    return image


class TestWalkImage:
    """The closure walk hands on exactly the sets ``observe`` can return,
    and those hold every set a decision tree draws."""

    @pytest.mark.parametrize("strict", [False, True])
    def test_successors_equal_observed_image(self, strict):
        cases = [(*instance, full_lattice(instance[2].n)) for instance in corpus()]
        for instance in (L85, L36, L13, L17):
            network, paths, schedule, metric = layered(factor=1.1, **instance)
            solved = solve(network, schedule, metric, paths, strict_resolution=strict)
            cases.append((network, paths, schedule, metric, {mask for _, mask in solved.latest}))
        for network, paths, schedule, metric, masks in cases:
            for mask in masks:
                for u in range(1, network.m + 1):
                    if mask & schedule.through[u]:
                        expected = observed_image(mask, u, schedule, strict)
                        children = move_children(mask, u, schedule, strict)
                        assert {sub for _, _, sub in children} == expected, (indices_of(mask), u)

    @pytest.mark.parametrize("strict", [False, True])
    def test_tree_children_in_observed_image(self, strict):
        for network, paths, schedule, metric in [*corpus(), layered(factor=1.1, **L85),
                                                 layered(factor=1.1, **L36)]:
            result = solve(network, schedule, metric, paths, strict_resolution=strict)
            if result.root_policy is None:
                continue
            for node in build_tree(result, schedule, metric).walk():
                for child in node.children.values():
                    image = observed_image(node.mask, child.ugs, schedule, strict)
                    assert child.mask in image, (indices_of(node.mask), child.ugs)
