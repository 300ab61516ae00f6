import json
import math
import tracemalloc

import pytest

from ugs_pursuit import demo_bundle, demo_raw, euclidean_metric
from ugs_pursuit.cli import EXIT_INVALID, EXIT_NO_GUARANTEE, EXIT_OK, main
from ugs_pursuit.fixtures import random_layered_network, speed_floor

from conftest import comb, with_few_frames


@pytest.fixture()
def demo_file(tmp_path):
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(demo_raw()))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPaths:
    def test_text(self, capsys):
        code, out, _ = run(capsys, ["paths", "--network", "demo"])
        assert code == EXIT_OK
        assert "4 evader path(s)" in out
        assert "1 -> 3 -> 5" in out

    def test_json(self, capsys, demo_file):
        code, out, _ = run(capsys, ["paths", "--network", demo_file, "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["paths"]) == 4
        assert payload["goals"] == [5, 6, 7]

    def test_single_edge_network(self, capsys, tmp_path):
        raw = {
            "nodes": [{"id": 1}, {"id": 2}],
            "edges": [{"from": 1, "to": 2, "time": 5.0}],
            "entry": 1,
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(raw))
        code, out, _ = run(capsys, ["paths", "--network", str(path)])
        assert code == EXIT_OK
        assert "1 evader path(s)" in out
        assert "length 5.0000" in out

    def test_path_longer_than_the_recursion_limit(self, capsys, tmp_path):
        # one path through 1,100 nodes, more than Python's default recursion limit
        m = 1100
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps({
            "nodes": [{"id": j, "x": float(j), "y": 0.0} for j in range(1, m + 1)],
            "edges": [{"from": j, "to": j + 1, "time": 2.0} for j in range(1, m)],
            "entry": 1,
        }))
        code, out, _ = run(capsys, ["paths", "--network", str(chain), "--format", "json"])
        assert code == EXIT_OK
        assert [path["nodes"] for path in json.loads(out)["paths"]] == [[*range(1, m + 1)]]
        for argv in (["solve"], ["tree"], ["verify", "--t0", "1465"]):
            code, out, _ = run(capsys, [*argv, "--network", str(chain), "--speed", "1.5"])
            assert code == EXIT_OK, argv
        assert out.splitlines()[-1] == "all captured"


class TestRealizable:
    def test_text_set_count(self, capsys):
        code, out, _ = run(capsys, ["realizable", "--network", "demo"])
        assert code == EXIT_OK
        assert "8 realizable set(s) out of 15" in out

    def test_json_matches_library(self, capsys):
        code, out, _ = run(capsys, ["realizable", "--network", "demo", "--format", "json"])
        payload = json.loads(out)
        assert len(payload["sets"]) == 8
        assert len(payload["log"]) == 8


class TestSolve:
    def test_zero_metric_table(self, capsys, tmp_path):
        metric_file = tmp_path / "zero.json"
        metric_file.write_text(json.dumps({"kind": "table", "d": [[0.0] * 7 for _ in range(7)]}))
        code, out, _ = run(capsys, ["solve", "--network", "demo", "--metric", str(metric_file)])
        assert code == EXIT_OK
        assert "tolerable delay at entry: 11.830000" in out

    def test_nan_metric_entry_exits_2(self, capsys, tmp_path):
        network = demo_bundle()[0]
        rows = [[*row[1:]] for row in euclidean_metric(network, 1.62).d[1:]]
        rows[0][5] = math.nan
        metric_file = tmp_path / "nan.json"
        metric_file.write_text(json.dumps({"kind": "table", "d": rows}))
        code, out, err = run(capsys, ["solve", "--network", "demo", "--metric", str(metric_file)])
        assert code == EXIT_INVALID and out == ""
        assert err.startswith("error: ") and "non-finite" in err

    def test_requires_metric(self, capsys):
        code, _, err = run(capsys, ["solve", "--network", "demo"])
        assert code == EXIT_INVALID
        assert "--speed --metric is required" in err

    def test_require_positive_exit_code(self, capsys):
        code, _, _ = run(capsys, ["solve", "--network", "demo", "--speed", "1.2",
                                  "--require-positive"])
        assert code == EXIT_NO_GUARANTEE

    def test_json_meta(self, capsys):
        code, out, _ = run(capsys, ["solve", "--network", "demo", "--speed", "1.62",
                                    "--format", "json"])
        payload = json.loads(out)
        assert payload["meta"]["tolerable_delay"] == pytest.approx(5.610617, abs=1e-5)
        assert payload["meta"]["strict_resolution"] is False

    @pytest.mark.parametrize("flag", [[], ["--strict-resolution"]], ids=["membership", "strict"])
    def test_json_lists_each_singleton_set_once(self, capsys, flag):
        # from_json rejects a meta n above the number of records before it builds any
        # mask; that relies on every table listing each set [k], k = 1..n
        speeds = {seed: repr(1.1 * speed_floor(random_layered_network(seed))) for seed in (13, 17)}
        for network in (["demo", "--speed", "1.62"],
                        *(["random", "--seed", str(seed), "--speed", speed]
                          for seed, speed in speeds.items())):
            code, out, _ = run(capsys, ["solve", "--network", *network, *flag, "--format", "json"])
            assert code == EXIT_OK
            data = json.loads(out)
            singletons = sorted(record["set"] for record in data["sets"] if len(record["set"]) == 1)
            assert singletons == [[k] for k in range(1, data["meta"]["n"] + 1)], network


L13_SPEED = repr(1.1 * speed_floor(random_layered_network(13)))
L36_SPEED = repr(2.0 * speed_floor(random_layered_network(5)))  # seed 5: 36 paths


class TestSimulateAndVerify:
    def test_policy_round_trip(self, capsys, tmp_path):
        # verify --policy on solve's JSON tables prints what verify prints from a fresh
        # solve, at the solved delay and at half of it, and captures every path; except
        # under membership on L36 x2, where playback of its own tables meets a green
        # reading at node 10 that no path explains (the convention overclaims there)
        policy_file = tmp_path / "policy.json"
        for network, speed in ((["demo"], "1.62"), (["random", "--seed", "13"], L13_SPEED),
                               (["random", "--seed", "5"], L36_SPEED)):
            for flag in ([], ["--strict-resolution"]):
                shared = ["--network", *network, "--speed", speed, *flag]
                code, out, _ = run(capsys, ["solve", *shared, "--format", "json"])
                assert code == EXIT_OK
                policy_file.write_text(out)
                t0 = json.loads(out)["meta"]["tolerable_delay"]
                overclaims = network[-1] == "5" and not flag
                for delay in (t0, t0 / 2, *([5.61] if network == ["demo"] else [])):
                    for fmt in ("text", "json"):
                        argv = ["verify", *shared, "--t0", repr(delay), "--format", fmt]
                        live = run(capsys, argv)
                        code, out, err = run(capsys, [*argv, "--policy", str(policy_file)])
                        assert (code, out, err) == live, (network, flag, delay, fmt)
                        if overclaims:
                            assert code == EXIT_INVALID and out == ""
                            assert err.startswith("error: green at node 10,")
                        elif fmt == "text":
                            assert code == EXIT_OK and out.splitlines()[-1] == "all captured"
                        else:
                            assert code == EXIT_OK and json.loads(out)["all_captured"] is True

    def test_simulate_transcript(self, capsys):
        code, out, _ = run(capsys, ["simulate", "--network", "demo", "--speed", "1.62",
                                    "--path", "2", "--t0", "5.61"])
        assert code == EXIT_OK
        assert "captured at node 6" in out

    def test_simulate_json(self, capsys):
        code, out, _ = run(capsys, ["simulate", "--network", "demo", "--speed", "1.62",
                                    "--path", "2", "--t0", "5.61", "--format", "json"])
        lines = out.strip().splitlines()
        verdict = json.loads(lines[-1])
        assert verdict["captured"] is True
        assert verdict["node"] == 6

    def test_simulate_json_capture_at_entry(self, capsys):
        # no reading before the capture: the verdict is the only line
        code, out, _ = run(capsys, ["simulate", "--network", "demo", "--speed", "1.62",
                                    "--path", "2", "--t0", "1e-10", "--format", "json"])
        assert code == EXIT_OK
        assert out.splitlines() == [json.dumps({"captured": True, "time": 0.0, "node": 1})]


class TestAnalysisCommands:
    def test_sweep_csv(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--network", "demo", "--grid", "0.8,1.62"])
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "V,D,delay,mu"
        assert lines[1] == "0.8,,,"

    def test_critical_speed(self, capsys):
        code, out, _ = run(capsys, ["critical-speed", "--network", "demo",
                                    "--lo", "0.9", "--hi", "2.0"])
        assert code == EXIT_OK
        assert 1.0 < float(out.strip()) < 1.61

    @pytest.mark.parametrize("flag", [[], ["--strict-resolution"]], ids=["membership", "strict"])
    def test_critical_speed_prints_plain_bisection_values(self, capsys, flag):
        # critical-speed predicts most bisection midpoints and confirms the final bracket
        # with solves; these are the values plain bisection prints. The demo's root jumps
        # from 0 to 1.45 between speeds 1.26 and 1.27, so its confirmation fails and plain
        # bisection reruns
        floor = speed_floor(random_layered_network(17))
        for network, lo, hi, pinned in ((["demo"], "1.0", "2.0", "1.260071"),
                                        (["random", "--seed", "17"], repr(floor),
                                         repr(4.82 * floor), "0.822101")):
            argv = ["critical-speed", "--network", *network, "--lo", lo, "--hi", hi, *flag]
            assert run(capsys, argv) == (EXIT_OK, pinned + "\n", "")


class TestTree:
    def test_dot_default(self, capsys):
        code, out, _ = run(capsys, ["tree", "--network", "demo", "--speed", "1.62"])
        assert code == EXIT_OK
        assert out.startswith("digraph")

    def test_json(self, capsys):
        code, out, _ = run(capsys, ["tree", "--network", "demo", "--speed", "1.62",
                                    "--format", "json"])
        payload = json.loads(out)
        assert payload["ugs"] == 1
        assert payload["set"] == [1, 2, 3, 4]

    def test_deep_tree_with_few_spare_frames(self, capsys, tmp_path):
        # comb 60's tree is 59 levels deep, but it is built and written on
        # explicit stacks; the normal-limit run first builds the cached
        # parser and warms argparse's patterns, which need more than 16 frames
        path = tmp_path / "comb.json"
        path.write_text(json.dumps(comb(60)))
        for fmt in ("text", "json"):
            argv = ["tree", "--network", str(path), "--speed", "2.0", "--format", fmt]
            normal = run(capsys, argv)
            assert normal[0] == EXIT_OK and normal[1].count("\n") > 59
            code = with_few_frames(lambda: main(argv), 16)
            assert (code, *capsys.readouterr()) == normal


class TestJsonFormat:
    @pytest.mark.parametrize("network,speed", [(["demo"], "1.62"),
                                               (["random", "--seed", "13"], L13_SPEED),
                                               (["random", "--seed", "5"], L36_SPEED)],
                             ids=["demo", "random-13", "random-5"])
    def test_prints_json_dumps_indent_2(self, capsys, network, speed):
        # paths and realizable read neither the metric nor the convention; the demo's
        # family runs the same writer as L13's, which is 9.6 MB. L36 x2 is the largest
        # export of the parity set, with strict reds of several visit-time classes; its
        # membership playback fails (test_policy_round_trip), so only strict verifies it
        commands = [["paths", "--network", *network]]
        if network[0] == "demo":
            commands.append(["realizable", "--network", *network])
        for convention in ([], ["--strict-resolution"]):
            shared = ["--network", *network, "--speed", speed, *convention]
            _, solved, _ = run(capsys, ["solve", *shared, "--format", "json"])
            t0 = repr(json.loads(solved)["meta"]["tolerable_delay"])
            commands += [["solve", *shared], ["tree", *shared]]
            if network[-1] != "5" or convention:
                commands.append(["verify", *shared, "--t0", t0])
        for argv in commands:
            code, out, _ = run(capsys, [*argv, "--format", "json"])
            assert code == EXIT_OK
            assert out == json.dumps(json.loads(out), indent=2) + "\n"


class TestErrors:
    def test_bad_json_reports_location(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ nope")
        code, _, err = run(capsys, ["paths", "--network", str(bad)])
        assert code == EXIT_INVALID
        assert "bad.json:1:" in err

    def test_missing_network_file_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        code, _, err = run(capsys, ["paths", "--network", str(missing)])
        assert code == EXIT_INVALID
        assert "missing.json: No such file or directory" in err

    def test_unknown_metric_kind_exits_2(self, capsys, tmp_path):
        metric = tmp_path / "metric.json"
        metric.write_text(json.dumps({"kind": "manhattan", "speed": 2.0}))
        code, _, err = run(capsys, ["solve", "--network", "demo", "--metric", str(metric)])
        assert code == EXIT_INVALID
        assert "unknown metric kind 'manhattan'" in err

    def test_invalid_network_exit_code(self, capsys, tmp_path):
        cyclic = tmp_path / "cyclic.json"
        cyclic.write_text(json.dumps({
            "nodes": [{"id": 1}, {"id": 2}],
            "edges": [{"from": 1, "to": 2, "time": 1.0}, {"from": 2, "to": 1, "time": 1.0}],
            "entry": 1,
        }))
        code, _, err = run(capsys, ["paths", "--network", str(cyclic)])
        assert code == EXIT_INVALID
        assert "cyclic" in err.lower()

    @pytest.mark.parametrize("argv,named", [
        (["paths", "--network", "net.json"], "'time'"),
        (["paths", "--network", "no_id.json"], "'id'"),
        (["paths", "--network", "slow.json"], "'time'"),
        (["paths", "--network", "list.json"], "not a list"),
        (["solve", "--network", "demo", "--metric", "no_speed.json"], "no_speed.json"),
        (["verify", "--network", "demo", "--speed", "1.62", "--t0", "1", "--policy", "net.json"],
         "net.json"),
        (["sweep", "--network", "demo", "--grid", "1.2,abc"], "1.2,abc"),
        (["simulate", "--network", "demo", "--speed", "1.62", "--path", "9", "--t0", "1"], "1..4"),
        (["simulate", "--network", "demo", "--speed", "1.62", "--path", "0", "--t0", "1"], "1..4"),
        (["paths", "--network", "entry.json"], "'entry'"),
        (["paths", "--network", "goals.json"], "'goals'"),
        (["paths", "--network", "edges.json"], "'edges'"),
        (["paths", "--network", "fractional_to.json"], "'to'"),
        (["paths", "--network", "nodes.json"], "'nodes'"),
        (["verify", "--network", "demo", "--speed", "1.62", "--t0", "1", "--policy",
          "node_zero.json"], "set [1, 2, 3, 4]: mu is a list of 8 values, not a list of 7"),
        (["verify", "--network", "demo", "--speed", "1.62", "--t0", "1", "--policy",
          "partial_set.json"], "D is a list of 6 values, not a list of 7"),
        (["verify", "--network", "demo", "--speed", "1.62", "--t0", "1", "--policy",
          "path_nine.json"], "paths 1..4"),
        (["verify", "--network", "demo", "--speed", "1.62", "--t0", "nan"], "got nan"),
        # JSON output would carry the non-JSON token Infinity
        (["simulate", "--network", "demo", "--speed", "1.62", "--path", "1", "--t0", "inf",
          "--format", "json"], "positive and finite, got inf"),
        (["verify", "--network", "demo", "--speed", "1.62", "--t0", "1e400", "--format", "json"],
         "positive and finite, got inf"),
        (["critical-speed", "--network", "demo", "--lo", "1", "--hi", "2", "--tol", "0"],
         "got 0.0"),
        (["critical-speed", "--network", "demo", "--lo", "1", "--hi", "2", "--tol", "-1"],
         "got -1.0"),
        (["critical-speed", "--network", "demo", "--lo", "1", "--hi", "2", "--tol", "nan"],
         "got nan"),
        (["critical-speed", "--network", "demo", "--lo", "nan", "--hi", "2"], "must be finite"),
        (["critical-speed", "--network", "demo", "--lo=-inf", "--hi", "2"], "must be finite"),
        (["critical-speed", "--network", "demo", "--lo", "1", "--hi", "inf"], "must be finite"),
        (["verify", "--network", "demo", "--speed", "1.62", "--t0", "1", "--policy",
          "mu_above_range.json"], "mu 99"),
        (["verify", "--network", "demo", "--speed", "1.62", "--t0", "1", "--policy",
          "mu_string.json"], "mu 'x'"),
        (["simulate", "--network", "demo", "--speed", "1.62", "--path", "1", "--t0", "1",
          "--policy", "latest_string.json"], "D 'x'"),
        (["solve", "--network", "demo", "--speed", "nan"], "must be positive, got nan"),
        (["solve", "--network", "inf_time.json", "--speed", "2"], "infinite travel time"),
        (["verify", "--network", "demo", "--speed", "1.62", "--t0", "1", "--policy",
          "root_twice.json"], "listed twice"),
        (["simulate", "--network", "demo", "--speed", "1.62", "--path", "1", "--t0", "1",
          "--policy", "bool_member.json"], "set is [True, 2, 3, 4], not a list of paths 1..4"),
        (["verify", "--network", "demo", "--speed", "1.62", "--t0", "1", "--policy",
          "string_strict.json"], "meta strict_resolution is 'false', not of type bool"),
        (["verify", "--network", "random", "--seed", "3", "--speed", "3", "--t0", "1",
          "--policy", "demo_policy.json"],
         "tables are for n=4 paths and m=7 nodes, the network has n=6 paths and m=8 nodes"),
        (["verify", "--network", "demo", "--speed", "1.62", "--t0", "1", "--policy",
          "fractional_node.json"], "set [1, 2, 3, 4]: capture is a float, not a list of 7"),
        (["verify", "--network", "demo", "--speed", "1.62", "--t0", "1", "--policy",
          "string_capture.json"], "capture 'false'"),
        (["verify", "--network", "demo", "--speed", "1.62", "--t0", "1", "--policy",
          "member_zero.json"], "set is [0, 2, 3, 4], not a list of paths 1..4"),
        (["verify", "--network", "demo", "--speed", "1.62", "--t0", "1", "--policy",
          "null_mu.json"], "mu None"),
        (["verify", "--network", "demo", "--speed", "1.62", "--t0", "1", "--policy",
          "null_latest.json"], "D None"),
        (["verify", "--network", "demo", "--speed", "1.62", "--t0", "1", "--policy",
          "nan_latest.json"], "D nan"),
        (["simulate", "--network", "demo", "--speed", "1.62", "--path", "1", "--t0", "1",
          "--policy", "old_layout.json"], "per-(node, set) 'entries' layout of earlier versions"),
        (["verify", "--network", "demo", "--speed", "3", "--t0", "5.61", "--policy",
          "demo_policy.json"], "demo_policy.json: the tables were solved for another metric"),
        (["verify", "--network", "demo", "--speed", "1.62", "--strict-resolution", "--t0", "5.61",
          "--policy", "demo_policy.json"], "solved without --strict-resolution"),
        (["verify", "--network", "demo", "--speed", "3", "--t0", "0.5", "--policy", "five.json"],
         "five.json: not solved tables from 'solve --format json' (ValueError: the tables: a int, "
         "not an object)"),
        (["paths", "--network", "bool_id.json"], "{'id': True}: 'id' is missing or of the wrong type"),
        (["paths", "--network", "bool_from.json"], "'from' is missing or of the wrong type"),
        (["paths", "--network", "string_time.json"], "'time' is missing or of the wrong type"),
        (["paths", "--network", "bool_x.json"], "'x' is missing or of the wrong type"),
        (["solve", "--network", "demo", "--metric", "bool_speed.json"],
         "bool_speed.json: 'speed' is True, not a number"),
        (["solve", "--network", "demo", "--metric", "string_speed.json"],
         "string_speed.json: 'speed' is '2', not a number"),
        (["solve", "--network", "demo", "--metric", "bool_table.json"],
         "metric entry (1, 1) is True, not a number"),
        (["solve", "--network", "demo", "--metric", "string_table.json"],
         "metric entry (1, 2) is '2.98', not a number"),
        (["solve", "--network", "demo", "--metric", "list_metric.json"],
         "list_metric.json: a metric description is a JSON object, not a list"),
        (["solve", "--network", "demo", "--metric", "string_row.json"],
         "metric row 1 is a str, not a list of 7 numbers"),
        (["solve", "--network", "demo", "--metric", "null_table.json"],
         "metric table is a NoneType, not a list of 7 rows"),
    ], ids=["edge-without-time", "node-without-id", "non-numeric-time", "top-level-list",
            "metric-without-speed", "policy-not-from-solve", "non-numeric-grid",
            "path-above-range", "path-zero", "non-integer-entry", "non-integer-goal",
            "edges-not-a-list", "fractional-endpoint", "nodes-not-a-list",
            "policy-node-zero", "policy-partial-set", "policy-path-above-range", "nan-delay",
            "inf-delay", "overflowing-delay",
            "zero-tolerance", "negative-tolerance", "nan-tolerance", "nan-lower-speed",
            "minus-inf-lower-speed", "inf-upper-speed", "policy-mu-above-range",
            "policy-mu-not-a-node", "policy-latest-not-a-number", "nan-speed",
            "infinite-edge-time", "policy-entry-listed-twice", "policy-bool-member",
            "policy-meta-string-boolean", "policy-for-another-network",
            "policy-fractional-node", "policy-string-capture", "policy-member-zero",
            "policy-null-mu", "policy-null-latest", "policy-nan-latest", "policy-old-layout",
            "policy-other-metric", "policy-other-convention", "policy-not-an-object",
            "bool-node-id", "bool-endpoint", "numeric-string-time", "bool-coordinate",
            "bool-metric-speed", "numeric-string-metric-speed", "bool-metric-entry",
            "numeric-string-metric-entry", "metric-file-a-list", "string-metric-row",
            "null-metric-table"])
    def test_malformed_input_exit_code(self, capsys, tmp_path, monkeypatch, argv, named):
        _, solved, _ = run(capsys, ["solve", "--network", "demo", "--speed", "1.62",
                                    "--format", "json"])
        (node_zero, partial_set, path_nine, mu_high, mu_text, latest_text, twice, bool_member,
         string_strict, fractional_node, string_capture, member_zero, null_mu,
         null_latest, nan_latest) = (json.loads(solved) for _ in range(15))
        root = next(i for i, r in enumerate(mu_high["sets"]) if r["set"] == [1, 2, 3, 4])
        node_zero["sets"][root]["mu"].append(1)
        del partial_set["sets"][-1]["D"][-1]
        path_nine["sets"][-1]["set"] = [9]
        mu_high["sets"][root]["mu"][0] = 99
        mu_text["sets"][root]["mu"][0] = "x"
        latest_text["sets"][root]["D"][0] = "x"
        twice["sets"].append({**twice["sets"][root], "set": [4, 3, 2, 1], "D": [999.0] * 7})
        bool_member["sets"][root]["set"] = [True, 2, 3, 4]
        string_strict["meta"]["strict_resolution"] = "false"
        fractional_node["sets"][root]["capture"] = 1.9
        string_capture["sets"][root]["capture"][0] = "false"
        member_zero["sets"][root]["set"] = [0, 2, 3, 4]
        null_mu["sets"][root]["mu"][0] = None
        null_latest["sets"][root]["D"][0] = None
        nan_latest["sets"][root]["D"][0] = math.nan
        # the same tables as one entry per (node, set), the layout of earlier versions
        old_layout = json.loads(solved)
        records = old_layout.pop("sets")
        old_layout["entries"] = [
            {"node": j, "set": r["set"], "D": r["D"][j - 1], "mu": r["mu"][j - 1],
             "capture": r["capture"][j - 1]}
            for j in range(1, 8) for r in records]
        edge = {"from": 1, "to": 2, "time": 1.0}
        two = [{"id": 1}, {"id": 2}]
        files = {
            "net.json": {"nodes": two, "edges": [{"from": 1, "to": 2}]},
            "no_id.json": {"nodes": [{"id": 1}, {"x": 0.0}], "edges": [edge]},
            "slow.json": {"nodes": two, "edges": [{**edge, "time": "slow"}]},
            "list.json": [edge],
            "no_speed.json": {"kind": "euclidean"},
            "entry.json": {"nodes": two, "edges": [edge], "entry": "abc"},
            "goals.json": {"nodes": two, "edges": [edge], "goals": ["x"]},
            "edges.json": {"nodes": two, "edges": 5},
            "fractional_to.json": {"nodes": two, "edges": [{**edge, "to": 2.7}]},
            "nodes.json": {"nodes": 5, "edges": [edge]},
            "node_zero.json": node_zero,
            "partial_set.json": partial_set,
            "path_nine.json": path_nine,
            "mu_above_range.json": mu_high,
            "mu_string.json": mu_text,
            "latest_string.json": latest_text,
            "root_twice.json": twice,
            "bool_member.json": bool_member,
            "string_strict.json": string_strict,
            "fractional_node.json": fractional_node,
            "string_capture.json": string_capture,
            "member_zero.json": member_zero,
            "null_mu.json": null_mu,
            "null_latest.json": null_latest,
            "nan_latest.json": nan_latest,
            "old_layout.json": old_layout,
            "demo_policy.json": json.loads(solved),
            "five.json": 5,
            "bool_id.json": {"nodes": [{"id": True}, {"id": 2}], "edges": [edge]},
            "bool_from.json": {"nodes": two, "edges": [{**edge, "from": True}]},
            "string_time.json": {"nodes": two, "edges": [{**edge, "time": "7"}]},
            "bool_x.json": {"nodes": [{"id": 1, "x": True, "y": 0.0}, {"id": 2, "x": 1.0, "y": 0.0}],
                            "edges": [edge]},
            "bool_speed.json": {"kind": "euclidean", "speed": True},
            "string_speed.json": {"kind": "euclidean", "speed": "2"},
            "bool_table.json": {"kind": "table", "d": [[True] * 7 for _ in range(7)]},
            "string_table.json": {"kind": "table", "d": [[0.0] + ["2.98"] * 6 for _ in range(7)]},
            "list_metric.json": [[0.0] * 7 for _ in range(7)],
            "string_row.json": {"kind": "table", "d": ["0" * 7] * 7},
            "null_table.json": {"kind": "table", "d": None},
        }
        for name, data in files.items():
            (tmp_path / name).write_text(json.dumps(data))
        inf_time = demo_raw()
        inf_time["edges"][0]["time"] = math.inf
        (tmp_path / "inf_time.json").write_text(json.dumps(inf_time).replace("Infinity", "1e999"))
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, argv)
        assert code == EXIT_INVALID
        assert err.startswith("error: ") and named in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv,named", [
        (["sweep", "--grid", "1.62", "--format", "json"], "unrecognized arguments: --format"),
        (["critical-speed", "--lo", "1", "--hi", "2", "--speed", "2"],
         "unrecognized arguments: --speed"),
        (["paths", "--speed", "9"], "unrecognized arguments: --speed"),
        (["paths", "--metric", "missing.json"], "unrecognized arguments: --metric"),
        (["realizable", "--strict-resolution"], "unrecognized arguments: --strict-resolution"),
        (["solve", "--speed", "1.62", "--metric", "missing.json"],
         "argument --metric: not allowed with argument --speed"),
    ], ids=["sweep-format", "critical-speed-speed", "paths-speed", "paths-metric",
            "realizable-convention", "speed-and-metric"])
    def test_option_the_command_does_not_read_exits_2(self, capsys, argv, named):
        code, _, err = run(capsys, [*argv, "--network", "demo"])
        assert code == EXIT_INVALID
        assert named in err

    @pytest.mark.parametrize("argv", [[], ["solve"], ["critical-speed"]],
                             ids=["top", "solve", "critical-speed"])
    def test_help_returns_0(self, capsys, argv):
        code, out, err = run(capsys, [*argv, "--help"])
        assert code == EXIT_OK
        assert out.startswith("usage: ugs-pursuit") and err == ""

    @pytest.mark.parametrize("command", [["verify"], ["simulate", "--path", "1"]])
    def test_policy_for_more_paths_rejected_before_reading_sets(self, capsys, tmp_path, command):
        _, solved, _ = run(capsys, ["solve", "--network", "demo", "--speed", "1.62",
                                    "--format", "json"])
        data = json.loads(solved)
        data["meta"]["n"] = 10 ** 8
        data["sets"].append({**data["sets"][-1], "set": [10 ** 8]})
        policy = tmp_path / "wide.json"
        policy.write_text(json.dumps(data))
        tracemalloc.start()
        try:
            code, _, err = run(capsys, [*command, "--network", "demo", "--speed", "1.62",
                                        "--t0", "1", "--policy", str(policy)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_INVALID
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "tables are for n=100000000 paths and m=7 nodes" in err
        # the mask of path 10**8 alone would take 12.5 MB
        assert peak < 4_000_000

    @pytest.mark.parametrize("command", [["verify"], ["simulate", "--path", "1"]],
                             ids=["verify", "simulate"])
    @pytest.mark.parametrize("edit,named", [
        (lambda data: data.pop("meta"), "the tables: no field 'meta'"),
        (lambda data: data["meta"].pop("n"), "meta: no field 'n'"),
        (lambda data: data["meta"].pop("m"), "meta: no field 'm'"),
    ], ids=["no-meta", "no-meta-n", "no-meta-m"])
    def test_policy_without_sizes_named(self, capsys, tmp_path, command, edit, named):
        # the size check before from_json names a missing field as from_json does
        _, solved, _ = run(capsys, ["solve", "--network", "demo", "--speed", "1.62",
                                    "--format", "json"])
        data = json.loads(solved)
        edit(data)
        policy = tmp_path / "sizeless.json"
        policy.write_text(json.dumps(data))
        code, _, err = run(capsys, [*command, "--network", "demo", "--speed", "1.62",
                                    "--t0", "1", "--policy", str(policy)])
        assert code == EXIT_INVALID
        assert err == (f"error: {policy}: not solved tables from 'solve --format json' "
                       f"(ValueError: {named})\n")

    def test_random_network_smoke(self, capsys):
        code, out, _ = run(capsys, ["paths", "--network", "random", "--seed", "3"])
        assert code == EXIT_OK
        assert "evader path(s)" in out
