import json
import re

import pytest

from ugs_pursuit import (
    PolicyHole,
    PursuitError,
    SolveResult,
    build_schedule,
    build_tree,
    enumerate_paths,
    euclidean_metric,
    mask_from,
    red_reports,
    simulate,
    solve,
    tree_dumps,
    tree_to_dot,
    validate_network,
)
from ugs_pursuit.fixtures import random_instance, random_layered_network, speed_floor
from ugs_pursuit.network import indices_of

from conftest import comb, looping_demo_tables, mask_of, with_few_frames


@pytest.fixture(scope="module")
def demo_tree(demo, demo_metric):
    network, paths, schedule = demo
    result = solve(network, schedule, demo_metric, paths)
    return result, build_tree(result, schedule, demo_metric)


class TestBuildTree:
    def test_root_annotation(self, demo_tree):
        result, tree = demo_tree
        assert tree.ugs == 1
        assert tree.mask == result.root_mask
        assert tree.latest == result.root_latest

    def test_every_leaf_is_a_capture(self, demo_tree):
        _, tree = demo_tree
        assert all(leaf.kind == "capture" for leaf in tree.leaves())

    def test_depth_bounded_by_path_count(self, demo, demo_tree):
        _, _, schedule = demo
        _, tree = demo_tree
        assert tree.depth() <= 2 * schedule.n  # counting capture leaves as a level

    def test_children_sets_strictly_shrink(self, demo_tree):
        _, tree = demo_tree
        for node in tree.walk():
            for child in node.children.values():
                if child.kind == "capture":
                    continue
                assert child.mask & node.mask == child.mask
                assert child.mask != node.mask

    def test_annotations_match_tables(self, demo_tree):
        result, tree = demo_tree
        for node in tree.walk():
            if node.kind == "decision":
                assert result.latest[(node.ugs, node.mask)] == node.latest

    def test_leaf_count_bound(self, demo, demo_tree):
        _, _, schedule = demo
        _, tree = demo_tree
        assert sum(1 for _ in tree.leaves()) <= 2 * schedule.n - 1

    def test_single_path_tree(self, single_edge):
        network, paths, schedule = single_edge
        metric = euclidean_metric(network, 1.0)
        result = solve(network, schedule, metric, paths)
        tree = build_tree(result, schedule, metric)
        (leaf,) = list(tree.leaves())
        assert leaf.ugs == paths[0].exit
        assert leaf.latest == pytest.approx(paths[0].length)

    def test_custom_root_wait_then_advance(self, demo, demo_metric, demo_index):
        # from exit 6 holding the rejoining pair: wait there; a red report
        # means capture on the spot, a green one sends the pursuer to 7
        network, paths, schedule = demo
        result = solve(network, schedule, demo_metric, paths)
        pair = mask_of(demo_index, (1, 3, 4, 6), (1, 3, 4, 7))
        tree = build_tree(result, schedule, demo_metric, root=(6, pair))
        assert tree.latest == pytest.approx(16.30, abs=1e-9)
        red = tree.children["red"]
        red_leaves = list(red.leaves())
        assert len(red_leaves) == 1
        assert red_leaves[0].ugs == 6
        assert red_leaves[0].latest == pytest.approx(16.30, abs=1e-9)
        green = tree.children["green"]
        assert green.mask == mask_of(demo_index, (1, 3, 4, 7))
        assert result.policy[(green.ugs, green.mask)] == 7

    def test_metric_mismatch_rejected(self, demo, demo_metric):
        network, paths, schedule = demo
        result = solve(network, schedule, demo_metric, paths)
        reloaded = SolveResult.from_json(solve(network, schedule, demo_metric, paths).to_json())
        other = euclidean_metric(network, 2.0)
        for tables in (result, reloaded):
            with pytest.raises(ValueError):
                build_tree(tables, schedule, other)

    def test_move_reading_no_path_is_a_policy_hole(self, demo, demo_index):
        # edited tables whose known path is sent to a node it never passes
        _, _, schedule = demo
        metric, tables = looping_demo_tables(demo, demo_index, prune=False)
        alone = (demo_index[(1, 2, 7)],)
        with pytest.raises(PolicyHole, match=re.escape(
                f"the policy moves to node 4, which no path of set {alone} passes")):
            build_tree(tables, schedule, metric)

    def test_set_missing_from_the_tables_is_a_policy_hole(self, demo, demo_metric):
        network, paths, schedule = demo
        data = solve(network, schedule, demo_metric, paths).to_json()
        data["sets"] = [r for r in data["sets"] if len(r["set"]) in (1, schedule.n)]
        with pytest.raises(PolicyHole, match=re.escape(
                "no table entry for node 2, set (2, 3, 4)")):
            build_tree(SolveResult.from_json(data), schedule, demo_metric)

    def test_random_instances_structure(self):
        for seed in range(5):
            network, paths, schedule = random_instance(seed, n_max=4, m_max=8)
            metric = euclidean_metric(network, 1.1 * speed_floor(network))
            result = solve(network, schedule, metric, paths)
            tree = build_tree(result, schedule, metric)
            assert all(leaf.kind == "capture" for leaf in tree.leaves())
            assert sum(1 for _ in tree.leaves()) <= 2 * schedule.n - 1
            assert tree.depth() <= 2 * schedule.n


# both draw red parts that span several visit-time classes
MULTI_CLASS = [(85, [1, 3, 3, 3, 3, 2]), (5, None)]


class TestReplayConsistency:
    def test_simulator_follows_tree_to_matching_leaf(self, demo, demo_metric):
        network, paths, schedule = demo
        for strict in (False, True):
            result = solve(network, schedule, demo_metric, paths, strict_resolution=strict)
            tree = build_tree(result, schedule, demo_metric)
            t0 = result.root_latest
            for k in range(1, schedule.n + 1):
                outcome = simulate(network, schedule, demo_metric, result, k, t0)
                assert outcome.captured
                node = tree
                # follow the tree using the transcript's post-entry observations
                for row in outcome.transcript[1:]:
                    label = "green" if row.passage is None else "red"
                    if label in node.children and node.children[label].kind != "capture":
                        node = node.children[label]
                leaf_like = [leaf for leaf in node.walk() if leaf.kind == "capture"]
                assert any(
                    leaf.ugs == outcome.node and abs(leaf.latest - outcome.time) <= 1e-9
                    for leaf in leaf_like
                ), (strict, k)

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("layered", [None, *MULTI_CLASS], ids=["demo", "L85", "L36"])
    def test_transcripts_walk_the_tree(self, demo, demo_metric, layered, strict):
        """Every post-entry reading of a playback that ends in capture, at
        the solved delay and at half of it, is a decision node of the tree
        and a child of the reading before it."""
        if layered is None:
            network, paths, schedule = demo
            metric = demo_metric
        else:
            network = random_layered_network(*layered)
            paths = enumerate_paths(network)
            schedule = build_schedule(paths, network.m)
            metric = euclidean_metric(network, 1.1 * speed_floor(network))
        result = solve(network, schedule, metric, paths, strict_resolution=strict)
        tree = build_tree(result, schedule, metric)
        walked = 0
        for t0 in (result.tolerable_delay, 0.5 * result.tolerable_delay):
            for k in range(1, schedule.n + 1):
                try:
                    outcome = simulate(network, schedule, metric, result, k, t0)
                except PursuitError:  # membership playback can break down (L36)
                    continue
                if not outcome.captured:
                    continue
                node = tree
                for row in outcome.transcript[1:]:
                    node = next((child for child in node.children.values()
                                 if child.kind == "decision"
                                 and (child.ugs, child.mask) == (row.node, row.info)), None)
                    assert node is not None, (t0, k, row)
                    walked += 1
        assert walked


def strict_tree(seed, widths):
    network = random_layered_network(seed, widths=widths)
    paths = enumerate_paths(network)
    schedule = build_schedule(paths, network.m)
    metric = euclidean_metric(network, 1.1 * speed_floor(network))
    result = solve(network, schedule, metric, paths, strict_resolution=True)
    return network, schedule, metric, result, build_tree(result, schedule, metric)



class TestStrictRedReports:
    @pytest.mark.parametrize("seed,widths", MULTI_CLASS)
    def test_one_child_per_red_report(self, seed, widths):
        _, schedule, _, result, tree = strict_tree(seed, widths)
        several = 0
        for node in tree.walk():
            if node.kind == "capture":
                continue
            move = result.policy[(node.ugs, node.mask)]
            reports = red_reports(node.mask, move, schedule, True)
            reds = [(label, child) for label, child in node.children.items() if label != "green"]
            assert [(child.ugs, child.resolve_t, child.mask) for _, child in reds] == [
                (move, t, cls) for t, cls in reports]
            if len(reports) == 1:
                assert [label for label, _ in reds] == ["red"]
            else:
                assert [label for label, _ in reds] == [f"red {i}" for i in range(1, len(reports) + 1)]
                several += 1
        assert several

    @pytest.mark.parametrize("seed,widths", MULTI_CLASS)
    def test_playback_ends_at_matching_leaf(self, seed, widths):
        network, schedule, metric, result, tree = strict_tree(seed, widths)
        for k in range(1, schedule.n + 1):
            outcome = simulate(network, schedule, metric, result, k, result.root_latest)
            assert outcome.captured
            node = tree
            for row in outcome.transcript[1:]:
                reached = [child for child in node.children.values()
                           if child.kind == "decision" and (child.ugs, child.mask) == (row.node, row.info)]
                if row.passage is not None:  # every red reading here lands on a drawn red child
                    assert reached, (k, row)
                if reached:
                    node = reached[0]
            # the capture comes no later than a leaf of the reached subtree
            # that still holds the evader's path promises
            assert any(leaf.mask & (1 << (k - 1)) and outcome.time <= leaf.latest + 1e-9
                       for leaf in node.leaves())


class TestRenderings:
    def test_json_schema(self, demo_tree):
        _, tree = demo_tree
        payload = json.loads(tree_dumps(tree))
        assert {"ugs", "set", "D", "kind"} <= payload.keys()
        stack = [payload]
        while stack:
            node = stack.pop()
            for child in node.get("children", {}).values():
                assert {"ugs", "set", "D", "kind"} <= child.keys()
                stack.append(child)

    @pytest.mark.parametrize("strict", [False, True])
    def test_json_is_the_stdlib_rendering(self, demo, demo_metric, demo_index, strict):
        # demo trees from the entry and from a custom root, and trees whose
        # red reports span several visit-time classes
        network, paths, schedule = demo
        result = solve(network, schedule, demo_metric, paths, strict_resolution=strict)
        pair = mask_of(demo_index, (1, 3, 4, 6), (1, 3, 4, 7))
        trees = [build_tree(result, schedule, demo_metric),
                 build_tree(result, schedule, demo_metric, root=(6, pair))]
        trees += [strict_tree(*instance)[4] for instance in MULTI_CLASS] if strict else []
        for tree in trees:
            text = tree_dumps(tree)
            payload = json.loads(text)
            assert text == json.dumps(payload, indent=2)
            records, stack = [], [payload]
            while stack:
                record = stack.pop()
                records.append((record["ugs"], record["set"], record["D"], record["kind"],
                                record.get("t"), [*record.get("children", {})]))
                stack += reversed(record.get("children", {}).values())
            assert records == [(node.ugs, [*indices_of(node.mask)], node.latest, node.kind,
                                node.resolve_t, [*node.children]) for node in tree.walk()]

    def test_dot_output(self, demo_tree):
        _, tree = demo_tree
        text = tree_to_dot(tree)
        assert text.startswith("digraph")
        assert text.rstrip().endswith("}")
        assert 'label="red' in text and 'label="green' in text
        assert "capture @ UGS" in text

    def test_full_set_membership_label(self, demo_tree):
        _, tree = demo_tree
        assert "{1,2,3,4}" in tree_to_dot(tree)


def comb_tables(k):
    """(result, schedule, metric): comb ``k`` solved strict at twice its
    speed floor."""
    network = validate_network(comb(k))
    paths = enumerate_paths(network)
    schedule = build_schedule(paths, network.m)
    metric = euclidean_metric(network, 2.0 * speed_floor(network))
    return solve(network, schedule, metric, paths, strict_resolution=True), schedule, metric


class TestDeepTree:
    """Comb 60's tree is 59 levels deep, and no traversal nests a call per
    level, so each runs with a few spare frames."""

    def test_traversals_with_few_spare_frames(self):
        result, schedule, metric = comb_tables(60)

        def traverse():
            tree = build_tree(result, schedule, metric)
            return (tree.depth(), [(node.ugs, node.mask, node.kind) for node in tree.walk()],
                    [(leaf.ugs, leaf.latest) for leaf in tree.leaves()], tree_to_dot(tree),
                    tree_dumps(tree))

        normal = traverse()
        assert normal[0] == 59 and len(normal[2]) == 59
        assert with_few_frames(traverse, 16) == normal

    def test_repr_and_equality_with_few_spare_frames(self):
        result, schedule, metric = comb_tables(60)
        one, two = build_tree(result, schedule, metric), build_tree(result, schedule, metric)
        text, same, other = with_few_frames(lambda: (repr(one), one == one, one == two), 16)
        assert text == (f"TreeNode(ugs=1, mask={one.mask}, latest={one.latest!r}, "
                        "kind='decision', resolve_t=None)")
        # trees compare by identity; their renderings compare by content
        assert same and not other
        assert tree_to_dot(one) == tree_to_dot(two)
