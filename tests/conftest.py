import math
import random
import sys

import pytest

from ugs_pursuit import solver
from ugs_pursuit import (
    SolveResult,
    build_schedule,
    demo_bundle,
    enumerate_paths,
    euclidean_metric,
    mask_from,
    oracle_max_delay,
    speed_floor,
    solve,
    table_metric,
    validate_network,
    verify_guarantee,
)


@pytest.fixture(scope="session")
def demo():
    """(network, paths, schedule) for the bundled seven-node demo."""
    return demo_bundle()


@pytest.fixture(scope="session")
def demo_index(demo):
    """Path index per node sequence, so tests never hardcode enumeration
    order."""
    _, paths, _ = demo
    return {p.nodes: p.index for p in paths}


@pytest.fixture(scope="session")
def demo_metric(demo):
    network, _, _ = demo
    return euclidean_metric(network, 1.62)


@pytest.fixture(scope="session")
def zero_metric(demo):
    network, _, _ = demo
    return table_metric([[0.0] * network.m for _ in range(network.m)], network)


@pytest.fixture(scope="session")
def single_edge():
    """Two-node network: one path of length 7, straight-line distance 5."""
    raw = {
        "nodes": [{"id": 1, "x": 0.0, "y": 0.0}, {"id": 2, "x": 3.0, "y": 4.0}],
        "edges": [{"from": 1, "to": 2, "time": 7.0}],
        "entry": 1,
    }
    network = validate_network(raw)
    paths = enumerate_paths(network)
    return network, paths, build_schedule(paths, network.m)


def comb(k):
    """The raw description of comb ``k``: a spine of unit-spaced nodes
    ``1..k`` and, one unit below each spine node ``j`` from 2 to ``k``, an
    exit numbered ``k + j - 1``; every edge takes 1.5. Its ``k - 1`` paths
    leave the spine one per exit, so a solve nests cell passes about ``k``
    deep and the decision tree is about ``k`` levels deep."""
    spine = [{"id": j, "x": float(j), "y": 0.0} for j in range(1, k + 1)]
    exits = [{"id": k + j - 1, "x": float(j), "y": -1.0} for j in range(2, k + 1)]
    edges = [{"from": j, "to": j + 1, "time": 1.5} for j in range(1, k)]
    edges += [{"from": j, "to": k + j - 1, "time": 1.5} for j in range(2, k + 1)]
    return {"nodes": spine + exits, "edges": edges, "entry": 1}


def dag_cases(seed):
    """The cases of general DAG ``seed``, as ``(network, paths, schedule,
    metric)``: none when the drawn network has fewer than 2 or more than 7
    paths, else one per metric. Unlike a layered network, it can have skip edges, exits at
    several depths and, for odd seeds, integer edge times, so visits and
    ceilings tie.

    The network has 4 to 8 nodes at distinct integer points. Each node
    ``j >= 2`` gets an edge from one node of smaller id, and any other
    forward pair an edge with probability 0.3. An edge takes its length
    times U(1.05, 2), plus 0, 0.5 or 1; for odd seeds that is rounded up to
    an integer, plus 1. There are two metrics: euclidean at 1.05, 1.1, 2 or
    4 times the speed floor, and a table of entries U(0.5, 6), each edge's
    capped at its time times U(0.2, 0.9), closed under shortest paths."""
    rng = random.Random(seed)
    m = rng.randint(4, 8)
    points = rng.sample([(x, y) for x in range(7) for y in range(7)], m)
    pairs = {(rng.randrange(1, j), j) for j in range(2, m + 1)}
    pairs |= {(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1) if rng.random() < 0.3}
    edges = []
    for i, j in sorted(pairs):
        time = math.dist(points[i - 1], points[j - 1]) * rng.uniform(1.05, 2.0)
        time += rng.choice((0.0, 0.5, 1.0))
        edges.append({"from": i, "to": j, "time": math.ceil(time) + 1.0 if seed % 2 else time})
    network = validate_network({"nodes": [{"id": j, "x": float(x), "y": float(y)}
                                          for j, (x, y) in enumerate(points, 1)],
                                "edges": edges, "entry": 1})
    paths = enumerate_paths(network)
    if not 2 <= len(paths) <= 7:
        return []
    schedule = build_schedule(paths, m)
    factor = rng.choice((1.05, 1.1, 2.0, 4.0))
    d = [[0.0 if i == j else rng.uniform(0.5, 6.0) for j in range(m)] for i in range(m)]
    for edge in edges:
        i, j = edge["from"] - 1, edge["to"] - 1
        d[i][j] = min(d[i][j], edge["time"] * rng.uniform(0.2, 0.9))
    for k in range(m):
        for i in range(m):
            for j in range(m):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return [(network, paths, schedule, metric) for metric in
            (euclidean_metric(network, factor * speed_floor(network)), table_metric(d, network))]


def check_dags(seeds) -> int:
    """Check the cases of each DAG seed (``dag_cases``) and return how many
    there are. Under both conventions the solved delay equals
    ``oracle_max_delay`` within 1e-6. The exact oracle is at least the
    strict delay less 1e-6 (it is never negative, so a strict delay of 0
    needs no search), and a positive strict delay plays back with every
    path captured. Membership playback is not checked: it fails on about a
    third of the cases."""
    count = 0
    for seed in seeds:
        for network, paths, schedule, metric in dag_cases(seed):
            count += 1
            for strict in (False, True):
                result = solve(network, schedule, metric, paths, strict_resolution=strict)
                delay = result.tolerable_delay
                oracle = oracle_max_delay(network, schedule, metric, paths,
                                          strict_resolution=strict)
                assert abs(delay - oracle) <= 1e-6, (seed, strict, delay, oracle)
            # the loop ends on the strict solve
            if delay > 0:
                exact = oracle_max_delay(network, schedule, metric, paths, exact=True)
                assert exact >= delay - 1e-6, (seed, exact, delay)
                report = verify_guarantee(network, schedule, metric, result, delay)
                assert report.all_captured, (seed, delay)
    return count


def flip_id(network):
    """Node id ``j`` of ``network`` with ids 2..m reversed (an involution)."""
    return lambda j: j if j == network.entry else network.m + 2 - j


def reversed_ids(network):
    """``network`` with its non-entry node ids reversed: node ``j`` of
    2..m is node ``m + 2 - j``, so events at equal times come in the
    opposite node order, and the paths are renumbered."""
    new = flip_id(network)
    return validate_network({
        "nodes": [{"id": new(j), "x": x, "y": y} for j, (x, y) in enumerate(network.coords[1:], 1)],
        "edges": [{"from": new(a), "to": new(b), "time": t} for a, b, t in network.edges()],
        "entry": network.entry,
    })


def with_few_frames(call, spare):
    """``call()``, run when only ``spare`` more nested calls fit under the
    recursion limit."""
    def down(depth):
        try:
            return down(depth + 1)
        except RecursionError:
            return depth

    limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(limit - down(0) + spare)
        return call()
    finally:
        sys.setrecursionlimit(limit)


def mask_of(demo_index, *sequences):
    """Bitmask for the paths given by node sequences."""
    return mask_from(demo_index[seq] for seq in sequences)


def looping_demo_tables(demo, demo_index, prune, moves=None):
    """(metric, tables) for the demo solved under the uniform 0.01 table
    metric, edited and reloaded: the root moves to node 3, and the path
    avoiding node 3, once known, moves from node ``j`` to ``moves[j]``, not
    a capture. By default it moves between nodes 3 and 4, passing
    neither."""
    network, paths, schedule = demo
    m = network.m
    metric = table_metric([[0.0 if i == j else 0.01 for j in range(m)] for i in range(m)],
                          network)
    data = solve(network, schedule, metric, paths, prune=prune).to_json()
    alone = [demo_index[(1, 2, 7)]]
    for record in data["sets"]:
        if record["set"] == list(range(1, schedule.n + 1)):
            record["mu"][0], record["capture"][0] = 3, False
        elif record["set"] == alone:
            for j, u in (moves or {3: 4, 4: 3}).items():
                record["mu"][j - 1], record["capture"][j - 1] = u, False
    return metric, SolveResult.from_json(data)


@pytest.fixture
def digest_calls(monkeypatch):
    """The metrics ``solver.metric_digest`` is called on while the test runs."""
    calls, digest = [], solver.metric_digest

    def counted(metric):
        calls.append(metric)
        return digest(metric)

    monkeypatch.setattr(solver, "metric_digest", counted)
    return calls
