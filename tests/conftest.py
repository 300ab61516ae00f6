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
    solve,
    table_metric,
    validate_network,
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
