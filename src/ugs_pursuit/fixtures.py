"""Bundled demo network and the random instances used by tests, the
benchmark and the CLI's ``--network random``.

The demo is a seven-node network with three exits and four evader paths.
Its coordinates realize the edge lengths as straight-line distances (and
put exits 6 and 7 exactly two distance units apart), so the euclidean
pursuer metric is consistent with the road geometry and any pursuer speed
above 1 satisfies the speed-advantage requirement. The 50-instance
corpus is ``random_instance`` seeds 1-50 with the default caps.
"""

from __future__ import annotations

import math
import random

from .network import RoadNetwork, build_schedule, enumerate_paths, validate_network

DEMO_COORDS = {
    1: (0.0, 0.0),
    2: (1.7012647566799421, -4.5204643818615295),
    3: (6.83, 0.0),
    4: (10.480293559477355, -3.7454314744283015),
    5: (5.311524020740995, -4.763846208728133),
    6: (9.011136688921136, -7.722764511740799),
    7: (10.333225949239935, -9.223457680829569),
}

DEMO_EDGES = (
    (1, 2, 4.83),
    (1, 3, 6.83),
    (3, 5, 5.00),
    (3, 4, 5.23),
    (4, 6, 4.24),
    (4, 7, 5.48),
    (2, 7, 9.83),
)


def demo_raw() -> dict:
    """The demo network in the JSON input shape."""
    return {
        "nodes": [{"id": j, "x": x, "y": y} for j, (x, y) in sorted(DEMO_COORDS.items())],
        "edges": [{"from": a, "to": b, "time": t} for a, b, t in DEMO_EDGES],
        "entry": 1,
    }


def demo_bundle():
    """(network, paths, schedule) for the demo."""
    network = validate_network(demo_raw())
    paths = enumerate_paths(network)
    return network, paths, build_schedule(paths, network.m)


def speed_floor(network: RoadNetwork) -> float:
    """Smallest pursuer speed satisfying the speed-advantage requirement
    with the euclidean metric (exclusive bound)."""
    worst = 0.0
    for j, c, t in network.edges():
        worst = max(worst, math.dist(network.coords[j], network.coords[c]) / t)
    return worst


def random_layered_network(seed: int, widths=None) -> RoadNetwork:
    """Random layered DAG: single entry in layer 0, goals in the last layer,
    edges between adjacent layers only, edge times a 1.1x-2.0x stretch of
    the straight-line distance (so every standing assumption holds by
    construction). ``widths`` fixes the node count per layer; by default
    there are 3-6 layers of 1-3 nodes after the entry's."""
    rng = random.Random(seed)
    if widths is None:
        widths = [1] + [rng.randint(1, 3) for _ in range(rng.randint(3, 6) - 1)]
    else:
        widths = list(widths)
        if widths[0] != 1:
            raise ValueError("layer 0 holds only the entry node")

    coords: list[tuple[float, float]] = []
    layer_nodes: list[list[int]] = []
    next_id = 1
    for li, width in enumerate(widths):
        row = []
        for slot in range(width):
            x = 4.0 * li + rng.uniform(-0.4, 0.4)
            y = 3.0 * (slot - (width - 1) / 2.0) + rng.uniform(-0.8, 0.8)
            coords.append((x, y))
            row.append(next_id)
            next_id += 1
        layer_nodes.append(row)

    edges = set()
    for li in range(1, len(widths)):
        for child in layer_nodes[li]:
            for parent in rng.sample(layer_nodes[li - 1], rng.randint(1, len(layer_nodes[li - 1]))):
                edges.add((parent, child))
        for parent in layer_nodes[li - 1]:
            if not any(e[0] == parent for e in edges):
                edges.add((parent, rng.choice(layer_nodes[li])))

    raw = {
        "nodes": [
            {"id": j, "x": coords[j - 1][0], "y": coords[j - 1][1]}
            for j in range(1, next_id)
        ],
        "edges": [
            {"from": a, "to": b,
             "time": math.dist(coords[a - 1], coords[b - 1]) * rng.uniform(1.1, 2.0)}
            for a, b in sorted(edges)
        ],
        "entry": 1,
    }
    return validate_network(raw)


def random_instance(seed: int, n_max: int = 4, m_max: int = 8):
    """(network, paths, schedule) with 2..``n_max`` paths and at most
    ``m_max`` nodes, found by deterministic rejection sampling from ``seed``.
    Any speed above ``speed_floor(network)`` gives a valid euclidean metric.
    """
    for attempt in range(10_000):
        network = random_layered_network(seed * 10_000 + attempt)
        if network.m > m_max:
            continue
        paths = enumerate_paths(network)
        if not 2 <= len(paths) <= n_max:
            continue
        return network, paths, build_schedule(paths, network.m)
    raise RuntimeError(f"no instance within caps from seed {seed}")
