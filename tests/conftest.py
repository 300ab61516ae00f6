import pytest

from ugs_pursuit import solver
from ugs_pursuit import (
    build_schedule,
    demo_bundle,
    enumerate_paths,
    euclidean_metric,
    mask_from,
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


def mask_of(demo_index, *sequences):
    """Bitmask for the paths given by node sequences."""
    return mask_from(demo_index[seq] for seq in sequences)


@pytest.fixture
def digest_calls(monkeypatch):
    """The metrics ``solver.metric_digest`` is called on while the test runs."""
    calls, digest = [], solver.metric_digest

    def counted(metric):
        calls.append(metric)
        return digest(metric)

    monkeypatch.setattr(solver, "metric_digest", counted)
    return calls
