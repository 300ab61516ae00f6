"""Library checks too slow for tier-1, which deselects the ``ci`` marker
(``pyproject.toml``); CI runs them with ``python -m pytest -m ci``."""

import pytest

from ugs_pursuit import build_schedule, enumerate_paths, euclidean_metric, full_lattice, solve
from ugs_pursuit.fixtures import random_layered_network, speed_floor


@pytest.mark.ci
def test_lazy_cells_equal_the_full_lattice_at_n12():
    """random_layered_network(28, widths=[1, 3, 3, 3, 3, 2]) (12 paths, 15
    nodes) at 1.1x and 2x its floor, both conventions: every cell the lazy
    solve reads equals the bottom-up full-lattice fill, 4,095 sets x 15
    nodes (tier-1 stops at n = 10). The fill scores m cells per distinct
    candidate list, since sets with equal lists share one scored row; the
    counts are pinned, so a change to which lists are distinct fails."""
    network = random_layered_network(28, widths=[1, 3, 3, 3, 3, 2])
    paths = enumerate_paths(network)
    schedule = build_schedule(paths, network.m)
    assert (schedule.n, schedule.m) == (12, 15), (schedule.n, schedule.m)
    keys = [(j, mask) for mask in full_lattice(schedule.n) for j in range(1, schedule.m + 1)]
    every = schedule.m * ((1 << schedule.n) - 1 - schedule.n)
    # cells the fill scores, by (factor, strict)
    pinned = {(1.1, False): 2835, (1.1, True): 4680, (2.0, False): 3705, (2.0, True): 6420}
    for factor in (1.1, 2.0):
        metric = euclidean_metric(network, factor * speed_floor(network))
        for strict in (False, True):
            lattice = solve(network, schedule, metric, paths, prune=False, strict_resolution=strict)
            lazy = solve(network, schedule, metric, paths, strict_resolution=strict)
            for view in ("latest", "policy", "capture_move"):
                full, read = getattr(lattice, view), getattr(lazy, view)
                differ = next((key for key in keys if full[key] != read[key]), None)
                assert differ is None, (factor, strict, view, differ)
            scored = lattice.solver.cells_scored
            print(f"{factor}x strict={strict}: {len(keys)} cells agree; "
                  f"{scored} of {every} cells scored")
            assert scored < every, (factor, strict, scored, every)
            assert scored == pinned[factor, strict], (factor, strict, scored)
