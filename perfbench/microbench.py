"""Layer microbench: µs per call of the hot dynamics and potential kernels.

Times ``hamilton_rhs``, ``potential_gradient`` and ``noether_charges`` on
the grid n in {2, 3} x N in {1, 2, 8, 16}, each on a seed-generated is-af
system with Mbar and D pair terms (the ``pair_heavy`` generator), untraced.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from workloads import pair_scenario

GRID = tuple((n, N) for n in (2, 3) for N in (1, 2, 8, 16))
BATCH_S = 0.01      # each timed batch repeats the call for about this long
BATCHES = 5


def _us_per_call(fn, batches: int) -> float:
    fn()
    t = time.perf_counter()
    fn()
    once = time.perf_counter() - t
    reps = max(1, int(BATCH_S / max(once, 1e-9)))
    samples = []
    for _ in range(batches):
        t = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - t) / reps)
    return statistics.median(samples) * 1e6


def run(seed: int, tiny: bool = False) -> dict:
    from affinekit import hamilton_rhs, noether_charges, potential_gradient
    from affinekit.scenario import scenario_from_dict

    batches = 1 if tiny else BATCHES
    rng = np.random.default_rng([seed, 1])
    metrics = {}
    for n, N in GRID:
        s = scenario_from_dict(pair_scenario(n, N, rng))
        state = s.initial_state()
        kernels = {
            "dynamics.hamilton_rhs_us": lambda: hamilton_rhs(s.model, s.params, s.potential, state),
            "potentials.potential_gradient_us": lambda: potential_gradient(s.potential, state.config),
            "dynamics.noether_charges_us": lambda: noether_charges(state),
        }
        for label, fn in kernels.items():
            metrics[f"{label}.n{n}_N{N}"] = _us_per_call(fn, batches)
    return metrics
