"""Correctness oracles the benchmark applies to the program's outputs.

Each returns an error that its caller compares with a tolerance; none of
them runs inside a timed or traced phase.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

FD_TOL = 1e-6           # hamilton_rhs against central differences of H
GEODESIC_TOL = 1e-7     # implicit midpoint against expm(t Omega) phi0
SPECTRUM_TOL = 1e-4     # relative miss of the harmonic levels k + 1/2
MEASURE_TOL = 1e-6      # max_rel_err of the two-polar density fit


def _pack(state) -> np.ndarray:
    return np.concatenate([state.config.x.ravel(), state.config.phi.ravel(),
                           state.mom.p.ravel(), state.mom.pi.ravel()])


def _unpack(z: np.ndarray, n: int, N: int):
    from affinekit import MomentumState, PhaseState, SystemConfig

    nx, nphi = N * n, N * n * n
    return PhaseState(
        config=SystemConfig(x=z[:nx].reshape(N, n), phi=z[nx:nx + nphi].reshape(N, n, n)),
        mom=MomentumState(p=z[nx + nphi:2 * nx + nphi].reshape(N, n),
                          pi=z[2 * nx + nphi:].reshape(N, n, n)))


def rhs_fd_error(scenario) -> float:
    """Relative mismatch of hamilton_rhs and the canonical equations built
    from central differences of total_energy at the initial state."""
    from affinekit import hamilton_rhs, total_energy

    model, params, spec = scenario.model, scenario.params, scenario.potential
    state = scenario.initial_state()
    n, N = state.n, state.N
    z0 = _pack(state)
    grad = np.empty_like(z0)
    for i in range(len(z0)):
        h = 1e-6 * max(1.0, abs(z0[i]))
        zp, zm = z0.copy(), z0.copy()
        zp[i] += h
        zm[i] -= h
        grad[i] = (total_energy(model, params, spec, _unpack(zp, n, N))
                   - total_energy(model, params, spec, _unpack(zm, n, N))) / (2 * h)
    gx, gphi, gp, gpi = (g for g in np.split(grad, np.cumsum([N * n, N * n * n, N * n])))
    gphi = gphi.reshape(N, n, n)
    gpi = gpi.reshape(N, n, n)
    # dx/dt = dH/dp, dphi[i,a]/dt = dH/dpi[a,i], dp/dt = -dH/dx, dpi[a,i]/dt = -dH/dphi[i,a]
    expected = np.concatenate([gp, np.transpose(gpi, (0, 2, 1)).ravel(),
                               -gx, -np.transpose(gphi, (0, 2, 1)).ravel()])
    d = hamilton_rhs(model, params, spec, state)
    got = np.concatenate([d.x_dot.ravel(), d.phi_dot.ravel(),
                          d.p_dot.ravel(), d.pi_dot.ravel()])
    return float(np.max(np.abs(got - expected)) / (1.0 + np.max(np.abs(expected))))


def _read_columns(path: str, prefix: str) -> tuple[np.ndarray, np.ndarray]:
    """Times and the columns whose header starts with ``prefix`` from a CSV artifact."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    cols = [i for i, name in enumerate(header) if name.startswith(prefix)]
    return rows[:, 0], rows[:, cols]


def geodesic_error(scenario, trajectory_csv: str) -> float:
    """Largest miss of the trajectory against the exact af-af free flow
    phi(t) = expm(t Omega) phi0, Omega = xi0 phi0^-1, for body 1."""
    from affinekit import inverse_legendre

    state = scenario.initial_state()
    phi0 = state.config.phi[0]
    xi0 = inverse_legendre(scenario.model, scenario.params, state.config, state.mom).xi[0]
    omega = xi0 @ np.linalg.inv(phi0)
    times, phi = _read_columns(trajectory_csv, "phi1[")
    n = phi0.shape[0]
    worst = 0.0
    for t, row in zip(times, phi):
        exact = expm(t * omega) @ phi0
        worst = max(worst, float(np.max(np.abs(row.reshape(n, n) - exact))))
    return worst / (1.0 + float(np.max(np.abs(phi))))


def spectrum_error(levels) -> float:
    """Relative miss of the spectrum against the harmonic levels k + 1/2."""
    levels = np.asarray(levels, dtype=float)
    exact = np.arange(len(levels)) + 0.5
    return float(np.max(np.abs(levels - exact) / exact))
