"""Run orchestration: integrate a scenario and export its artifacts.

Artifacts written to the output directory:

* ``trajectory.csv``  columns: t, then per body K: x{K}[i], phi{K}[i][j],
  p{K}[i], pi{K}[a][i], then E, Sigma[a][b], SigmaHat[a][b], detphi_{K}
* ``charges.csv``     t, E, p[i], Sigma[a][b], SigmaHat[a][b], J[a][b], then
  per body: S{K}[a][b], V{K}[a][b], detphi_{K}, q{K}[a]
* ``summary.json``    final charges, relative drifts, solver telemetry (RHS
  evaluations of the accepted steps in total, per step and as a histogram,
  and the largest final fixed-point residual), determinism hash

Each CSV is one table, a row per sample, assembled from column blocks of the
trajectory's stacked arrays (the per-body blocks interleaved body by body)
and written by ``write_csv_table``.  Numbers are written as %.17e and the
JSON is key-sorted, so identical (scenario, seed) pairs produce byte-identical
artifacts.  Wall time is printed by the CLI, never written into them.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from .dynamics import Trajectory, integrate
from .scenario import Scenario


def _labels(prefix: str, *dims: int) -> list:
    """Column names prefix[i][j].. over every index of an array of shape dims."""
    return [prefix + "".join(f"[{i}]" for i in idx) for idx in np.ndindex(*dims)]


def trajectory_header(n: int, N: int) -> list:
    cols = ["t"]
    for K in range(1, N + 1):
        cols += _labels(f"x{K}", n) + _labels(f"phi{K}", n, n)
        cols += _labels(f"p{K}", n) + _labels(f"pi{K}", n, n)
    cols += ["E"] + _labels("Sigma", n, n) + _labels("SigmaHat", n, n)
    return cols + [f"detphi_{K}" for K in range(1, N + 1)]


def charges_header(n: int, N: int) -> list:
    cols = ["t", "E"] + _labels("p", n)
    cols += _labels("Sigma", n, n) + _labels("SigmaHat", n, n) + _labels("J", n, n)
    for K in range(1, N + 1):
        cols += _labels(f"S{K}", n, n) + _labels(f"V{K}", n, n)
        cols += [f"detphi_{K}"] + _labels(f"q{K}", n)
    return cols


def write_csv_table(path, header: list, blocks) -> None:
    """Write the header, then one row per sample of the (S, ...) column
    blocks side by side, every value as %.17e."""
    table = np.concatenate([b.reshape(len(b), -1) for b in blocks], axis=1)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(fh, table, fmt="%.17e", delimiter=",", header=",".join(header),
                   comments="")


def write_trajectory_csv(path, traj: Trajectory) -> None:
    S, n, N, c = len(traj.times), traj.n, traj.N, traj.charges
    bodies = np.concatenate([traj.x, traj.phi.reshape(S, N, -1), traj.p,
                             traj.pi.reshape(S, N, -1)], axis=2)
    write_csv_table(path, trajectory_header(n, N),
                    [traj.times, bodies, c.energy, c.sigma_total, c.sigma_hat_total, c.det_phi])


def write_charges_csv(path, traj: Trajectory) -> None:
    S, n, N, c = len(traj.times), traj.n, traj.N, traj.charges
    bodies = np.concatenate([c.spin.reshape(S, N, -1), c.vorticity.reshape(S, N, -1),
                             c.det_phi[:, :, None], c.q_log], axis=2)
    write_csv_table(path, charges_header(n, N),
                    [traj.times, c.energy, c.p_total, c.sigma_total, c.sigma_hat_total,
                     c.j_total, bodies])


def relative_drift(series: np.ndarray) -> float:
    """Max deviation from the initial value in max-norm, relative to the
    initial max-norm (absolute when the initial value is zero)."""
    series = np.asarray(series, dtype=float).reshape(len(series), -1)
    dev = float(np.max(np.abs(series - series[0])))
    scale = float(np.max(np.abs(series[0])))
    return dev / scale if scale > 0 else dev


def charge_drifts(traj: Trajectory) -> dict:
    c = traj.charges
    series = {
        "energy": c.energy,
        "p_total": c.p_total,
        "sigma_total": c.sigma_total,
        "sigma_hat_total": c.sigma_hat_total,
        "j_total": c.j_total,
        "spin_total": c.spin.sum(axis=1),
        "vorticity_total": c.vorticity.sum(axis=1),
    }
    return {name: relative_drift(values) for name, values in series.items()}


def solver_telemetry(traj: Trajectory) -> dict:
    """RHS evaluations of the accepted steps, in total, per step and as a
    histogram {evaluations: steps}, and the largest last fixed-point residual
    of a midpoint step relative to its scale (None without one)."""
    steps = len(traj.step_evals)
    counts, freq = np.unique(traj.step_evals, return_counts=True)
    residuals = traj.step_residuals[~np.isnan(traj.step_residuals)]
    return {"rhs_evals": traj.rhs_evals,
            "rhs_evals_per_step": traj.rhs_evals / steps if steps else 0.0,
            "evals_histogram": {str(c): int(f) for c, f in zip(counts, freq)},
            "max_final_residual": float(residuals.max()) if residuals.size else None}


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run(scenario: Scenario, out_dir) -> dict:
    """Integrate the scenario and write its artifacts; returns the summary."""
    os.makedirs(out_dir, exist_ok=True)
    state0 = scenario.initial_state()
    traj = integrate(scenario.model, scenario.params, scenario.potential, state0,
                     dt=scenario.dt, T=scenario.T, method=scenario.method)

    traj_path = os.path.join(out_dir, "trajectory.csv")
    charges_path = os.path.join(out_dir, "charges.csv")
    summary_path = os.path.join(out_dir, "summary.json")
    write_trajectory_csv(traj_path, traj)
    write_charges_csv(charges_path, traj)

    c = traj.charges
    steps = len(traj.times) - 1
    summary = {
        "name": scenario.name,
        "schema_version": scenario.schema_version,
        "n": scenario.n,
        "N": scenario.N,
        "model": {"translational": scenario.model.translational,
                  "internal": scenario.model.internal},
        "integrator": {"method": scenario.method, "dt": scenario.dt, "T": scenario.T},
        "seed": scenario.seed,
        "steps": steps,
        "final_time": traj.times[-1],
        "aborted": traj.aborted,
        "abort_reason": traj.abort_reason,
        "initial_energy": float(c.energy[0]),
        "final_energy": float(c.energy[-1]),
        "final_charges": {name: getattr(c, name)[-1].tolist()
                          for name in ("p_total", "sigma_total", "sigma_hat_total", "j_total")},
        "drifts": charge_drifts(traj),
        "solver": solver_telemetry(traj),
        "artifacts": ["trajectory.csv", "charges.csv"],
        "determinism_hash": "sha256:" + _sha256(traj_path),
        "exit_code": 2 if traj.aborted else 0,
    }
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary
