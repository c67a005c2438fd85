"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; the helper runs in this module reuse the
bundled scenarios so the numbers reported by ``affinekit run`` are the same
ones accepted below.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

import affinekit.checks as checks
from affinekit.dynamics import integrate
from affinekit.kinematics import SystemConfig, VelocityState
from affinekit.kinetics import (InertiaParams, KineticModel, inverse_legendre,
                                kinetic_energy, kinetic_hamiltonian, legendre,
                                tilde_constants)
from affinekit.measures import measure_check_report
from affinekit.potentials import HarmonicFn, InvariantTerm, PotentialSpec
from affinekit.qdesk import (QGrid, build_hamiltonian_1d, gaussian_packet,
                             hermiticity_check, shift_action_check,
                             solve_spectrum)
from affinekit.runner import charge_drifts, relative_drift
from affinekit.sampling import rng_from_seed
from affinekit.scenario import bundled_scenario_path, parse_scenario

RESULTS = []


def record(criterion, passed, detail):
    line = f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def geodetic_run():
    s = parse_scenario(bundled_scenario_path("afaf_geodetic_gl2"))
    return s, integrate(s.model, s.params, s.potential, s.initial_state(),
                        dt=s.dt, T=s.T, method=s.method)


def test_criterion_1_legendre_hamiltonian_roundtrip():
    """Every kinetic model, 1000 random states each at n in {2, 3}; the
    Hamiltonian reproduces the kinetic energy to 1e-10 relative and the
    velocity round trip closes."""
    start = time.perf_counter()
    worst = 0.0
    states_per_model = 1000
    for n in (2, 3):
        rng = rng_from_seed(100 + n)
        phi = np.empty((states_per_model, n, n))
        for K in range(states_per_model):
            cand = np.eye(n) + 0.4 * rng.uniform(-1, 1, (n, n))
            while np.linalg.det(cand) < 0.25:
                cand = np.eye(n) + 0.4 * rng.uniform(-1, 1, (n, n))
            phi[K] = cand
        config = SystemConfig(x=np.zeros((states_per_model, n)), phi=phi)
        vel = VelocityState(v=rng.uniform(-1, 1, (states_per_model, n)),
                            xi=rng.uniform(-1, 1, (states_per_model, n, n)))
        spd = lambda: (lambda m: m @ m.T + n * np.eye(n))(rng.uniform(-1, 1, (n, n)))
        raw = rng.uniform(-0.3, 0.3, (n * n, n * n))
        params = InertiaParams(M=1.7, J=spd(), I=2.0, A=1.0, B=1.0, H=spd(),
                               Lten=raw @ raw.T + n * np.eye(n * n),
                               Rten=raw @ raw.T + n * np.eye(n * n))
        tilde_constants(2.0, 1.0, 1.0, n)  # constants well defined at these params
        for tr in ("dalembert", "is-af", "af-is"):
            for it in ("dalembert", "af-J", "af-is", "H-af", "l-af", "r-af",
                       "af-af", "is-af"):
                model = KineticModel(tr, it)
                mom = legendre(model, params, config, vel)
                t_v = kinetic_energy(model, params, config, vel, per_body=True)
                t_p = kinetic_hamiltonian(model, params, config, mom, per_body=True)
                worst = max(worst, float(np.max(np.abs(t_p - t_v)
                                                / np.maximum(1.0, np.abs(t_v)))))
                back = inverse_legendre(model, params, config, mom)
                worst = max(worst, float(np.max(np.abs(back.v - vel.v))))
                worst = max(worst, float(np.max(np.abs(back.xi - vel.xi))))
    elapsed = time.perf_counter() - start
    record(1, worst <= 1e-10 and elapsed < 10.0,
           f"roundtrip max rel err {worst:.2e} (tol 1e-10), {elapsed:.1f} s (< 10 s)")


def test_criterion_2_invariance_suite():
    start = time.perf_counter()
    report = checks.invariance_suite(samples=200)
    elapsed = time.perf_counter() - start
    worst = max(c["max_error"] for c in report["checks"])
    record(2, report["passed"] and worst <= 1e-10 and elapsed < 30.0,
           f"{len(report['checks'])} invariance families, max err {worst:.2e} "
           f"(tol 1e-10), {elapsed:.1f} s (< 30 s)")


def test_criterion_3_poisson_structure():
    worst_struct = max(checks.gl_structure_error(2), checks.gl_structure_error(3))
    worst_commute = max(checks.sigma_sigma_hat_commute_error(2),
                        checks.sigma_sigma_hat_commute_error(3))
    record(3, worst_struct <= 1e-8 and worst_commute <= 1e-8,
           f"gl(n) structure err {worst_struct:.2e}, "
           f"Sigma/Sigma_hat commutation err {worst_commute:.2e} (tol 1e-8)")


def test_criterion_4_conservation(geodetic_run):
    start = time.perf_counter()
    _, traj = geodetic_run
    drifts = charge_drifts(traj)
    geo_ok = (drifts["energy"] <= 1e-8 and drifts["sigma_total"] <= 1e-8
              and drifts["sigma_hat_total"] <= 1e-8)

    model = KineticModel("dalembert", "dalembert")
    params = InertiaParams(M=1.0, J=np.eye(2))
    spec = PotentialSpec(one_body=(InvariantTerm(a=1, fn=HarmonicFn(0.5, 2.0)),))
    s = parse_scenario(bundled_scenario_path("dalembert_free_internal"))
    traj2 = integrate(model, params, spec, s.initial_state(), dt=1e-3, T=10.0)
    spin_drift = relative_drift(traj2.charges.spin.sum(axis=1))
    elapsed = time.perf_counter() - start
    record(4, geo_ok and spin_drift <= 1e-8 and elapsed < 60.0,
           f"geodetic drifts H {drifts['energy']:.1e}, Sigma {drifts['sigma_total']:.1e}, "
           f"SigmaHat {drifts['sigma_hat_total']:.1e}; spin drift under invariant "
           f"potential {spin_drift:.1e} (tol 1e-8), {elapsed:.0f} s (< 60 s)")


def test_criterion_5_dilatational_behavior(geodetic_run):
    s, traj = geodetic_run
    lndet = np.log(traj.charges.det_phi[:, 0])
    t = traj.times
    tc = tilde_constants(0.0, s.params.A, s.params.B, 2)
    sig0 = traj.phi[0, 0] @ traj.pi[0, 0]
    slope_expected = float(np.trace(tc.recip_A * sig0
                                    + tc.recip_B * np.trace(sig0) * np.eye(2)))
    fit = np.polyfit(t, lndet, 1)
    residual = float(np.max(np.abs(lndet - (fit[0] * t + fit[1]))))
    linear_ok = residual <= 1e-8 and abs(fit[0] - slope_expected) <= 1e-7

    stab = parse_scenario(bundled_scenario_path("afaf_dilatation_stabilized"))
    traj_s = integrate(stab.model, stab.params, stab.potential, stab.initial_state(),
                       dt=stab.dt, T=stab.T, method=stab.method)
    lndet_s = np.log(traj_s.charges.det_phi[:, 0])
    dln = np.diff(lndet_s)
    dln = dln[np.abs(dln) > 1e-14]
    sign_changes = int(np.sum(np.abs(np.diff(np.sign(dln))) > 1))
    stab_ok = sign_changes >= 3 and float(np.max(np.abs(lndet_s))) <= 2.0

    pair = parse_scenario(bundled_scenario_path("two_body_affine_pair"))
    traj_p = integrate(pair.model, pair.params, pair.potential, pair.initial_state(),
                       dt=pair.dt, T=pair.T, method=pair.method)
    det1 = traj_p.charges.det_phi[:, 0]
    det2 = traj_p.charges.det_phi[:, 1]
    ln_gamma = np.log(det2 / det1)
    pair_ok = (float(np.max(np.abs(ln_gamma))) <= 3.0
               and abs(np.log(det1[-1])) >= 1.0 and abs(np.log(det2[-1])) >= 1.0)

    record(5, linear_ok and stab_ok and pair_ok,
           f"free lndet slope {fit[0]:.6f} vs TrOmega(0) {slope_expected:.6f}, "
           f"fit residual {residual:.1e} (tol 1e-8); stabilized run: "
           f"{sign_changes} derivative sign changes (>= 3), |lndet| <= "
           f"{np.max(np.abs(lndet_s)):.2f}; pair: |ln det Gamma| <= "
           f"{np.max(np.abs(ln_gamma)):.2f} while lndet drifts to "
           f"{np.log(det1[-1]):.2f} / {np.log(det2[-1]):.2f}")


def test_criterion_6_twopolar_measure():
    worst_fit = 0.0
    for n in (2, 3):
        report = measure_check_report(n, points=100, seed=10 + n)
        if report["exponent_e"] != 1:
            record(6, False, f"sinh exponent came out {report['exponent_e']} at n={n}")
        worst_fit = max(worst_fit, report["max_rel_err"],
                        abs(report["constant_c"] / report["expected_constant"] - 1.0))
    invariance = checks._haar_invariance_error(samples=100, seed=61)
    record(6, worst_fit <= 1e-6 and invariance <= 1e-12,
           f"oracle match over 100 points, n in {{2,3}}: exponent 1, "
           f"max rel err {worst_fit:.2e} (tol 1e-6); Haar invariance "
           f"identities {invariance:.2e} (machine precision)")


def test_criterion_7_qdesk():
    start = time.perf_counter()
    grid = QGrid(q_min=-10.0, q_max=10.0, m=4000, hbar=1.0, alpha_eff=1.0)
    energies, _ = solve_spectrum(build_hamiltonian_1d(grid, lambda q: 0.5 * q * q), 5)
    exact = np.arange(5) + 0.5
    level_err = float(np.max(np.abs(energies - exact) / exact))
    sigma_defect = hermiticity_check(grid, "Sigma", "haar")
    corrected_defect = hermiticity_check(grid, "Sigma_corrected", "lebesgue")
    psi = gaussian_packet(grid, center=0.0, width=1.0)
    shift_err = max(shift_action_check(0.3, psi), shift_action_check(-0.45, psi))
    elapsed = time.perf_counter() - start
    ok = (level_err <= 1e-4 and sigma_defect <= 1e-10
          and corrected_defect <= 1e-10 and shift_err <= 1e-6 and elapsed < 30.0)
    record(7, ok,
           f"harmonic levels rel err {level_err:.2e} (tol 1e-4); Hermiticity "
           f"defects Haar {sigma_defect:.1e}, corrected Lebesgue "
           f"{corrected_defect:.1e} (tol 1e-10); shift identity {shift_err:.1e} "
           f"(tol 1e-6); {elapsed:.1f} s (< 30 s)")


def test_criterion_8_determinism(tmp_path, child_env):
    src = json.loads(bundled_scenario_path("two_body_affine_pair").read_text())
    src["integrator"]["T"] = 0.05
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(src))
    digests = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        proc = subprocess.run(
            [sys.executable, "-m", "affinekit.cli", "run", str(scenario_path),
             "--out", str(out)],
            capture_output=True, text=True, timeout=300, env=child_env)
        assert proc.returncode == 0, proc.stderr
        digests.append(tuple((out / name).read_bytes()
                             for name in ("trajectory.csv", "charges.csv", "summary.json")))
    record(8, digests[0] == digests[1],
           "two CLI runs with the same seed produced byte-identical "
           "trajectory.csv, charges.csv and summary.json")
