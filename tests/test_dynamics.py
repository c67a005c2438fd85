import re
from contextlib import contextmanager

import numpy as np
import pytest

from affinekit.dynamics import (PhaseState, hamilton_rhs, integrate,
                                noether_charges, poisson_bracket,
                                sigma_component, sigma_hat_component,
                                total_energy)
from affinekit.kinematics import SystemConfig
from affinekit.kinetics import InertiaParams, KineticModel, MomentumState
from affinekit.potentials import (BinaryTerm, DilatationTerm, HarmonicFn,
                                  InvariantTerm, LennardJonesFn, LogHarmonicFn,
                                  PolyFn, PotentialSpec, TranslationalHarmonic)
from affinekit.runner import charge_drifts, relative_drift

FREE = PotentialSpec()


def phase_state(x, phi, p, pi):
    return PhaseState(config=SystemConfig(x=np.asarray(x, float)[None],
                                          phi=np.asarray(phi, float)[None]),
                      mom=MomentumState(p=np.asarray(p, float)[None],
                                        pi=np.asarray(pi, float)[None]))


def random_phase(rng, n, N=1, scale=0.6):
    phi = np.stack([np.eye(n) + 0.3 * rng.uniform(-1, 1, (n, n)) for _ in range(N)])
    for K in range(N):
        while np.linalg.det(phi[K]) < 0.3:
            phi[K] = np.eye(n) + 0.3 * rng.uniform(-1, 1, (n, n))
    return PhaseState(
        config=SystemConfig(x=rng.uniform(-1, 1, (N, n)), phi=phi),
        mom=MomentumState(p=scale * rng.uniform(-1, 1, (N, n)),
                          pi=scale * rng.uniform(-1, 1, (N, n, n))))


# ---------------------------------------------------------------------------
# right-hand side

def test_free_particle_rhs():
    model = KineticModel("dalembert", "dalembert")
    params = InertiaParams(M=2.0, J=np.eye(2))
    s = phase_state([0.0, 0.0], np.eye(2), [3.0, 1.0], np.zeros((2, 2)))
    d = hamilton_rhs(model, params, FREE, s)
    np.testing.assert_allclose(d.x_dot, [[1.5, 0.5]])
    np.testing.assert_allclose(d.p_dot, 0.0)
    np.testing.assert_allclose(d.pi_dot, 0.0)


def test_dalembert_geodetic_internal_motion_is_linear(rng):
    """pi stays constant, so phi(t) is affine-linear in t."""
    model = KineticModel("dalembert", "dalembert")
    params = InertiaParams(M=1.0, J=np.diag([2.0, 1.0]))
    pi0 = rng.uniform(-0.3, 0.3, (2, 2))
    s0 = phase_state([0.0, 0.0], np.eye(2), [0.0, 0.0], pi0)
    T = 0.8
    traj = integrate(model, params, FREE, s0, dt=1e-3, T=T)
    xi = pi0.T @ np.linalg.inv(np.diag([2.0, 1.0]))
    expected = np.eye(2) + T * xi
    np.testing.assert_allclose(traj.phi[-1, 0], expected, atol=1e-10)
    np.testing.assert_allclose(traj.pi[-1, 0], pi0, atol=1e-12)


@pytest.mark.parametrize("tr,it", [("dalembert", "is-af"), ("af-is", "af-af"),
                                   ("dalembert", "af-J"), ("af-is", "af-is")])
def test_rhs_matches_finite_differences_of_h(tr, it, rng):
    from affinekit.dynamics import _pack, _unpack

    model = KineticModel(tr, it)
    params = InertiaParams(M=1.4, J=np.diag([2.0, 1.0]), I=2.0, A=1.0, B=1.0)
    spec = PotentialSpec(
        one_body=(TranslationalHarmonic(stiffness=0.6),
                  InvariantTerm(a=1, fn=HarmonicFn(stiffness=0.3, center=2.0))),
        dil=DilatationTerm(kappa=0.5))
    s = random_phase(rng, 2)
    d = hamilton_rhs(model, params, spec, s)
    z = _pack(s)
    ham = lambda zz: total_energy(model, params, spec, _unpack(zz, 1, 2, 0.0))
    num = np.zeros_like(z)
    for i in range(len(z)):
        h = 1e-6 * max(1.0, abs(z[i]))
        zp = z.copy(); zp[i] += h
        zm = z.copy(); zm[i] -= h
        num[i] = (ham(zp) - ham(zm)) / (2 * h)
    dHdx = num[:2]
    dHdphi = num[2:6].reshape(2, 2)
    dHdp = num[6:8]
    dHdpi = num[8:].reshape(2, 2)
    np.testing.assert_allclose(d.x_dot[0], dHdp, atol=1e-6)
    np.testing.assert_allclose(d.phi_dot[0], dHdpi.T, atol=1e-6)
    np.testing.assert_allclose(d.p_dot[0], -dHdx, atol=1e-6)
    np.testing.assert_allclose(d.pi_dot[0], -dHdphi.T, atol=1e-6)


# ---------------------------------------------------------------------------
# integration

def test_harmonic_oscillator_period():
    """Period of the translational oscillator to 1e-4 over ten periods."""
    model = KineticModel("dalembert", "dalembert")
    M, k = 2.0, 1.0
    params = InertiaParams(M=M, J=np.eye(2))
    spec = PotentialSpec(one_body=(TranslationalHarmonic(stiffness=k),))
    s0 = phase_state([1.0, 0.0], np.eye(2), [0.0, 0.0], np.zeros((2, 2)))
    period = 2.0 * np.pi * np.sqrt(M / k)
    traj = integrate(model, params, spec, s0, dt=1e-2, T=10 * period + 0.5)
    x = traj.x[:, 0, 0]
    t = traj.times
    idx = np.where((x[:-1] < 0) & (x[1:] >= 0))[0]
    crossings = t[idx] - x[idx] * (t[idx + 1] - t[idx]) / (x[idx + 1] - x[idx])
    measured = np.mean(np.diff(crossings))
    assert abs(measured - period) / period <= 1e-4
    assert charge_drifts(traj)["energy"] <= 1e-8


def test_afaf_geodetic_energy_and_spin_drift():
    model = KineticModel("dalembert", "af-af")
    params = InertiaParams(M=1.0, A=1.0, B=1.0)
    s0 = phase_state([0.0, 0.0], np.eye(2), [0.0, 0.0],
                     [[0.55, 0.1], [-0.05, 0.5]])
    traj = integrate(model, params, FREE, s0, dt=1e-3, T=2.0)
    drifts = charge_drifts(traj)
    assert drifts["energy"] <= 1e-8
    assert drifts["sigma_total"] <= 1e-8
    assert drifts["sigma_hat_total"] <= 1e-8


def test_rk4_order_of_convergence():
    """Halving dt cuts the rk4 global error by about sixteen."""
    model = KineticModel("dalembert", "dalembert")
    params = InertiaParams(M=2.0, J=np.eye(2))
    spec = PotentialSpec(one_body=(TranslationalHarmonic(stiffness=1.0),))
    s0 = phase_state([1.0, 0.0], np.eye(2), [0.0, 0.0], np.zeros((2, 2)))
    omega = np.sqrt(0.5)

    def final_error(dt):
        traj = integrate(model, params, spec, s0, dt=dt, T=2.0, method="rk4")
        return abs(traj.x[-1, 0, 0] - np.cos(omega * traj.times[-1]))

    ratio = final_error(0.02) / final_error(0.01)
    assert 12.0 <= ratio <= 20.0


def test_zero_length_run():
    model = KineticModel("dalembert", "dalembert")
    params = InertiaParams(M=1.0, J=np.eye(2))
    s0 = phase_state([0.3, 0.1], np.eye(2), [0.2, 0.0], np.zeros((2, 2)))
    traj = integrate(model, params, FREE, s0, dt=1e-3, T=0.0)
    assert len(traj.z) == 1
    np.testing.assert_allclose(traj.x[0], s0.config.x)
    assert not traj.aborted


def test_sampling_includes_final_time():
    model = KineticModel("dalembert", "dalembert")
    params = InertiaParams(M=1.0, J=np.eye(2))
    s0 = phase_state([0.0, 0.0], np.eye(2), [1.0, 0.0], np.zeros((2, 2)))
    traj = integrate(model, params, FREE, s0, dt=0.3, T=1.0)
    assert abs(traj.times[-1] - 1.0) <= 1e-12
    np.testing.assert_allclose(np.diff(traj.times)[:-1], 0.3, atol=1e-12)


def test_det_floor_aborts_with_partial_trajectory():
    """A collapsing configuration flags the trajectory instead of raising."""
    from affinekit.errors import StateInvalid

    model = KineticModel("dalembert", "dalembert")
    params = InertiaParams(M=1.0, J=np.eye(2))
    s0 = phase_state([0.0, 0.0], np.eye(2), [0.0, 0.0], -np.eye(2))
    traj = integrate(model, params, FREE, s0, dt=0.01, T=2.0)
    assert traj.aborted
    assert "det phi" in traj.abort_reason
    assert 0.9 <= traj.times[-1] <= 1.0
    assert len(traj.z) == len(traj.times)
    with pytest.raises(StateInvalid):
        traj.require_complete()


def test_singular_midpoint_evaluation_aborts():
    """When a fixed-point iterate needs the rhs exactly on the singular cone,
    the run is flagged rather than crashing: dt = 2 puts the first midpoint
    evaluation of this collapsing body at the zero matrix."""
    model = KineticModel("dalembert", "dalembert")
    params = InertiaParams(M=1.0, J=np.eye(2))
    s0 = phase_state([0.0, 0.0], np.eye(2), [0.0, 0.0], -np.eye(2))
    traj = integrate(model, params, FREE, s0, dt=2.0, T=2.0)
    assert traj.aborted
    assert traj.abort_kind == "SingularInput"
    assert len(traj.z) == 1


def test_midpoint_divergence_aborts():
    """dt = 10 in a stiff well: the first one-step block runs 50 sweeps
    without converging, and the run aborts at its initial sample."""
    model = KineticModel("dalembert", "dalembert")
    params = InertiaParams(M=2.0, J=np.eye(2))
    spec = PotentialSpec(one_body=(TranslationalHarmonic(stiffness=1.0),))
    s0 = phase_state([1.0, 0.0], np.eye(2), [0.0, 0.0], np.zeros((2, 2)))
    with _recorded_blocks() as calls:
        traj = integrate(model, params, spec, s0, dt=10.0, T=20.0)
    assert traj.aborted and traj.abort_kind == "IterationDiverged"
    assert re.fullmatch(r"implicit midpoint residual \S+ > 1e-12 after 50 iterations",
                        traj.abort_reason)
    assert len(traj.times) == 1 and traj.rhs_calls == 50
    assert [(len(hs), step.z is None) for _, hs, _, step in calls] == [(1, True)]


# ---------------------------------------------------------------------------
# Poisson brackets

def test_canonical_bracket_x_p(rng):
    s = random_phase(rng, 2)

    def x0(state):
        return float(state.config.x[0, 0])

    def p0(state):
        return float(state.mom.p[0, 0])

    assert abs(poisson_bracket(x0, p0, s) - 1.0) <= 1e-9
    assert abs(poisson_bracket(p0, x0, s) + 1.0) <= 1e-9
    assert abs(poisson_bracket(x0, x0, s)) <= 1e-12


def test_gl_structure_constants(rng):
    """{Sigma_ab, Sigma_cd} = delta_ad Sigma_cb - delta_cb Sigma_ad, the sign
    fixed by exact differentiation of Sigma = phi pi."""
    for n in (2, 3):
        s = random_phase(rng, n)
        sig = s.config.phi[0] @ s.mom.pi[0]
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    for d in range(n):
                        num = poisson_bracket(sigma_component(0, a, b),
                                              sigma_component(0, c, d), s)
                        exact = (sig[c, b] if a == d else 0.0) \
                            - (sig[a, d] if c == b else 0.0)
                        assert abs(num - exact) <= 1e-8


def test_sigma_sigma_hat_commute(rng):
    for n in (2, 3):
        s = random_phase(rng, n)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    for d in range(n):
                        val = poisson_bracket(sigma_component(0, a, b),
                                              sigma_hat_component(0, c, d), s)
                        assert abs(val) <= 1e-8


def test_numeric_bracket_agrees_with_analytic_gradients(rng):
    """The finite-difference path matches the registered analytic gradients."""
    s = random_phase(rng, 2)
    f = sigma_component(0, 0, 1)
    g = sigma_component(0, 1, 0)
    analytic = poisson_bracket(f, g, s)
    f_plain = lambda state: float(state.config.phi[0][0] @ state.mom.pi[0][:, 1])
    g_plain = lambda state: float(state.config.phi[0][1] @ state.mom.pi[0][:, 0])
    numeric = poisson_bracket(f_plain, g_plain, s)
    assert abs(analytic - numeric) <= 1e-9


SPINS = {"sigma": sigma_component, "sigma_hat": sigma_hat_component}
PAIRINGS = [(f, g) for f in SPINS for g in SPINS]


@pytest.mark.parametrize("n,N,K", [(2, 1, 0), (3, 1, 0), (2, 3, 1), (2, 3, 2),
                                   (3, 3, 1), (3, 3, 2)])
def test_bracket_tables_equal_the_component_brackets(rng, n, N, K):
    """One bracket of stacked components is the table of the per-component
    brackets, entry for entry and bit for bit, for every pairing of spins."""
    s = random_phase(rng, n, N)
    a, b, c, d = np.indices((n,) * 4)
    for f, g in PAIRINGS:
        table = poisson_bracket(SPINS[f](K, a, b), SPINS[g](K, c, d), s)
        assert table.shape == (n,) * 4
        for idx in np.ndindex(table.shape):
            single = poisson_bracket(SPINS[f](K, *idx[:2]), SPINS[g](K, *idx[2:]), s)
            assert type(single) is float
            assert table[idx] == single, (f, g, idx)


@pytest.mark.parametrize("n", [2, 3])
def test_brackets_of_different_bodies_vanish(rng, n):
    """Spins of different bodies depend on disjoint phase variables."""
    s = random_phase(rng, n, N=3)
    a, b, c, d = np.indices((n,) * 4)
    for K, L in [(0, 1), (1, 2), (2, 0)]:
        for f, g in PAIRINGS:
            assert not np.any(poisson_bracket(SPINS[f](K, a, b), SPINS[g](L, c, d), s)), \
                (f, g, K, L)


def test_numeric_gradient_of_another_body_agrees_with_analytic(rng):
    """At body 2 of 3, a finite-difference component bracketed with an
    analytic one agrees with the analytic pair, so the analytic gradient sits
    in the body's own slots."""
    s = random_phase(rng, 3, N=3)
    sig_10 = lambda state: float(state.config.phi[2][1] @ state.mom.pi[2][:, 0])
    hat_21 = lambda state: float(state.mom.pi[2][2] @ state.config.phi[2][:, 1])
    for F, G, G_plain in [
            (sigma_component(2, 0, 1), sigma_component(2, 1, 0), sig_10),
            (sigma_component(2, 1, 2), sigma_hat_component(2, 2, 1), hat_21),
            (sigma_hat_component(2, 0, 2), sigma_hat_component(2, 2, 1), hat_21)]:
        analytic = poisson_bracket(F, G, s)
        assert abs(poisson_bracket(F, G_plain, s) - analytic) <= 1e-9
        assert abs(poisson_bracket(G_plain, F, s) + analytic) <= 1e-9


def _closure_gradient(K, a, b, hat, state):
    """Reference Sigma (hat False) and Sigma_hat (hat True) gradients, written
    out row by row and column by column for one component."""
    N, n = state.N, state.n
    phi, pi = state.config.phi[K], state.mom.pi[K]
    dphi, dpi = np.zeros((N, n, n)), np.zeros((N, n, n))
    if hat:
        dpi[K, a, :] = phi[:, b]
        dphi[K, :, b] = pi[a]
    else:
        dphi[K, a, :] = pi[:, b]
        dpi[K, :, b] = phi[a]
    return np.zeros((N, n)), dphi, np.zeros((N, n)), dpi


@pytest.mark.parametrize("n,N", [(2, 1), (3, 1), (2, 3), (3, 3)])
def test_spin_gradients_at_scalar_indices_equal_the_closures(rng, n, N):
    s = random_phase(rng, n, N)
    for K in range(N):
        for a in range(n):
            for b in range(n):
                for hat, spin in [(False, sigma_component), (True, sigma_hat_component)]:
                    got = spin(K, a, b).phase_gradient(s)
                    for block, ref in zip(got, _closure_gradient(K, a, b, hat, s)):
                        assert block.shape == ref.shape
                        assert np.array_equal(block, ref)


# ---------------------------------------------------------------------------
# Noether charges

def test_charges_at_identity_configuration(rng):
    pi = rng.uniform(-1, 1, (1, 2, 2))
    s = PhaseState(config=SystemConfig(x=np.zeros((1, 2)), phi=np.eye(2)[None]),
                   mom=MomentumState(p=np.zeros((1, 2)), pi=pi))
    c = noether_charges(s)
    np.testing.assert_allclose(c.sigma_total, pi[0], atol=1e-14)
    np.testing.assert_allclose(c.sigma_hat_total, pi[0], atol=1e-14)


def test_skew_charges_are_skew(rng):
    s = random_phase(rng, 3, N=2)
    c = noether_charges(s)
    for K in range(2):
        np.testing.assert_allclose(c.spin[K], -c.spin[K].T, atol=1e-15)
        np.testing.assert_allclose(c.vorticity[K], -c.vorticity[K].T, atol=1e-15)
    np.testing.assert_allclose(c.j_total, c.lambda_total + c.sigma_total, atol=1e-14)


def test_charge_record_consistency_with_snapshots(rng):
    model = KineticModel("dalembert", "af-af")
    params = InertiaParams(M=1.0, A=1.0, B=1.0)
    s0 = phase_state([0.1, 0.0], np.eye(2), [0.2, 0.0], [[0.4, 0.1], [0.0, 0.3]])
    traj = integrate(model, params, FREE, s0, dt=1e-2, T=0.2)
    for k in range(len(traj.times)):
        state = traj.state(k)
        again = noether_charges(state, energy=total_energy(model, params, FREE, state))
        np.testing.assert_allclose(traj.charges.sigma_total[k], again.sigma_total, atol=1e-14)
        assert abs(traj.charges.energy[k] - again.energy) <= 1e-14
        np.testing.assert_allclose(traj.charges.det_phi[k], again.det_phi, atol=1e-14)
    assert np.all(np.diff(traj.times) > 0)


# ---------------------------------------------------------------------------
# Noether ladder

def test_isaf_geodetic_conserves_spin_and_sigma_hat(rng):
    """Spatially isometric + materially affine kinetic energy: S and every
    component of total Sigma_hat stay put."""
    model = KineticModel("dalembert", "is-af")
    params = InertiaParams(M=1.0, I=2.0, A=1.0, B=1.0)
    s0 = random_phase(rng, 2, scale=0.4)
    traj = integrate(model, params, FREE, s0, dt=1e-3, T=3.0)
    spin = traj.charges.spin.sum(axis=1)
    sig_hat = traj.charges.sigma_hat_total
    assert relative_drift(spin) <= 1e-8
    assert relative_drift(sig_hat) <= 1e-8


def test_afis_geodetic_conserves_sigma(rng):
    """Spatially affine-invariant kinetic energy conserves every component of
    the internal Sigma when the translational sector is quiet; with p active
    the conserved charge is the full generator J = Lambda + Sigma."""
    model = KineticModel("af-is", "af-is")
    params = InertiaParams(M=1.0, I=2.0, A=1.0, B=1.0)
    quiet = random_phase(rng, 2, scale=0.4)
    quiet = PhaseState(config=quiet.config,
                       mom=MomentumState(p=np.zeros((1, 2)), pi=quiet.mom.pi))
    traj = integrate(model, params, FREE, quiet, dt=1e-3, T=3.0)
    sig = traj.charges.sigma_total
    vor = traj.charges.vorticity.sum(axis=1)
    assert relative_drift(sig) <= 1e-8
    assert relative_drift(vor) <= 1e-8

    active = random_phase(rng, 2, scale=0.4)
    traj = integrate(model, params, FREE, active, dt=1e-3, T=3.0)
    jtot = traj.charges.j_total
    assert relative_drift(jtot) <= 1e-8


def test_dalembert_with_invariant_potential_conserves_spin(rng):
    """Spatial rotations conserve S; with isotropic J the material rotations
    survive too and conserve the vorticity V."""
    model = KineticModel("dalembert", "dalembert")
    params = InertiaParams(M=1.0, J=np.eye(2))
    spec = PotentialSpec(one_body=(InvariantTerm(a=1, fn=HarmonicFn(0.5, 2.0)),))
    s0 = random_phase(rng, 2, scale=0.4)
    traj = integrate(model, params, spec, s0, dt=1e-3, T=3.0)
    spin = traj.charges.spin.sum(axis=1)
    vorticity = traj.charges.vorticity.sum(axis=1)
    assert relative_drift(spin) <= 1e-8
    assert relative_drift(vorticity) <= 1e-8


def test_trace_free_geodetic_exploration():
    """Exploratory, not an asserted claim: af-af geodesics started with
    Tr Omega = 0 keep det phi fixed while the log-deformation spread q1 - q2
    either grows without bound (real gyration spectrum) or stays bounded
    (complex spectrum) - both branches exist in the general solution."""
    model = KineticModel("dalembert", "af-af")
    params = InertiaParams(M=1.0, A=1.0, B=1.0)
    branches = {
        "hyperbolic": np.array([[0.25, 0.1], [0.05, -0.25]]),
        "oscillatory": np.array([[0.1, 0.5], [-0.5, -0.1]]),
    }
    spreads = {}
    for name, om0 in branches.items():
        sig0 = om0 + np.trace(om0) * np.eye(2)
        s0 = phase_state([0.0, 0.0], np.eye(2), [0.0, 0.0], sig0)
        traj = integrate(model, params, FREE, s0, dt=2e-3, T=20.0)
        assert not traj.aborted
        lndet = np.log(traj.charges.det_phi[:, 0])
        np.testing.assert_allclose(lndet, 0.0, atol=1e-9)
        spread = traj.charges.q_log[:, 0, 0] - traj.charges.q_log[:, 0, 1]
        assert np.all(np.isfinite(spread))
        spreads[name] = spread
        print(f"incompressible geodesic ({name}): q1 - q2 in "
              f"[{spread.min():.3f}, {spread.max():.3f}] over T = 20")
    # sanity of the monitoring itself, not of any boundedness claim
    assert spreads["hyperbolic"].max() > 2.0 * spreads["oscillatory"].max()


def test_bundled_scenarios_conserve_energy():
    """Implicit midpoint keeps the relative energy drift at or below 1e-8 on
    every bundled dynamics scenario over dt = 1e-3, T = 10."""
    from affinekit.scenario import bundled_scenario_path, parse_scenario

    for name in ("harmonic_oscillator", "dalembert_free_internal",
                 "afaf_geodetic_gl2", "afaf_dilatation_stabilized",
                 "two_body_affine_pair"):
        s = parse_scenario(bundled_scenario_path(name))
        traj = integrate(s.model, s.params, s.potential, s.initial_state(),
                         dt=1e-3, T=10.0)
        drift = charge_drifts(traj)["energy"]
        assert drift <= 1e-8, f"{name}: energy drift {drift:.2e}"


def test_binary_potential_conserves_total_sigma_hat(rng):
    """A purely affine pair potential keeps the materially affine symmetry of
    the is-af kinetic energy intact."""
    model = KineticModel("dalembert", "is-af")
    params = InertiaParams(M=1.0, I=3.0, A=1.0, B=1.0)
    spec = PotentialSpec(binary=(BinaryTerm(arg="Mbar:1", fn=HarmonicFn(0.5, 2.0)),
                                 BinaryTerm(arg="Mbar:2", fn=HarmonicFn(0.5, 2.0))))
    s0 = random_phase(rng, 2, N=2, scale=0.3)
    traj = integrate(model, params, spec, s0, dt=1e-3, T=3.0)
    # material action is diagonal across bodies: only the TOTAL is conserved
    sig_hat = traj.charges.sigma_hat_total
    assert relative_drift(sig_hat) <= 1e-8


# ---------------------------------------------------------------------------
# compiled, body-batched evaluation

def per_body_params(n):
    """Three species with distinct inertia, one InertiaParams per body."""
    out = []
    for K, (M, I, A, B) in enumerate(((1.4, 2.0, 1.0, 1.0), (0.8, 3.0, 0.5, 0.8),
                                       (2.1, 2.5, -0.5, 0.4))):
        rng = np.random.default_rng(K)
        raw = rng.uniform(-1, 1, (n, n))
        spd = raw @ raw.T + n * np.eye(n)
        big = rng.uniform(-0.3, 0.3, (n * n, n * n))
        bilinear = big @ big.T + n * np.eye(n * n)
        out.append(InertiaParams(M=M, J=spd, I=I, A=A, B=B, H=spd + np.eye(n),
                                 Lten=bilinear, Rten=bilinear + np.eye(n * n)))
    return tuple(out)


PAIR_SPEC = PotentialSpec(
    one_body=(TranslationalHarmonic(stiffness=0.6),
              InvariantTerm(a=2, fn=HarmonicFn(stiffness=0.1, center=3.0))),
    binary=(BinaryTerm(arg="r", fn=HarmonicFn(stiffness=0.2, center=2.0)),
            BinaryTerm(arg="D", fn=HarmonicFn(stiffness=0.3, center=1.5)),
            BinaryTerm(arg="Mbar:1", fn=HarmonicFn(stiffness=0.5, center=3.0)),
            BinaryTerm(arg="Mbar:2", fn=HarmonicFn(stiffness=0.5, center=3.0)),
            BinaryTerm(arg="K:2", fn=HarmonicFn(stiffness=0.1, center=3.0))),
    dil=DilatationTerm(kappa=0.5))


@pytest.mark.parametrize("tr", ["dalembert", "af-is"])
@pytest.mark.parametrize("it", ["dalembert", "af-J", "af-is", "H-af", "l-af", "r-af",
                                "af-af", "is-af"])
def test_rhs_matches_finite_differences_of_h_three_bodies(tr, it, rng):
    """Per-body inertia and three pairs: every block of the batched rhs
    against central differences of total_energy."""
    from affinekit.dynamics import _pack, _unpack

    n, N = 3, 3
    model = KineticModel(tr, it)
    params = per_body_params(n)
    s = random_phase(rng, n, N=N)
    s = PhaseState(config=SystemConfig(x=s.config.x + 2.0 * np.eye(N, n), phi=s.config.phi),
                   mom=s.mom)
    d = hamilton_rhs(model, params, PAIR_SPEC, s)
    z = _pack(s)
    num = np.zeros_like(z)
    for i in range(len(z)):
        h = 1e-6 * max(1.0, abs(z[i]))
        zp = z.copy(); zp[i] += h
        zm = z.copy(); zm[i] -= h
        num[i] = (total_energy(model, params, PAIR_SPEC, _unpack(zp, N, n, 0.0))
                  - total_energy(model, params, PAIR_SPEC, _unpack(zm, N, n, 0.0))) / (2 * h)
    gx, gphi, gp, gpi = np.split(num, np.cumsum([N * n, N * n * n, N * n]))
    expected = np.concatenate([gp, np.transpose(gpi.reshape(N, n, n), (0, 2, 1)).ravel(),
                               -gx, -np.transpose(gphi.reshape(N, n, n), (0, 2, 1)).ravel()])
    got = np.concatenate([d.x_dot.ravel(), d.phi_dot.ravel(), d.p_dot.ravel(),
                          d.pi_dot.ravel()])
    assert np.max(np.abs(got - expected)) <= 1e-6 * (1.0 + np.max(np.abs(expected)))


def test_singular_last_body_raises_inside_a_batch(rng):
    from affinekit.errors import SingularInput

    s = random_phase(rng, 3, N=3)
    phi = s.config.phi.copy()
    phi[2] = np.diag([1.0, 1.0, 0.0])
    bad = PhaseState(config=SystemConfig(x=s.config.x, phi=phi), mom=s.mom)
    model = KineticModel("dalembert", "is-af")
    params = InertiaParams(M=1.0, I=2.0, A=1.0, B=1.0)
    with pytest.raises(SingularInput, match=r"phi\[2\]"):
        hamilton_rhs(model, params, PAIR_SPEC, bad)
    with pytest.raises(SingularInput, match=r"phi\[2\]"):
        total_energy(model, params, PAIR_SPEC, bad)


@pytest.mark.parametrize("kwargs,match", [
    ({"dt": 0.0}, "dt must be positive"),
    ({"dt": -0.1}, "dt must be positive"),
    ({"dt": np.inf}, "dt must be positive and finite"),
    ({"T": -1.0}, "T must be non-negative"),
    ({"T": np.nan}, "T must be non-negative and finite"),
    ({"method": "euler"}, "unknown method 'euler'"),
])
def test_integrate_rejects_bad_arguments(kwargs, match):
    model = KineticModel("dalembert", "dalembert")
    params = InertiaParams(M=1.0, J=np.eye(2))
    s0 = phase_state([0.0, 0.0], np.eye(2), [1.0, 0.0], np.zeros((2, 2)))
    with pytest.raises(ValueError, match=match):
        integrate(model, params, FREE, s0, **{"dt": 0.1, "T": 1.0, **kwargs})


def test_first_problem_reports_a_non_finite_sample_ahead_of_a_low_det_one():
    """Samples are scanned in order: a NaN at sample 2 is reported before the
    det phi at the floor of sample 3, and the low det alone after it."""
    from affinekit.dynamics import _first_problem, _pack, compile_system
    from affinekit.errors import StateInvalid

    model = KineticModel("dalembert", "dalembert")
    system = compile_system(model, InertiaParams(M=1.0, J=np.eye(2)), FREE, 2, 1)
    good = _pack(phase_state([0.0, 0.0], np.eye(2), [1.0, 0.0], np.zeros((2, 2))))
    low = _pack(phase_state([0.0, 0.0], np.diag([1.0, 1e-13]), [1.0, 0.0], np.zeros((2, 2))))
    nan = good.copy()
    nan[3] = np.nan
    for samples, k, reason in [([good, good, nan, low], 2, "non-finite phase-space entries"),
                               ([good, good, good, low], 3,
                                "det phi fell to 1.000e-13 (floor 1e-12)")]:
        bad, failure = _first_problem(system, np.stack(samples))
        assert (bad, type(failure), str(failure)) == (k, StateInvalid, reason)
    assert _first_problem(system, np.stack([good, good])) == (2, None)


def test_degenerate_metric_raises_at_compile_time():
    from affinekit.dynamics import compile_system
    from affinekit.errors import DegenerateMetric

    with pytest.raises(DegenerateMetric):
        compile_system(KineticModel("dalembert", "is-af"),
                       InertiaParams(M=1.0, I=1.0, A=1.0, B=0.5), PAIR_SPEC, 3, 4)


def test_compiled_system_matches_public_functions(rng):
    """rhs, energy and charges of the compiled form are the public results."""
    from affinekit.dynamics import _pack, compile_system

    model = KineticModel("af-is", "is-af")
    params = per_body_params(3)
    s = random_phase(rng, 3, N=3)
    system = compile_system(model, params, PAIR_SPEC, 3, 3)
    z = _pack(s)
    d = hamilton_rhs(model, params, PAIR_SPEC, s)
    np.testing.assert_array_equal(system.rhs(z), np.concatenate(
        [d.x_dot.ravel(), d.phi_dot.ravel(), d.p_dot.ravel(), d.pi_dot.ravel()]))
    energy = total_energy(model, params, PAIR_SPEC, s)
    assert system.energy(z) == energy
    record = system.charges(z)
    again = noether_charges(s, energy=energy)
    assert record.energy == again.energy
    for name in ("sigma_total", "sigma_hat_total", "j_total", "det_phi", "q_log"):
        np.testing.assert_array_equal(getattr(record, name), getattr(again, name))


def test_sample_times_are_multiples_of_dt():
    """Sample k sits at k dt exactly and the last sample at T, with no
    accumulated drift over 10k steps."""
    model = KineticModel("dalembert", "dalembert")
    params = InertiaParams(M=1.0, J=np.eye(2))
    s0 = phase_state([0.0, 0.0], np.eye(2), [1.0, 0.0], np.zeros((2, 2)))
    dt, T = 1e-3, 10.0
    traj = integrate(model, params, FREE, s0, dt=dt, T=T, method="rk4")
    assert len(traj.times) == 10_001
    assert traj.times[-1] == T
    np.testing.assert_array_equal(traj.times[:-1], np.arange(10_000) * dt)


def test_stacked_energy_equals_per_row_energies(rng):
    """An (S, D) stack evaluates H in one call, equal to the per-row values."""
    from affinekit.dynamics import _pack, compile_system

    for it in ("dalembert", "is-af", "l-af"):
        system = compile_system(KineticModel("af-is", it), per_body_params(3), PAIR_SPEC, 3, 3)
        z = np.stack([_pack(random_phase(rng, 3, N=3)) for _ in range(6)])
        z[:, :9] += 2.0 * np.eye(3).ravel()
        rows = np.array([system.energy(row) for row in z])
        stacked = system.energy(z)
        assert stacked.shape == (6,)
        np.testing.assert_allclose(stacked, rows, rtol=1e-15, atol=0)


# every pair channel and every scalar function kind, on arguments where each
# is differentiable: lj and harmonic_log on the positive r, D and K:1 channels
STACK_SPEC = PotentialSpec(
    one_body=(TranslationalHarmonic(stiffness=0.6, center=(0.1, -0.2, 0.3)),
              InvariantTerm(a=1, fn=LogHarmonicFn(stiffness=0.2, ref=3.0)),
              InvariantTerm(a=3, fn=PolyFn(coeffs=(0.0, 0.1, 0.02)))),
    binary=(BinaryTerm(arg="r", fn=LennardJonesFn(epsilon=0.05, sigma=1.0)),
            BinaryTerm(arg="D", fn=LogHarmonicFn(stiffness=0.3, ref=1.5)),
            BinaryTerm(arg="K:1", fn=LogHarmonicFn(stiffness=0.1, ref=2.0)),
            *(BinaryTerm(arg=f"K:{a}", fn=HarmonicFn(stiffness=0.1, center=3.0)) for a in (2, 3)),
            *(BinaryTerm(arg=f"Mbar:{a}", fn=PolyFn(coeffs=(0.0, 0.2, 0.05), shift=3.0))
              for a in (1, 2, 3))),
    dil=DilatationTerm(kappa=0.5))


def _stack(rng, n, N, S):
    """S phase vectors of N bodies with centers 2 apart along the diagonal."""
    from affinekit.dynamics import _pack

    z = np.stack([_pack(random_phase(rng, n, N=N)) for _ in range(S)])
    z[:, :N * n] += 2.0 * np.repeat(np.arange(N), n)
    return z


@pytest.mark.parametrize("N", [1, 3])
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per_body"])
@pytest.mark.parametrize("tr", ["dalembert", "af-is"])
@pytest.mark.parametrize("it", ["dalembert", "af-J", "af-is", "H-af", "l-af", "r-af",
                                "af-af", "is-af"])
def test_stacked_rhs_equals_per_row_rhs(rng, it, tr, shared, N):
    """An (S, D) stack, and an (S, 1, D) one, evaluate the RHS in one call,
    each row bit for bit the call on that row alone."""
    from affinekit.dynamics import compile_system

    params = per_body_params(3)
    system = compile_system(KineticModel(tr, it), params[0] if shared else params[:N],
                            STACK_SPEC, 3, N)
    z = _stack(rng, 3, N, 5)
    rows = np.stack([system.rhs(row) for row in z])
    np.testing.assert_array_equal(system.rhs(z), rows)
    np.testing.assert_array_equal(system.rhs(z[:, None]), rows[:, None])


def test_stacked_rhs_names_a_singular_member(rng):
    from affinekit.dynamics import _split, compile_system
    from affinekit.errors import SingularInput

    system = compile_system(KineticModel("dalembert", "is-af"),
                            InertiaParams(M=1.0, I=2.0, A=1.0, B=1.0), PAIR_SPEC, 3, 3)
    z = _stack(rng, 3, 3, 4)
    _split(z, 3, 3)[1][2, 1] = np.diag([1.0, 1.0, 0.0])
    with pytest.raises(SingularInput, match=r"phi\[2, 1\] is singular"):
        system.rhs(z)


@pytest.mark.parametrize("N", [1, 3])
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per_body"])
@pytest.mark.parametrize("n", [2, 3])
def test_velocity_and_force_are_the_halves_of_rhs(rng, n, shared, N):
    """For every translational x internal model, velocity and force read
    from and written to contiguous half arrays, as the midpoint sweep keeps
    them, are rhs bit for bit: on a stack, and on one row.  The force has
    every one-body, pair and dilatation channel."""
    from dataclasses import replace

    from affinekit.dynamics import _half_views, compile_system
    from affinekit.kinetics import INTERNAL_MODELS, TRANSLATIONAL_MODELS

    params = per_body_params(n)
    spec = STACK_SPEC if n == 3 else replace(STACK_SPEC, one_body=(
        TranslationalHarmonic(stiffness=0.6, center=(0.1, -0.2)), *STACK_SPEC.one_body[1:]))
    z = _stack(rng, n, N, 5)
    half = z.shape[-1] // 2
    for tr in TRANSLATIONAL_MODELS:
        for it in INTERNAL_MODELS:
            system = compile_system(KineticModel(tr, it), params[0] if shared else params[:N],
                                    spec, n, N)
            for at in (z, z[2]):
                q, m = (np.ascontiguousarray(a) for a in (at[..., :half], at[..., half:]))
                v, f = np.empty_like(q), np.empty_like(m)
                at_q, at_p = _half_views(q, N, n), _half_views(m, N, n)
                system.velocity(*at_q, *at_p, *_half_views(v, N, n))
                system.force(*at_q, *at_p, *_half_views(f, N, n))
                assert np.concatenate([v, f], axis=-1).tobytes() == system.rhs(at).tobytes(), \
                    (tr, it)


# sha256 of the 300-step rk4 run (z) of each bundled scenario and of
# hamilton_rhs, inverse_legendre and kinetic_phi_gradient at its initial
# state.  None of them goes through the midpoint sweep, so a change of the
# sweep alone must leave them as they are.
PUBLIC_PINS = {
    "harmonic_oscillator": (
        "bb5607f0a090c90dc00192e230df493dea1f13a09a0f10725a4afd09166fa2b9",
        "3f2a05e1afc93e384ae156c6fb2d9b6ff8ab3a40230dcbddac5d654367488f02",
        "17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1",
        "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925"),
    "dalembert_free_internal": (
        "1d86d6c817058ffc0cea2cd378a0a433768c9e14405d9b04f9ab645fbba9735c",
        "0230b1293866ecb6ed398275bc7e19c22b1ca4306fd2f2666c5ba8b1c186bf7d",
        "67b5388a59cf4f9ff41c093d8bfcb7f6003c9326cc822a36d6e8321f73072c26",
        "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925"),
    "afaf_geodetic_gl2": (
        "e3fda2271b32b6ec03d5b42c31adf3ff98565bc76018c6c0bd6dd12da7210f4b",
        "eb01abaf2cebc78d5d9b2a5f061317f7b77c6a2075177f2bc7b8a93de619cdd0",
        "8293c601279cc1b80fd55ad0e2731e3b319801b4fa5f02b539d07f74e3f79413",
        "f1669d721d2534339d492f9ca10e90cc13c0b4c9e1da52a017ab3a7329c01c00"),
    "afaf_dilatation_stabilized": (
        "7a1e3f9447c93bfb9ccd5383e5eed9ddefda77a75051004f3a75fd2e334be575",
        "dec2dea1dc4a39164f73400c62c822027ea133fbef8dbe1aab808965f1cc1e94",
        "e1d255a8a05ee9db0215eea8dd4a8ae3c42d477b98c49f8e017214e8a380ed60",
        "b9b0704aa3b18653ff1e049a005915d8762daaede2d66573305bdc226c6d9d07"),
    "two_body_affine_pair": (
        "66309221a58ff1ebe98b9bf4b1dd4fbbb7b6ed9cf89e55a3e64c55bbe998fd28",
        "eac8cfc633d123c9450445f0ef6af6a61a03aa28d78e6aa65c585f80efc3d636",
        "3c0e14603e4387dc96f9632f54ac0cd2452b8281513f74969fd47b0a5c8f099c",
        "311a6703862bffec4a87586a36e00f37998c3fa49ab5dd7d44bf56bef2bf566c"),
}


@pytest.mark.parametrize("name", PUBLIC_PINS)
def test_rk4_runs_and_public_rhs_keep_their_pinned_bytes(name):
    """rk4 and the public functions evaluate rhs, the inverse Legendre map
    and the kinetic force where the midpoint solver does not: their bytes
    on each bundled scenario, the three non-separable ones included, are
    pinned (sha256)."""
    import hashlib

    from affinekit.kinetics import inverse_legendre, kinetic_phi_gradient

    def sha(*arrays):
        return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes()
                                       for a in arrays)).hexdigest()

    s, s0, _ = _bundled_system(name)
    args = (s.model, s.params)
    traj = integrate(*args, s.potential, s0, dt=s.dt, T=300 * s.dt, method="rk4")
    assert not traj.aborted and traj.rhs_calls == 1200
    d = hamilton_rhs(*args, s.potential, s0)
    vel = inverse_legendre(*args, s0.config, s0.mom)
    assert (sha(traj.z), sha(d.x_dot, d.phi_dot, d.p_dot, d.pi_dot), sha(vel.v, vel.xi),
            sha(kinetic_phi_gradient(*args, s0.config, s0.mom))) == PUBLIC_PINS[name]


# ---------------------------------------------------------------------------
# start and stop of the midpoint solve

DYNAMIC_SCENARIOS = ("harmonic_oscillator", "dalembert_free_internal", "afaf_geodetic_gl2",
                     "afaf_dilatation_stabilized", "two_body_affine_pair")


def _bundled_system(name):
    from affinekit.dynamics import compile_system
    from affinekit.scenario import bundled_scenario_path, parse_scenario

    s = parse_scenario(bundled_scenario_path(name))
    s0 = s.initial_state()
    return s, s0, compile_system(s.model, s.params, s.potential, s0.n, s0.N)


def _reference_step(system, z, h):
    """The oracle of the tests below, written apart from the solver: one
    midpoint step from z, started from the explicit Euler predictor and
    iterated z1 <- z + h f((z + z1)/2) until the change is at most 1e-15 x
    max(1, max|z|) or stops shrinking, with no extrapolation and no
    contraction estimate.  Returns z1 and the RHS evaluations taken."""
    scale = max(1.0, np.max(np.abs(z)))
    z1, evals, prev = z + h * system.rhs(z), 1, np.inf
    for _ in range(100):
        new = z + h * system.rhs(0.5 * (z + z1))
        evals += 1
        change = np.max(np.abs(new - z1))
        z1 = new
        if change <= 1e-15 * scale or not change < prev:
            break
        prev = change
    return z1, evals


@contextmanager
def _recorded_blocks():
    """Record every block the midpoint solver is given while the context is
    open, as [samples, step lengths, carried theta, Step]."""
    from affinekit import dynamics

    calls, solve = [], dynamics._midpoint_window

    def recording(system, last, hs, theta=None, stride=1):
        calls.append([last.copy(), hs.copy(), theta, solve(system, last, hs, theta, stride)])
        return calls[-1][-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_midpoint_window", recording)
        yield calls


@pytest.mark.parametrize("name", DYNAMIC_SCENARIOS)
def test_extrapolated_start_lands_on_the_euler_start_fixed_point(name, monkeypatch):
    """Fifteen one-step blocks: integrate starts block k from the k + 1
    samples there are, up to five, and the contraction estimate carried from
    the blocks before.  From step 4 on, that solve ends where the reference
    step from Euler does, in fewer evaluations."""
    from affinekit import dynamics

    monkeypatch.setattr(dynamics, "_WINDOW_MAX_D", 0)
    s, s0, system = _bundled_system(name)
    with _recorded_blocks() as calls:
        traj = integrate(s.model, s.params, s.potential, s0, dt=s.dt, T=15 * s.dt)
    assert [len(last) for last, *_ in calls] == [1, 2, 3, 4] + [5] * 11
    assert all(len(hs) == 1 for _, hs, *_ in calls)
    for k in range(4, 14):
        last, hs, theta, step = calls[k]
        np.testing.assert_array_equal(last, traj.z[k - 4:k + 1])
        np.testing.assert_array_equal(step.z[0], traj.z[k + 1])
        reference, evals = _reference_step(system, traj.z[k], s.dt)
        assert np.max(np.abs(step.z[0] - reference)) \
            <= 1e-13 * max(1.0, np.max(np.abs(traj.z[k])))
        assert step.evals < evals


@pytest.mark.parametrize("T_steps", [1, 2, 3, 4, 5, 6, 40.5])
def test_short_and_cut_runs_match_an_euler_start_loop(T_steps):
    """Runs of 1-6 steps, where the history is short or absent, and a run
    whose last step is cut, follow the reference loop and keep their sample
    times.  Each block starts from the samples there are, up to five (at 6
    steps, a window of two); a cut last step starts from its last sample
    alone, a constant start whose first sweep is the Euler predictor."""
    from affinekit.dynamics import _pack

    s, s0, system = _bundled_system("two_body_affine_pair")
    dt = s.dt
    T = T_steps * dt
    with _recorded_blocks() as calls:
        traj = integrate(s.model, s.params, s.potential, s0, dt=dt, T=T)
    steps, full = int(np.ceil(T_steps)), int(T_steps)
    assert [len(last) for last, *_ in calls] \
        == [1, 2, 3, 4, 5][:full] + [1] * (steps - full)
    assert sum(len(hs) for _, hs, *_ in calls) == steps
    assert len(traj.times) == steps + 1
    np.testing.assert_array_equal(traj.times[:-1], np.arange(steps) * dt)
    assert traj.times[-1] == T
    z = _pack(s0)
    for k in range(steps):
        z = _reference_step(system, z, T - (steps - 1) * dt if k == steps - 1 else dt)[0]
        np.testing.assert_allclose(traj.z[k + 1], z, rtol=0, atol=1e-13)


def _scenario(bodies, potential, dt, steps, internal="dalembert", inertia=None):
    """A dalembert-translational scenario of the given bodies, n from them."""
    from affinekit.scenario import scenario_from_dict

    n = len(bodies[0]["x"])
    return scenario_from_dict({
        "schema_version": 1, "n": n, "N": len(bodies),
        "kinetic": {"translational": "dalembert", "internal": internal},
        "inertia": inertia or {"M": 1.0, "J": np.eye(n).tolist()},
        "potential": potential, "initial": {"bodies": bodies},
        "integrator": {"dt": dt, "T": steps * dt}})


def _body(pi, x=(0.0, 0.0), phi=((1.0, 0.0), (0.0, 1.0)), p=(0.0, 0.0)):
    return {"x": list(x), "phi": [list(r) for r in phi], "p": list(p),
            "pi": np.asarray(pi, float).tolist()}


def _separable_scenario(steps, body=None):
    """A dalembert/dalembert body in a harmonic well with an invariant term
    and a dilatation stabilizer: a separable H with a cheap RHS."""
    return _scenario(
        [body or _body([[0.06, -0.02], [0.03, -0.07]], x=(0.03, -0.06),
                       phi=((1.02, 0.04), (-0.05, 0.97)), p=(0.04, 0.01))],
        {"one_body": [{"kind": "harmonic_x", "stiffness": 1.0, "center": [0.0, 0.0]},
                      {"kind": "invariant", "a": 1,
                       "fn": {"kind": "harmonic", "stiffness": 0.5, "center": 2.0}}],
         "dilatation": {"kappa": 1.0, "d_ref": 1.0}}, dt=0.002, steps=steps)


def _drawn_body(seed=7):
    """A body drawn as the benchmark's long_stream draws its own: x, p and pi
    0.05 x standard normal entries, phi the identity plus such entries."""
    rng = np.random.default_rng(seed)
    x, phi = 0.05 * rng.standard_normal(2), np.eye(2) + 0.05 * rng.standard_normal((2, 2))
    p, pi = 0.05 * rng.standard_normal(2), 0.05 * rng.standard_normal((2, 2))
    return _body(pi, x=x.tolist(), phi=phi.tolist(), p=p.tolist())


def _pair_scenario(steps, n=3, N=8):
    """An is-af system of N bodies on a lattice with harmonic Mbar:1, Mbar:2
    and D pair terms, drawn from a fixed seed."""
    rng = np.random.default_rng(7)
    bodies = []
    for K in range(N):
        x = np.zeros(n)
        x[:2] = 2.0 * (K % 3), 2.0 * (K // 3)
        bodies.append({"x": (x + 0.05 * rng.standard_normal(n)).tolist(),
                       "phi": (np.eye(n) + 0.05 * rng.standard_normal((n, n))).tolist(),
                       "p": (0.05 * rng.standard_normal(n)).tolist(),
                       "pi": (0.05 * rng.standard_normal((n, n))).tolist()})
    binary = [{"arg": f"Mbar:{a}", "fn": {"kind": "harmonic", "stiffness": 0.5,
                                          "center": float(n)}} for a in (1, 2)]
    binary.append({"arg": "D", "fn": {"kind": "harmonic", "stiffness": 0.2, "center": 2.0}})
    return _scenario(bodies, {"binary": binary}, dt=0.01, steps=steps, internal="is-af",
                     inertia={"M": 1.0, "I": 6.0, "A": 1.0, "B": 1.0})


def _collapsing_scenario():
    """A body compressed isotropically against a dilatation stabilizer: det phi
    falls from 1 to about 8e-4 and back, and the contraction rate of the
    midpoint iteration grows about a hundredfold on the way down."""
    return _scenario([_body(-5.0 * np.eye(2))], {"dilatation": {"kappa": 1.0, "d_ref": 1.0}},
                     dt=1e-3, steps=500)


def _fixed_point_defects(s, traj):
    """rho_k = max|z_k + h f((z_k + z_{k+1})/2) - z_{k+1}| / max(1, max|z_k|)
    of every step, with h the step integrate took."""
    from affinekit.dynamics import compile_system

    system = compile_system(s.model, s.params, s.potential, s.n, s.N)
    steps = len(traj.z) - 1
    rho = np.empty(steps)
    for k, (z, z1) in enumerate(zip(traj.z[:-1], traj.z[1:])):
        h = s.T - (steps - 1) * s.dt if k == steps - 1 else s.dt
        rho[k] = np.max(np.abs(z + h * system.rhs(0.5 * (z + z1)) - z1)) \
            / max(1.0, np.max(np.abs(z)))
    return rho


def _with_run(s, dt=None, steps=None):
    """Scenario s at step dt (default its own) over the given number of steps."""
    from dataclasses import replace

    dt = s.dt if dt is None else dt
    return replace(s, dt=dt, T=s.T if steps is None else steps * dt)


FIXED_POINT_RUNS = {
    **{name: lambda name=name: _bundled_system(name)[0] for name in DYNAMIC_SCENARIOS},
    "pairs_n3_N8": lambda: _pair_scenario(40),
    "separable": lambda: _separable_scenario(3000),
    "collapsing": _collapsing_scenario,
    "two_body_affine_pair_dt0.1": lambda: _with_run(_bundled_system("two_body_affine_pair")[0],
                                                    dt=0.1, steps=200),
    "two_body_affine_pair_dt0.5": lambda: _with_run(_bundled_system("two_body_affine_pair")[0],
                                                    dt=0.5, steps=40),
    "harmonic_oscillator_dt0.3": lambda: _with_run(_bundled_system("harmonic_oscillator")[0],
                                                   dt=0.3, steps=300),
}


@pytest.mark.parametrize("run", FIXED_POINT_RUNS)
def test_accepted_midpoint_steps_are_fixed_points_to_roundoff(run):
    """Every accepted step is the midpoint fixed point to 1e-15 x scale: one
    more evaluation would move it by at most that.  The runs are the bundled
    scenarios at their own dt, an n = 3, N = 8 is-af pair system, a separable
    run, and runs whose contraction rate grows along the way (a body
    compressed toward the det floor, and coarse steps dt = 0.1, 0.3 and
    0.5); on the compressed body a carried contraction estimate that is
    never refreshed misses the bar by up to 5x, at dt = 0.5 a stop on any
    residual below 1e-12 that no longer halves left rho at 1.2e-13, and at
    dt = 0.3 a stop scale taken from the start guess left it at 8.1e-15."""
    s = FIXED_POINT_RUNS[run]()
    traj = integrate(s.model, s.params, s.potential, s.initial_state(), dt=s.dt, T=s.T)
    assert not traj.aborted
    rho = _fixed_point_defects(s, traj)
    assert rho.max() <= 1e-15, f"step {rho.argmax()}: rho = {rho.max():.2e}"


@pytest.mark.parametrize("name", ["harmonic_oscillator", "two_body_affine_pair", "separable"])
def test_midpoint_rhs_evaluations_per_step(name, monkeypatch):
    """Regression guard on the solver cost: the Euler-start solve took 5 and 4
    RHS evaluations per step on the two bundled scenarios, and the
    extrapolated start without a carried contraction estimate took 2 on the
    separable run."""
    from affinekit import dynamics

    monkeypatch.setattr(dynamics, "_WINDOW_MAX_D", 0)
    s = _separable_scenario(200) if name == "separable" else _with_run(
        _bundled_system(name)[0], steps=200)
    traj = integrate(s.model, s.params, s.potential, s.initial_state(), dt=s.dt, T=s.T)
    assert traj.rhs_evals / (len(traj.times) - 1) <= 1.2


def test_last_full_step_takes_the_extrapolated_start(monkeypatch):
    """T = 10 dt leaves a last step T - 9 dt that misses dt by an ulp; it is a
    full step, so it starts from the five samples before it, not from its
    last sample alone, and ends on the reference step to roundoff.  Only the
    first step, which has no sample history, starts from one sample."""
    from affinekit import dynamics

    monkeypatch.setattr(dynamics, "_WINDOW_MAX_D", 0)
    s, s0, system = _bundled_system("two_body_affine_pair")
    dt, T = s.dt, 10 * s.dt
    h = T - 9 * dt
    assert h != dt and abs(h - dt) <= 1e-12
    with _recorded_blocks() as calls:
        traj = integrate(s.model, s.params, s.potential, s0, dt=dt, T=T)
    assert [len(last) for last, *_ in calls] == [1, 2, 3, 4, 5, 5, 5, 5, 5, 5]
    assert calls[-1][1][0] == h
    assert traj.times[-1] == T
    reference = _reference_step(system, traj.z[-2], h)[0]
    assert np.max(np.abs(traj.z[-1] - reference)) \
        <= 1e-13 * max(1.0, np.max(np.abs(traj.z[-2])))


FREE_Z = "d4c193575d5ea1e77585d077fe8d3689458760cb60deae1df2873f5d575bd5d9"
FREE_TIMES = "ba353a0918111d79cc0087f0a07e59bb0c161ec99b10c2d067f8bf9e938650ac"


@pytest.mark.parametrize("case", [
    # det phi = 1 - t reaches the floor at sample 100; the midpoint step lands
    # past it, the rk4 step meets the singular phi in its stages
    ("free", "implicit_midpoint", 0.01, 100, "det phi fell to -7.529e-16 (floor 1e-12)",
     100, 7, FREE_Z, FREE_TIMES),
    ("free", "rk4", 0.01, 100, "phi[0] is singular (|det| = 7.529e-16", 396, 400, FREE_Z,
     FREE_TIMES),
    # det phi turns negative at sample 48; the window from sample 4 is
    # abandoned, so every step is a one-step block, and a step from sample 48
    # would raise NegativeOrientation in the dilatation term
    ("dilatation", "implicit_midpoint", 0.007, 48, "det phi fell to -7.834e-03 (floor 1e-12)",
     141, 149, "7f37a056c2f671e5fc6248072ef6cab65d5b393cd08c0487f24eb5fcadc4d9ce",
     "180ba5f282f0f27017016445fecdb807c859677c687ec29a3b33caff2eb2d407"),
])
def test_det_floor_abort_is_that_of_a_per_step_check(case):
    """Every stored block of samples is checked against the det floor before
    a step starts from it, so the partial run, its abort reason and its RHS
    counts are those of a check after every step, pinned here (z and times
    by sha256)."""
    import hashlib

    kind, method, dt, samples, reason, evals, calls, z_sha, times_sha = case
    s = _scenario([_body(np.diag([-1.0, 0.0]))], {}, dt, steps=200) if kind == "free" \
        else _scenario([_body(np.diag([-3.0, 0.0]))], {"dilatation": {"kappa": 1e-3}}, dt, 200)
    traj = integrate(s.model, s.params, s.potential, s.initial_state(), dt=dt, T=s.T,
                     method=method)
    assert traj.aborted and len(traj.times) == samples
    assert traj.abort_reason.startswith(reason)
    assert (traj.rhs_evals, traj.rhs_calls) == (evals, calls)
    assert hashlib.sha256(traj.z.tobytes()).hexdigest() == z_sha
    assert hashlib.sha256(traj.times.tobytes()).hexdigest() == times_sha


def test_run_from_a_nonzero_time():
    """Sample k of a run from time t0 sits at t0 + k dt and the last at
    t0 + T; H is autonomous, so the phase vectors are those of the run from
    time 0, bit for bit.  The 40 full steps run in windows, the last one is
    cut to half a step."""
    from dataclasses import replace

    s, s0, _ = _bundled_system("two_body_affine_pair")
    t0, dt = 0.37, s.dt
    T = 40.5 * dt
    args = (s.model, s.params, s.potential)
    traj = integrate(*args, replace(s0, time=t0), dt=dt, T=T)
    assert not traj.aborted and len(traj.times) == 42
    assert [float(t) for t in traj.times[:-1]] == [t0 + k * dt for k in range(41)]
    assert traj.times[-1] == t0 + T
    np.testing.assert_array_equal(traj.z, integrate(*args, s0, dt=dt, T=T).z)


# ---------------------------------------------------------------------------
# windowed midpoint solve

WINDOW_RUNS = {
    **{name: lambda name=name: _with_run(_bundled_system(name)[0], steps=1200)
       for name in DYNAMIC_SCENARIOS},
    "two_body_affine_pair_dt0.1": lambda: _with_run(_bundled_system("two_body_affine_pair")[0],
                                                    dt=0.1, steps=200),
    "two_body_affine_pair_dt0.3": lambda: _with_run(_bundled_system("two_body_affine_pair")[0],
                                                    dt=0.3, steps=200),
}


@pytest.mark.parametrize("run", WINDOW_RUNS)
def test_windowed_run_matches_the_per_step_run(run, monkeypatch):
    """Windows solve the fixed-point equations of single steps, so the run
    agrees with the run of one-step blocks (forced by the selector constant)
    to 1e-13 x scale, at the same sample times.  At dt = 0.1 and 0.3 some
    windows stall, are abandoned and have their steps solved one by one."""
    from affinekit import dynamics

    s = WINDOW_RUNS[run]()
    args = (s.model, s.params, s.potential, s.initial_state())
    windowed = integrate(*args, dt=s.dt, T=s.T)
    assert windowed.rhs_calls < windowed.rhs_evals
    monkeypatch.setattr(dynamics, "_WINDOW_MAX_D", 0)
    per_step = integrate(*args, dt=s.dt, T=s.T)
    assert per_step.rhs_calls == per_step.rhs_evals
    np.testing.assert_array_equal(windowed.times, per_step.times)
    scale = max(1.0, np.max(np.abs(per_step.z)))
    assert np.max(np.abs(windowed.z - per_step.z)) <= 1e-13 * scale


@pytest.mark.parametrize("name", ["harmonic_oscillator", "two_body_affine_pair", "separable"])
def test_windowed_rhs_calls_per_step(name):
    """Regression guard on the dispatch count: windows of up to 64 steps
    take 0.06-0.13 RHS calls per step on these runs, where one-step blocks
    take 1.0-1.04."""
    s = _separable_scenario(2000) if name == "separable" else _with_run(
        _bundled_system(name)[0], steps=2000)
    traj = integrate(s.model, s.params, s.potential, s.initial_state(), dt=s.dt, T=s.T)
    assert traj.rhs_calls / (len(traj.times) - 1) <= 0.2


def test_window_start_cuts_the_separable_run_cost():
    """Regression guard on the window start and the sweep order: the
    3000-step separable run takes 153 RHS calls when its 64-step windows
    start from the degree-7 polynomial through every 8th sample and each
    sweep takes the positions and then the momenta.  Simultaneous sweeps
    took 250, and 343 from the quartic through the last five samples."""
    s = _separable_scenario(3000)
    traj = integrate(s.model, s.params, s.potential, s.initial_state(), dt=s.dt, T=s.T)
    assert not traj.aborted and traj.rhs_calls <= 170


def test_ordered_sweep_cuts_the_pair_run_cost():
    """Regression guard on the sweep order of a non-separable system: the
    40-step n = 3, N = 8 is-af pair run takes 123 RHS calls when each sweep
    takes the positions and then the momenta; simultaneous sweeps took 170."""
    s = _pair_scenario(40)
    traj = integrate(s.model, s.params, s.potential, s.initial_state(), dt=s.dt, T=s.T)
    assert not traj.aborted and traj.rhs_calls <= 135


PARTITIONED_RUNS = {
    "separable": lambda: _separable_scenario(3000),
    "drawn_10k": lambda: _separable_scenario(10_000, body=_drawn_body()),
    "two_body_affine_pair": lambda: _with_run(_bundled_system("two_body_affine_pair")[0],
                                              steps=2000),
    "pairs_n3_N8": lambda: _pair_scenario(40),
}


@pytest.mark.parametrize("run", PARTITIONED_RUNS)
def test_partitioned_run_matches_the_simultaneous_run(run):
    """Every sweep takes the positions from the momenta and then the momenta
    from the new positions.  It solves the fixed-point equations of the
    simultaneous Picard iteration z1 <- z + h f((z + z1)/2), so the run
    agrees with that iteration's run, one reference step (see
    _reference_step) after another, to 1e-13 x scale at the same sample
    times.  The runs are the 3000-step separable run, a 10k-step one from a
    body drawn as the long_stream benchmark does, and two non-separable
    ones: 2000 steps of two_body_affine_pair and the n = 3, N = 8 is-af pair
    system."""
    from affinekit.dynamics import _pack, compile_system

    s = PARTITIONED_RUNS[run]()
    s0 = s.initial_state()
    partitioned = integrate(s.model, s.params, s.potential, s0, dt=s.dt, T=s.T)
    system = compile_system(s.model, s.params, s.potential, s.n, s.N)
    steps = len(partitioned.times) - 1
    assert not partitioned.aborted and steps == round(s.T / s.dt)
    times = np.arange(steps + 1) * s.dt
    times[-1] = s.T
    np.testing.assert_array_equal(partitioned.times, times)
    simultaneous = np.empty_like(partitioned.z)
    simultaneous[0] = _pack(s0)
    for k in range(steps):
        h = s.T - (steps - 1) * s.dt if k == steps - 1 else s.dt
        simultaneous[k + 1] = _reference_step(system, simultaneous[k], h)[0]
    scale = max(1.0, np.max(np.abs(simultaneous)))
    assert np.max(np.abs(partitioned.z - simultaneous)) <= 1e-13 * scale


def test_window_from_a_far_start_ends_on_the_fixed_points():
    """A 64-step window of harmonic_oscillator whose start guess is 1e3 to
    6.4e4 x scale off (the line through two samples 1e3 apart) still
    returns steps with rho <= 1e-15, and each step's residual relative to
    its own scale: the stop scale comes from the iterate, and one taken from
    the guess would loosen both stop tests by up to 6.4e4."""
    from affinekit.dynamics import _midpoint_window, _pack

    s, s0, system = _bundled_system("harmonic_oscillator")
    z0, k = _pack(s0), 64
    step = _midpoint_window(system, np.stack([z0 - 1e3, z0]), np.full(k, s.dt))
    assert step.failure is None
    z = np.vstack([z0, step.z])
    guess = z0 + 1e3 * np.arange(1.0, k + 1)[:, None]
    scale = np.maximum(1.0, np.abs(z[:-1]).max(axis=-1))
    assert (np.abs(guess - step.z).max(axis=-1) >= 1e3 * scale).all()
    rho = np.abs(z[:-1] + s.dt * system.rhs(0.5 * (z[:-1] + z[1:])) - z[1:]).max(axis=-1) / scale
    assert rho.max() <= 1e-15, f"step {rho.argmax()}: rho = {rho.max():.2e}"
    assert (step.residual <= 1e-15).all()


@pytest.mark.parametrize("degree", range(8))
def test_strided_start_is_exact_on_polynomials_of_degree_seven(degree):
    """From every 8th of 57 samples the start is the degree-7 polynomial
    through them: exact on polynomials of degree <= 7 in the step index,
    1..64 steps ahead, up to the roundoff its weights amplify (about 2^d eps
    of the samples' size per backward difference, times C(j / 8 + d - 1, d)
    at j steps ahead)."""
    from math import prod

    from affinekit.dynamics import _extrapolate_window

    t = np.arange(-56.0, 65.0)
    rng = np.random.default_rng(degree)
    coeffs = rng.uniform(-1.0, 1.0, (2, degree + 1)) / 60.0 ** np.arange(degree + 1)
    z = np.stack([np.polynomial.polynomial.polyval(t, c) for c in coeffs], axis=-1)
    last = z[:57:8]
    weights = [[prod(j + 8 * i for i in range(d)) / (8**d * prod(range(1, d + 1)))
                for d in range(8)] for j in range(1, 65)]
    for k in (1, 16, 64):
        ahead = np.broadcast_to(_extrapolate_window(last, k, 8), (k, 2))
        bound = np.finfo(float).eps * np.abs(last).max() \
            * np.array([sum(w * 2**d for d, w in enumerate(row)) for row in weights[:k]])
        assert (np.abs(ahead - z[57:57 + k]) <= bound[:, None]).all()


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_start_polynomial_is_exact_through_one_to_five_samples(m):
    """From m samples the start is the polynomial of degree m - 1 through
    them: exact on such polynomials in the step index, 1..64 steps ahead, up
    to the roundoff its weights amplify (each backward difference carries
    about 2^d eps of the samples' size, times C(j + d - 1, d) at j steps
    ahead).  One step ahead of five samples it is the quartic
    5 z_k - 10 z_{k-1} + 10 z_{k-2} - 5 z_{k-3} + z_{k-4}."""
    from math import comb

    from affinekit.dynamics import _extrapolate_window

    t = np.arange(-4.0, 65.0)
    coeffs = np.array([[1.0, -0.5, 0.25, -0.01, 1e-4], [0.3, 0.2, -0.05, 0.002, -3e-5]])[:, :m]
    z = np.stack([np.polynomial.polynomial.polyval(t, c) for c in coeffs], axis=-1)
    last = z[5 - m:5]
    for k in (1, 7, 64):
        ahead = np.broadcast_to(_extrapolate_window(last, k), (k, 2))
        bound = np.finfo(float).eps * np.abs(last).max() \
            * np.array([sum(comb(j + d - 1, d) * 2**d for d in range(m)) for j in range(1, k + 1)])
        assert (np.abs(ahead - z[5:5 + k]) <= bound[:, None]).all()
    if m == 5:
        quartic = 5.0 * (z[4] - z[1]) + 10.0 * (z[2] - z[3]) + z[0]
        np.testing.assert_allclose(_extrapolate_window(last, 1)[0], quartic, rtol=1e-14)


# ---------------------------------------------------------------------------
# failure outcomes of the midpoint solve

def test_coarse_windowed_run_aborts_on_the_one_step_divergence():
    """two_body_affine_pair at dt = 0.7 over 40 steps: its window fails and
    is solved again as one-step blocks, and the one-step block from sample
    28 runs out of sweeps.  That failure ends the run as an abort that keeps
    the 29 samples before it; every failed block's calls are counted."""
    s = _with_run(_bundled_system("two_body_affine_pair")[0], dt=0.7, steps=40)
    with _recorded_blocks() as calls:
        traj = integrate(s.model, s.params, s.potential, s.initial_state(), dt=s.dt, T=s.T)
    assert traj.aborted and traj.abort_kind == "IterationDiverged"
    assert traj.abort_reason == "implicit midpoint residual 4.569e-12 > 1e-12 after 50 iterations"
    assert len(traj.times) == 29 and traj.rhs_calls == 653
    failed = [(len(hs), type(step.failure).__name__) for _, hs, _, step in calls
              if step.z is None]
    assert failed == [(36, "IterationDiverged"), (1, "IterationDiverged")]
    assert calls[-1][3].evals == 50


@pytest.mark.parametrize("arg", ["D", "r"])
def test_coincident_centers_abort_a_run_where_h_is_defined(arg):
    """Two bodies share a center under a D or an r pair term.  The first
    one-step block meets NonDifferentiable in the RHS and the run aborts at
    its initial sample.  D is defined there, so the run keeps that sample;
    r is not, so the initial state is bad input and its charges raise."""
    from affinekit.errors import NonDifferentiable

    s = _scenario([_body(np.zeros((2, 2)), x=(0.5, -0.5)), _body(np.zeros((2, 2)), x=(0.5, -0.5))],
                  {"binary": [{"arg": arg, "fn": {"kind": "harmonic", "stiffness": 1.0,
                                                  "center": 1.0}}]}, dt=0.01, steps=10)
    with _recorded_blocks() as calls:
        if arg == "r":
            with pytest.raises(NonDifferentiable, match="r-term with coincident centers"):
                integrate(s.model, s.params, s.potential, s.initial_state(), dt=s.dt, T=s.T)
        else:
            traj = integrate(s.model, s.params, s.potential, s.initial_state(), dt=s.dt, T=s.T)
            assert traj.aborted and traj.abort_kind == "NonDifferentiable"
            assert traj.abort_reason == "binary D-term with coincident centers"
            assert len(traj.times) == 1 and traj.rhs_calls == 1
    assert [(len(last), len(hs), step.evals, step.z is None)
            for last, hs, _, step in calls] == [(1, 1, 1, True)]


def test_bundled_runs_match_the_lapack_kernel():
    """The oracle of the closed-form det, inverse and singular values: each
    bundled scenario, run over its full length with matcore's kernel
    replaced by LAPACK (np.linalg.det, np.linalg.inv and np.linalg.svd at
    every n), takes the same RHS calls and evaluations, its samples differ by
    at most 1e-14 of max(1, max|z|), and its q_log charges by at most 1e-14.
    At least one run differs at all in z and in q, so the swap took."""
    import sys

    from affinekit import matcore

    def run_all():
        runs = {}
        for name in DYNAMIC_SCENARIOS:
            s = _bundled_system(name)[0]
            runs[name] = integrate(s.model, s.params, s.potential, s.initial_state(),
                                   dt=s.dt, T=s.T, method=s.method)
        return runs

    closed = run_all()
    lapack_kernels = ((matcore.unchecked_det, np.linalg.det),
                      (matcore.singular_values, lambda phi: np.linalg.svd(phi, compute_uv=False)))
    with pytest.MonkeyPatch.context() as mp:
        for module in [m for key, m in sys.modules.items() if key.startswith("affinekit")]:
            for attr, value in list(vars(module).items()):
                for kernel, lapack_kernel in lapack_kernels:
                    if value is kernel:
                        mp.setattr(module, attr, lapack_kernel)
        mp.setattr(matcore, "_inverse", lambda phi, det: np.linalg.inv(phi))
        lapack = run_all()
    for name in DYNAMIC_SCENARIOS:
        a, b = closed[name], lapack[name]
        assert not a.aborted and a.times.tobytes() == b.times.tobytes(), name
        assert (a.rhs_calls, a.rhs_evals) == (b.rhs_calls, b.rhs_evals), name
        assert np.abs(a.z - b.z).max() <= 1e-14 * max(1.0, np.abs(b.z).max()), name
        assert np.abs(a.charges.q_log - b.charges.q_log).max() <= 1e-14, name
    assert any(closed[name].z.tobytes() != lapack[name].z.tobytes() for name in DYNAMIC_SCENARIOS)
    assert any(closed[name].charges.q_log.tobytes() != lapack[name].charges.q_log.tobytes()
               for name in DYNAMIC_SCENARIOS)
