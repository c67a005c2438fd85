import numpy as np
import pytest

from affinekit.errors import DegenerateMetric, MissingParams
from affinekit.kinematics import SystemConfig, VelocityState
from affinekit.kinetics import (InertiaParams, KineticModel, MomentumState,
                                inverse_legendre, kinetic_energy,
                                kinetic_hamiltonian, kinetic_phi_gradient, legendre,
                                positivity_check, tilde_constants)

ALL_TRANSLATIONAL = ("dalembert", "is-af", "af-is")
ALL_INTERNAL = ("dalembert", "af-J", "af-is", "H-af", "l-af", "r-af", "af-af", "is-af")


def full_params(rng, n):
    spd = lambda: (lambda m: m @ m.T + n * np.eye(n))(rng.uniform(-1, 1, (n, n)))
    raw = rng.uniform(-0.3, 0.3, (n * n, n * n))
    bilinear = raw @ raw.T + n * np.eye(n * n)
    return InertiaParams(M=1.7, J=spd(), I=2.0, A=1.0, B=1.0, H=spd(),
                         Lten=bilinear, Rten=bilinear)


def random_state(rng, n, scale=1.0):
    phi = np.eye(n) + 0.4 * rng.uniform(-1, 1, (n, n))
    while np.linalg.det(phi) < 0.25:
        phi = np.eye(n) + 0.4 * rng.uniform(-1, 1, (n, n))
    config = SystemConfig(x=rng.uniform(-1, 1, (1, n)), phi=phi[None])
    vel = VelocityState(v=scale * rng.uniform(-1, 1, (1, n)),
                        xi=scale * rng.uniform(-1, 1, (1, n, n)))
    return config, vel


# ---------------------------------------------------------------------------
# kinetic energy

def test_zero_velocity_zero_energy(rng):
    for tr in ALL_TRANSLATIONAL:
        for it in ALL_INTERNAL:
            config, _ = random_state(rng, 2)
            vel = VelocityState(v=np.zeros((1, 2)), xi=np.zeros((1, 2, 2)))
            assert kinetic_energy(KineticModel(tr, it), full_params(rng, 2),
                                  config, vel) == 0.0


def test_afaf_unit_gyration_value(rng):
    """Omega = Id in two dimensions gives A + 2B for the af-af form."""
    A, B = 1.3, 0.7
    params = InertiaParams(M=1.0, A=A, B=B)
    config, _ = random_state(rng, 2)
    phi = config.phi[0]
    vel = VelocityState(v=np.zeros((1, 2)), xi=(np.eye(2) @ phi)[None])  # xi = Omega phi
    t = kinetic_energy(KineticModel("dalembert", "af-af"), params, config, vel)
    assert abs(t - (A + 2 * B)) <= 1e-12


def test_isaf_material_affine_invariance(rng):
    params = InertiaParams(M=1.0, I=2.0, A=1.0, B=1.0)
    model = KineticModel("dalembert", "is-af")
    for _ in range(30):
        config, vel = random_state(rng, 3)
        vel = VelocityState(v=np.zeros((1, 3)), xi=vel.xi)
        t0 = kinetic_energy(model, params, config, vel)
        Bmat = np.eye(3) + 0.5 * rng.uniform(-1, 1, (3, 3))
        if abs(np.linalg.det(Bmat)) < 0.1:
            continue
        moved = SystemConfig(x=config.x, phi=config.phi @ Bmat)
        vel2 = VelocityState(v=vel.v, xi=vel.xi @ Bmat)
        assert abs(kinetic_energy(model, params, moved, vel2) - t0) <= 1e-12 * max(1, abs(t0))


def test_gyroscopic_limit_isaf_equals_afis(rng, orthogonal):
    """Skew Omega on an orthogonal configuration: both models coincide."""
    params = InertiaParams(M=1.0, I=2.0, A=1.0, B=1.0)
    for _ in range(20):
        phi = orthogonal(3)
        w = rng.uniform(-1, 1, (3, 3))
        om = w - w.T
        config = SystemConfig(x=np.zeros((1, 3)), phi=phi[None])
        vel = VelocityState(v=np.zeros((1, 3)), xi=(om @ phi)[None])
        t1 = kinetic_energy(KineticModel("dalembert", "is-af"), params, config, vel)
        t2 = kinetic_energy(KineticModel("dalembert", "af-is"), params, config, vel)
        assert abs(t1 - t2) <= 1e-12 * max(1.0, abs(t1))


def test_missing_params_error(rng):
    config, vel = random_state(rng, 2)
    with pytest.raises(MissingParams):
        kinetic_energy(KineticModel("dalembert", "H-af"), InertiaParams(M=1.0),
                       config, vel)


@pytest.mark.parametrize("M", [np.nan, np.inf, 0.0])
def test_inertia_params_reject_a_mass_outside_zero_to_inf(M):
    """M must lie in (0, inf); nan is neither <= 0 nor > 0.  J and H must be
    positive definite (test_scenario_defects_are_validation_errors), while
    Lten/Rten, like the (I, A, B) forms, may be indefinite."""
    with pytest.raises(ValueError, match="M must be positive and finite"):
        InertiaParams(M=M)
    InertiaParams(Lten=np.diag([1.0, -1.0, 1.0, 1.0]))


@pytest.mark.parametrize("translational", ["dalembert", "af-is"])
@pytest.mark.parametrize("internal", ALL_INTERNAL)
def test_kinetic_phi_gradient_matches_central_differences(rng, translational, internal):
    """dT/dphi per body against central differences of the kinetic
    Hamiltonian in each entry of phi, on two bodies; af-is puts phi into the
    translational sector through p_hat = phi.T p as well."""
    n, N, h = 3, 2, 1e-6
    model, params = KineticModel(translational, internal), full_params(rng, n)
    phi = np.stack([random_state(rng, n)[0].phi[0] for _ in range(N)])
    x = rng.uniform(-1, 1, (N, n))
    mom = MomentumState(p=rng.uniform(-1, 1, (N, n)), pi=rng.uniform(-1, 1, (N, n, n)))
    grad = kinetic_phi_gradient(model, params, SystemConfig(x=x, phi=phi), mom)
    fd = np.empty_like(phi)
    for idx in np.ndindex(phi.shape):
        step = np.zeros_like(phi)
        step[idx] = h
        fd[idx] = (kinetic_hamiltonian(model, params, SystemConfig(x=x, phi=phi + step), mom)
                   - kinetic_hamiltonian(model, params, SystemConfig(x=x, phi=phi - step),
                                         mom)) / (2.0 * h)
    assert grad.shape == (N, n, n)
    assert np.max(np.abs(grad - fd)) <= 1e-7 * max(1.0, np.max(np.abs(fd)))


# ---------------------------------------------------------------------------
# Legendre transform

def test_dalembert_momenta():
    config = SystemConfig(x=np.zeros((1, 2)), phi=np.eye(2)[None])
    vel = VelocityState(v=np.array([[1.0, 0.0]]), xi=np.zeros((1, 2, 2)))
    mom = legendre(KineticModel("dalembert", "dalembert"),
                   InertiaParams(M=2.0, J=np.eye(2)), config, vel)
    np.testing.assert_allclose(mom.p, [[2.0, 0.0]])
    np.testing.assert_allclose(mom.pi, 0.0)


def test_dalembert_kinetic_hamiltonian_value():
    config = SystemConfig(x=np.zeros((1, 2)), phi=np.eye(2)[None])
    mom = MomentumState(p=np.array([[2.0, 0.0]]), pi=np.zeros((1, 2, 2)))
    model = KineticModel("dalembert", "dalembert")
    params = InertiaParams(M=2.0, J=np.eye(2))
    assert kinetic_hamiltonian(model, params, config, mom) == pytest.approx(1.0)
    back = inverse_legendre(model, params, config, mom)
    np.testing.assert_allclose(back.v, [[1.0, 0.0]])


def test_dalembert_pi_is_J_xi_T(rng):
    J = np.diag([2.0, 3.0])
    config, vel = random_state(rng, 2)
    mom = legendre(KineticModel("dalembert", "dalembert"),
                   InertiaParams(M=1.0, J=J), config, vel)
    np.testing.assert_allclose(mom.pi[0], J @ vel.xi[0].T, atol=1e-14)


def test_zero_velocities_zero_momenta(rng):
    config, _ = random_state(rng, 3)
    vel = VelocityState(v=np.zeros((1, 3)), xi=np.zeros((1, 3, 3)))
    for tr in ALL_TRANSLATIONAL:
        for it in ALL_INTERNAL:
            mom = legendre(KineticModel(tr, it), full_params(rng, 3), config, vel)
            np.testing.assert_allclose(mom.p, 0.0, atol=1e-15)
            np.testing.assert_allclose(mom.pi, 0.0, atol=1e-15)
            back = inverse_legendre(KineticModel(tr, it), full_params(rng, 3),
                                    config, mom)
            np.testing.assert_allclose(back.v, 0.0, atol=1e-15)
            np.testing.assert_allclose(back.xi, 0.0, atol=1e-15)


@pytest.mark.parametrize("tr", ALL_TRANSLATIONAL)
@pytest.mark.parametrize("it", ALL_INTERNAL)
def test_roundtrip_every_model(tr, it, rng):
    """legendre and inverse_legendre are exact inverses; the Hamiltonian
    reproduces the kinetic energy."""
    model = KineticModel(tr, it)
    for n in (2, 3):
        params = full_params(rng, n)
        for _ in range(25):
            config, vel = random_state(rng, n)
            mom = legendre(model, params, config, vel)
            back = inverse_legendre(model, params, config, mom)
            np.testing.assert_allclose(back.v, vel.v, atol=1e-12)
            np.testing.assert_allclose(back.xi, vel.xi, atol=1e-12)
            t_v = kinetic_energy(model, params, config, vel)
            t_p = kinetic_hamiltonian(model, params, config, mom)
            assert abs(t_p - t_v) <= 1e-12 * max(1.0, abs(t_v))


def test_pairing_identities(rng):
    """<p, v> = <p_hat, v_hat> and Tr(Sigma Omega) = Tr(Sigma_hat Omega_hat)."""
    params = InertiaParams(M=1.3, I=2.0, A=1.0, B=1.0)
    model = KineticModel("af-is", "is-af")
    for _ in range(20):
        config, vel = random_state(rng, 3)
        mom = legendre(model, params, config, vel)
        phi = config.phi[0]
        p, v = mom.p[0], vel.v[0]
        p_hat = phi.T @ p
        v_hat = np.linalg.solve(phi, v)
        assert abs(p @ v - p_hat @ v_hat) <= 1e-12 * max(1.0, abs(p @ v))
        om = vel.xi[0] @ np.linalg.inv(phi)
        om_hat = np.linalg.inv(phi) @ vel.xi[0]
        sig = phi @ mom.pi[0]
        sig_hat = mom.pi[0] @ phi
        lhs = np.trace(sig @ om)
        rhs = np.trace(sig_hat @ om_hat)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
        # and both equal Tr(pi xi)
        assert abs(lhs - np.trace(mom.pi[0] @ vel.xi[0])) <= 1e-12 * max(1.0, abs(lhs))


def test_affine_spin_transformation_rules(rng, glplus):
    """Under the spatial action (phi, pi) -> (A phi, pi A^-1) the spatial spin
    conjugates, Sigma -> A Sigma A^-1, while Sigma_hat is untouched; the
    material action does the opposite."""
    for _ in range(20):
        n = 3
        phi, A = glplus(n), glplus(n)
        pi = rng.uniform(-1, 1, (n, n))
        sig = phi @ pi
        sig_hat = pi @ phi
        Ainv = np.linalg.inv(A)
        # spatial: momenta co-transform to keep Tr(pi xi) invariant
        sig_l = (A @ phi) @ (pi @ Ainv)
        sig_hat_l = (pi @ Ainv) @ (A @ phi)
        np.testing.assert_allclose(sig_l, A @ sig @ Ainv, atol=1e-10)
        np.testing.assert_allclose(sig_hat_l, sig_hat, atol=1e-10)
        # material: phi -> phi A, pi -> A^-1 pi
        sig_r = (phi @ A) @ (Ainv @ pi)
        sig_hat_r = (Ainv @ pi) @ (phi @ A)
        np.testing.assert_allclose(sig_r, sig, atol=1e-10)
        np.testing.assert_allclose(sig_hat_r, Ainv @ sig_hat @ A, atol=1e-10)


def test_momentum_state_derived_quantities(rng):
    config, vel = random_state(rng, 2)
    mom = MomentumState(p=rng.uniform(-1, 1, (1, 2)), pi=rng.uniform(-1, 1, (1, 2, 2)))
    phi = config.phi[0]
    np.testing.assert_allclose(mom.sigma(config)[0], phi @ mom.pi[0], atol=1e-14)
    np.testing.assert_allclose(mom.sigma_hat(config)[0], mom.pi[0] @ phi, atol=1e-14)
    np.testing.assert_allclose(mom.p_hat(config)[0], phi.T @ mom.p[0], atol=1e-14)
    s = mom.spin(config)[0]
    v_ = mom.vorticity(config)[0]
    np.testing.assert_allclose(s, -s.T, atol=1e-15)
    np.testing.assert_allclose(v_, -v_.T, atol=1e-15)


# ---------------------------------------------------------------------------
# tilde constants

def test_tilde_constants_reference_values():
    tc = tilde_constants(2.0, 1.0, 1.0, 2)
    assert abs(tc.recip_I - 2.0 / 3.0) <= 1e-15
    assert abs(tc.recip_A - (-1.0 / 3.0)) <= 1e-15
    assert abs(tc.recip_B - (-1.0 / 15.0)) <= 1e-15


def test_tilde_constants_degenerate():
    with pytest.raises(DegenerateMetric):
        tilde_constants(1.0, 1.0, 0.5, 2)
    with pytest.raises(DegenerateMetric):
        tilde_constants(2.0, 1.0, -1.5, 2)  # I + A + nB = 0


def test_tilde_constants_zero_numerators():
    tc = tilde_constants(0.0, 1.0, 1.0, 2)
    assert tc.recip_I == 0.0
    tc = tilde_constants(2.0, 0.0, 1.0, 2)
    assert tc.recip_A == 0.0
    tc = tilde_constants(2.0, 1.0, 0.0, 2)
    assert tc.recip_B == 0.0


def test_tilde_constants_crosscheck_by_roundtrip(rng):
    """The reciprocal constants invert the forward map Sigma(Omega)."""
    I_, A_, B_, n = 2.0, 1.0, 1.0, 2
    tc = tilde_constants(I_, A_, B_, n)
    for _ in range(20):
        om = rng.uniform(-1, 1, (n, n))
        sig = I_ * om.T + A_ * om + B_ * np.trace(om) * np.eye(n)
        back = tc.recip_I * sig.T + tc.recip_A * sig + tc.recip_B * np.trace(sig) * np.eye(n)
        np.testing.assert_allclose(back, om, atol=1e-13)


# ---------------------------------------------------------------------------
# positivity

def test_positivity_pure_isotropic():
    flag, spectrum = positivity_check(1.0, 0.0, 0.0, 2)
    assert flag
    np.testing.assert_allclose(spectrum, 1.0, atol=1e-14)


def test_positivity_pure_afaf_indefinite():
    for n in (2, 3):
        flag, spectrum = positivity_check(0.0, 1.0, 0.0, n)
        assert not flag
        assert spectrum[0] < 0.0


def test_positivity_against_sampling_oracle(rng):
    """Flag agrees with a brute-force minimum over random unit matrices,
    away from the definiteness boundary where sampling cannot resolve."""
    checked = 0
    while checked < 8:
        I_, A_, B_ = rng.uniform(-1.5, 2.5, 3)
        flag, spectrum = positivity_check(I_, A_, B_, 2)
        scale = max(1.0, float(np.max(np.abs(spectrum))))
        if abs(spectrum[0]) < 0.05 * scale:
            continue
        lo = np.inf
        for _ in range(10000):
            om = rng.standard_normal((2, 2))
            om /= np.linalg.norm(om)
            t = 0.5 * I_ * np.trace(om.T @ om) + 0.5 * A_ * np.trace(om @ om) \
                + 0.5 * B_ * np.trace(om) ** 2
            lo = min(lo, t)
        assert flag == (lo > 0.0)
        checked += 1


def test_degenerate_lten_raises(rng):
    config, vel = random_state(rng, 2)
    params = InertiaParams(M=1.0, Lten=np.zeros((4, 4)))
    mom = MomentumState(p=np.zeros((1, 2)), pi=rng.uniform(-1, 1, (1, 2, 2)))
    with pytest.raises(DegenerateMetric):
        inverse_legendre(KineticModel("dalembert", "l-af"), params, config, mom)


def test_heterogeneous_per_body_params(rng):
    """A sequence of InertiaParams assigns species per body index."""
    n = 2
    params = (InertiaParams(M=1.0, J=np.eye(n)), InertiaParams(M=4.0, J=np.eye(n)))
    config = SystemConfig(x=np.zeros((2, n)), phi=np.stack([np.eye(n), np.eye(n)]))
    vel = VelocityState(v=np.array([[1.0, 0.0], [1.0, 0.0]]), xi=np.zeros((2, n, n)))
    mom = legendre(KineticModel("dalembert", "dalembert"), params, config, vel)
    np.testing.assert_allclose(mom.p, [[1.0, 0.0], [4.0, 0.0]])
