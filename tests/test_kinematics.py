import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinekit.errors import SingularInput
from affinekit.kinematics import (BodyConfig, SystemConfig, act_material,
                                  act_spatial, affine_velocity,
                                  deformation_tensors, eig_invariants,
                                  invariants_K, invariants_M, mutual_tensors)


def rot2(th):
    return np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])


# ---------------------------------------------------------------------------
# deformation tensors

def test_deformation_identity():
    t = deformation_tensors(np.eye(2))
    np.testing.assert_allclose(t.G, np.eye(2), atol=1e-15)
    np.testing.assert_allclose(t.C, np.eye(2), atol=1e-15)
    np.testing.assert_allclose(t.E, 0.0, atol=1e-15)
    np.testing.assert_allclose(t.e, 0.0, atol=1e-15)


def test_deformation_diagonal_values():
    t = deformation_tensors(np.diag([2.0, 1.0]))
    np.testing.assert_allclose(t.G, np.diag([4.0, 1.0]), atol=1e-14)
    np.testing.assert_allclose(t.C, np.diag([0.25, 1.0]), atol=1e-14)
    np.testing.assert_allclose(t.E, np.diag([1.5, 0.0]), atol=1e-14)
    np.testing.assert_allclose(t.e, np.diag([0.375, 0.0]), atol=1e-14)
    np.testing.assert_allclose(t.Gtilde, np.diag([0.25, 1.0]), atol=1e-14)
    np.testing.assert_allclose(t.Ctilde, np.diag([4.0, 1.0]), atol=1e-14)


def test_deformation_orthogonal_gives_identity(orthogonal):
    for n in (2, 3):
        t = deformation_tensors(orthogonal(n))
        np.testing.assert_allclose(t.G, np.eye(n), atol=1e-13)
        np.testing.assert_allclose(t.C, np.eye(n), atol=1e-13)


def test_deformation_transformation_rules(glplus, invertible, orthogonal):
    """Left orthogonal action leaves G; right GL action conjugates it."""
    for _ in range(50):
        n = 3
        phi = glplus(n)
        t = deformation_tensors(phi)
        A = orthogonal(n, special=False)
        np.testing.assert_allclose(deformation_tensors(A @ phi).G, t.G, atol=1e-12)
        np.testing.assert_allclose(deformation_tensors(phi @ A).C, t.C, atol=1e-12)
        B = invertible(n)
        np.testing.assert_allclose(deformation_tensors(phi @ B).G, B.T @ t.G @ B,
                                   atol=1e-11)
        Binv = np.linalg.inv(B)
        np.testing.assert_allclose(deformation_tensors(B @ phi).C,
                                   Binv.T @ t.C @ Binv, atol=1e-10)


def test_deformation_rejects_singular():
    with pytest.raises(SingularInput):
        deformation_tensors(np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# mutual tensors

def test_mutual_reduces_to_single_body(glplus):
    phi = glplus(3)
    m = mutual_tensors(phi, phi)
    t = deformation_tensors(phi)
    np.testing.assert_allclose(m.Gm, t.G, atol=1e-12)
    np.testing.assert_allclose(m.Cm, t.C, atol=1e-12)
    np.testing.assert_allclose(m.Gamma, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(m.SigmaM, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(m.gamma_small, 0.0, atol=1e-12)
    np.testing.assert_allclose(m.sigma_small, 0.0, atol=1e-12)


def test_mutual_orthogonal_pair_collapses(orthogonal):
    """For orthogonal arguments the affine and metric comparisons agree."""
    psi, phi = orthogonal(3), orthogonal(3)
    m = mutual_tensors(psi, phi)
    np.testing.assert_allclose(m.Gamma, m.Gm, atol=1e-13)
    np.testing.assert_allclose(m.SigmaM, m.Cm, atol=1e-13)


def test_mutual_direct_product():
    m = mutual_tensors(np.eye(2), np.diag([2.0, 1.0]))
    np.testing.assert_allclose(m.Gamma, np.diag([2.0, 1.0]), atol=1e-14)
    np.testing.assert_allclose(m.SigmaM, np.diag([2.0, 1.0]), atol=1e-14)


def test_mutual_strain_forms(glplus):
    psi, phi = glplus(2), glplus(2)
    m = mutual_tensors(psi, phi)
    np.testing.assert_allclose(m.Em, 0.5 * (m.Gm - np.eye(2)), atol=1e-14)
    np.testing.assert_allclose(m.em, 0.5 * (np.eye(2) - m.Cm), atol=1e-14)


def test_mutual_affine_transformation_rules(invertible):
    for _ in range(50):
        n = 2
        psi, phi = invertible(n), invertible(n)
        m = mutual_tensors(psi, phi)
        A = invertible(n)
        Ainv = np.linalg.inv(A)
        left = mutual_tensors(A @ psi, A @ phi)
        np.testing.assert_allclose(left.Gamma, m.Gamma, atol=1e-11)
        np.testing.assert_allclose(left.SigmaM, A @ m.SigmaM @ Ainv, atol=1e-10)
        right = mutual_tensors(psi @ A, phi @ A)
        np.testing.assert_allclose(right.Gamma, Ainv @ m.Gamma @ A, atol=1e-10)
        np.testing.assert_allclose(right.SigmaM, m.SigmaM, atol=1e-11)


# ---------------------------------------------------------------------------
# scalar invariants

def test_invariants_K_identity():
    np.testing.assert_allclose(invariants_K(np.eye(2), np.eye(2)), [2.0, 2.0])


def test_invariants_K_diagonal():
    phi = np.diag([np.sqrt(2.0), 1.0])
    np.testing.assert_allclose(invariants_K(phi, phi), [3.0, 5.0], atol=1e-12)


def test_invariants_K_orthogonal_sandwich(invertible, orthogonal):
    for _ in range(50):
        n = 3
        psi, phi = invertible(n), invertible(n)
        A, B = orthogonal(n, special=False), orthogonal(n, special=False)
        np.testing.assert_allclose(invariants_K(A @ psi @ B, A @ phi @ B),
                                   invariants_K(psi, phi), atol=1e-12)


def test_invariants_K_trace_path_agreement(glplus):
    """K_a evaluates identically through G powers and inverse C powers."""
    for n in (2, 3):
        phi = glplus(n)
        t = deformation_tensors(phi)
        via_G = [np.trace(np.linalg.matrix_power(t.G, a)) for a in range(1, n + 1)]
        via_C = [np.trace(np.linalg.matrix_power(np.linalg.inv(t.C), a))
                 for a in range(1, n + 1)]
        np.testing.assert_allclose(invariants_K(phi, phi), via_G, atol=1e-10)
        np.testing.assert_allclose(via_G, via_C, atol=1e-10)


def test_invariants_M_equal_arguments(invertible):
    for n in (2, 3):
        psi = invertible(n)
        np.testing.assert_allclose(invariants_M(psi, psi), [float(n)] * n, atol=1e-12)


def test_invariants_M_diagonal():
    np.testing.assert_allclose(invariants_M(np.eye(2), np.diag([2.0, 3.0])),
                               [5.0, 13.0], atol=1e-12)


def test_invariants_M_full_affine_sandwich(invertible):
    for _ in range(50):
        n = 3
        psi, phi = invertible(n), invertible(n)
        A, B = invertible(n), invertible(n)
        np.testing.assert_allclose(invariants_M(A @ psi @ B, A @ phi @ B),
                                   invariants_M(psi, phi), atol=1e-10)


def test_invariants_M_gamma_sigma_trace_agreement(invertible):
    for _ in range(20):
        psi, phi = invertible(3), invertible(3)
        m = mutual_tensors(psi, phi)
        for a in range(1, 4):
            tg = np.trace(np.linalg.matrix_power(m.Gamma, a))
            ts = np.trace(np.linalg.matrix_power(m.SigmaM, a))
            assert abs(tg - ts) <= 1e-12 * max(1.0, abs(tg))


# ---------------------------------------------------------------------------
# eigenvalue invariants

def test_eig_invariants_diagonal():
    lam, coeffs = eig_invariants(np.diag([2.0, 1.0]))
    np.testing.assert_allclose(lam, [4.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(coeffs, [5.0, 4.0], atol=1e-12)


def test_eig_invariants_identity_3d():
    lam, coeffs = eig_invariants(np.eye(3))
    np.testing.assert_allclose(lam, [1.0, 1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(coeffs, [3.0, 3.0, 1.0], atol=1e-12)


def test_eig_invariants_determinant_identity(glplus):
    for n in (2, 3, 4):
        for _ in range(10):
            phi = glplus(n)
            lam, coeffs = eig_invariants(phi)
            det2 = np.linalg.det(phi) ** 2
            assert abs(np.prod(lam) - det2) <= 1e-10 * abs(det2)
            assert abs(coeffs[-1] - det2) <= 1e-10 * abs(det2)
            assert np.all(np.diff(lam) <= 1e-12)


# ---------------------------------------------------------------------------
# affine velocity

def test_affine_velocity_at_identity(rng):
    X = rng.standard_normal((3, 3))
    v = rng.standard_normal(3)
    om, om_hat, v_hat = affine_velocity(np.eye(3), X, v)
    np.testing.assert_allclose(om, X, atol=1e-14)
    np.testing.assert_allclose(om_hat, X, atol=1e-14)
    np.testing.assert_allclose(v_hat, v, atol=1e-14)


def test_rigid_motion_gives_skew_gyration():
    """Along an orthogonal path, d/dt phi phi^-1 is skew."""
    th, thdot = 0.6, 1.3
    phi = rot2(th)
    dphi = thdot * np.array([[-np.sin(th), -np.cos(th)], [np.cos(th), -np.sin(th)]])
    om, om_hat, _ = affine_velocity(phi, dphi, np.zeros(2))
    np.testing.assert_allclose(om + om.T, 0.0, atol=1e-13)
    np.testing.assert_allclose(om_hat + om_hat.T, 0.0, atol=1e-13)


def test_affine_velocity_transformation(glplus, invertible, rng):
    for _ in range(50):
        n = 3
        phi = glplus(n)
        xi = rng.standard_normal((n, n))
        v = rng.standard_normal(n)
        A = invertible(n)
        om, om_hat, _ = affine_velocity(phi, xi, v)
        om_l, om_hat_l, _ = affine_velocity(A @ phi, A @ xi, A @ v)
        np.testing.assert_allclose(om_l, A @ om @ np.linalg.inv(A), atol=1e-10)
        np.testing.assert_allclose(om_hat_l, om_hat, atol=1e-12)


# ---------------------------------------------------------------------------
# group actions on configurations

def _config(rng, n, N):
    phi = np.stack([np.eye(n) + 0.3 * rng.standard_normal((n, n)) for _ in range(N)])
    for K in range(N):
        while np.linalg.det(phi[K]) < 0.2:
            phi[K] = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    return SystemConfig(x=rng.standard_normal((N, n)), phi=phi)


def test_act_identity(rng):
    c = _config(rng, 2, 3)
    c2 = act_spatial(np.eye(2), c)
    np.testing.assert_allclose(c2.x, c.x)
    np.testing.assert_allclose(c2.phi, c.phi)


def test_act_spatial_inverse_roundtrip(rng, glplus):
    c = _config(rng, 3, 2)
    A = glplus(3)
    c2 = act_spatial(np.linalg.inv(A), act_spatial(A, c))
    np.testing.assert_allclose(c2.x, c.x, atol=1e-12)
    np.testing.assert_allclose(c2.phi, c.phi, atol=1e-12)


def test_left_right_actions_commute(rng, glplus):
    c = _config(rng, 2, 2)
    A, B = glplus(2), glplus(2)
    c_lr = act_material(B, act_spatial(A, c))
    c_rl = act_spatial(A, act_material(B, c))
    np.testing.assert_allclose(c_lr.x, c_rl.x, atol=1e-13)
    np.testing.assert_allclose(c_lr.phi, c_rl.phi, atol=1e-13)


def test_material_action_moves_phi_only(rng, glplus):
    c = _config(rng, 2, 2)
    B = glplus(2)
    c2 = act_material(B, c)
    np.testing.assert_allclose(c2.x, c.x)
    np.testing.assert_allclose(c2.phi, c.phi @ B, atol=1e-14)


def test_body_config_requires_positive_det():
    with pytest.raises(Exception):
        BodyConfig(x=np.zeros(2), phi=np.diag([1.0, -1.0]))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_mutual_invariants_match_between_orderings(seed):
    """Swapping the pair inverts Gamma, so M_a(psi, phi) = M_a via Gamma^-1."""
    rng = np.random.Generator(np.random.Philox(seed))
    psi = np.eye(2) + 0.4 * rng.uniform(-1, 1, (2, 2))
    phi = np.eye(2) + 0.4 * rng.uniform(-1, 1, (2, 2))
    if abs(np.linalg.det(psi)) < 0.1 or abs(np.linalg.det(phi)) < 0.1:
        return
    gamma_ab = mutual_tensors(psi, phi).Gamma
    gamma_ba = mutual_tensors(phi, psi).Gamma
    np.testing.assert_allclose(gamma_ba, np.linalg.inv(gamma_ab), atol=1e-9)


# ---------------------------------------------------------------------------
# stacks (..., n, n)

def _stack(make, n, S=7):
    return np.stack([make(n) for _ in range(S)])


@pytest.mark.parametrize("n", [2, 3])
def test_stacked_inputs_equal_per_matrix_loops(n, glplus, invertible, rng):
    """Each function evaluates a 7-member stack exactly as a loop over its
    members does, bit for bit."""
    phi, psi = _stack(glplus, n), _stack(invertible, n)
    xi, v = rng.uniform(-1, 1, (7, n, n)), rng.uniform(-1, 1, (7, n))
    stacked = deformation_tensors(phi)
    mutual = mutual_tensors(psi, phi)
    K_stack, M_stack = invariants_K(psi, phi), invariants_M(psi, phi)
    vel_stack = affine_velocity(phi, xi, v)
    assert K_stack.shape == M_stack.shape == (7, n)
    for s in range(7):
        single = deformation_tensors(phi[s])
        for name in ("G", "C", "Gtilde", "Ctilde", "E", "e"):
            np.testing.assert_array_equal(getattr(stacked, name)[s], getattr(single, name))
        single = mutual_tensors(psi[s], phi[s])
        for name in ("Gm", "Cm", "Gamma", "SigmaM", "gamma_small", "sigma_small", "Em", "em"):
            np.testing.assert_array_equal(getattr(mutual, name)[s], getattr(single, name))
        np.testing.assert_array_equal(K_stack[s], invariants_K(psi[s], phi[s]))
        np.testing.assert_array_equal(M_stack[s], invariants_M(psi[s], phi[s]))
        for got, want in zip(vel_stack, affine_velocity(phi[s], xi[s], v[s])):
            np.testing.assert_array_equal(got[s], want)


def test_singular_stack_member_is_named(glplus):
    phi = _stack(glplus, 3)
    bad = phi.copy()
    bad[4] = 0.0
    calls = [
        lambda: deformation_tensors(bad),
        lambda: mutual_tensors(phi, bad),
        lambda: invariants_K(phi, bad),
        lambda: affine_velocity(bad, phi, np.zeros((7, 3))),
    ]
    for call in calls:
        with pytest.raises(SingularInput, match=r"^phi\[4\] is singular"):
            call()
    for call in (lambda: mutual_tensors(bad, phi), lambda: invariants_M(bad, phi)):
        with pytest.raises(SingularInput, match=r"^psi\[4\] is singular"):
            call()
