import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinekit.errors import NegativeOrientation, SingularInput
from affinekit.matcore import checked_det, det_inv, polar_decompose, two_polar_decompose


def sqrt_spd(m):
    """Independent symmetric square root via eigendecomposition."""
    w, v = np.linalg.eigh(0.5 * (m + m.T))
    return v @ np.diag(np.sqrt(w)) @ v.T


def test_polar_identity():
    U, A, B = polar_decompose(np.eye(3))
    for f in (U, A, B):
        np.testing.assert_allclose(f, np.eye(3), atol=1e-14)


def test_polar_symmetric_positive_input():
    phi = np.diag([2.0, 3.0])
    U, A, B = polar_decompose(phi)
    np.testing.assert_allclose(U, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(A, phi, atol=1e-14)
    np.testing.assert_allclose(B, phi, atol=1e-14)


def test_polar_reconstruction_against_sqrt_oracle(glplus):
    """A must equal sqrt(phi.T phi) computed by an independent eigensolve."""
    for n in (2, 3, 4):
        for _ in range(20):
            phi = glplus(n)
            U, A, B = polar_decompose(phi)
            assert np.max(np.abs(U @ A - phi)) <= 1e-12
            assert np.max(np.abs(B @ U - phi)) <= 1e-12
            np.testing.assert_allclose(A, sqrt_spd(phi.T @ phi), atol=1e-10)
            np.testing.assert_allclose(B, U @ A @ U.T, atol=1e-10)
            np.testing.assert_allclose(U.T @ U, np.eye(n), atol=1e-12)
            assert np.linalg.det(U) > 0


def test_polar_rejects_singular_and_flipped():
    with pytest.raises(SingularInput):
        polar_decompose(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(NegativeOrientation):
        polar_decompose(np.diag([1.0, -1.0]))


def test_two_polar_identity():
    f = two_polar_decompose(np.eye(2))
    np.testing.assert_allclose(f.L, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(f.R, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(f.D, np.eye(2), atol=1e-14)
    assert f.degenerate  # coincident singular values


def test_two_polar_pure_rotation():
    """Rotations force D = identity; L R.T recovers the rotation itself."""
    th = 0.7
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    f = two_polar_decompose(rot)
    np.testing.assert_allclose(f.D, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(f.L @ f.R.T, rot, atol=1e-12)


def test_two_polar_random_against_singular_values(glplus):
    for n in (2, 3, 4):
        for _ in range(20):
            phi = glplus(n)
            f = two_polar_decompose(phi)
            assert np.max(np.abs(f.reconstruct() - phi)) <= 1e-12 * max(1, np.max(np.abs(phi)))
            d = f.d
            assert np.all(np.diff(d) <= 1e-14)  # descending
            # oracle: singular values from an independent eigensolve
            sv = np.sqrt(np.linalg.eigvalsh(phi.T @ phi))[::-1]
            np.testing.assert_allclose(d, sv, atol=1e-10)
            np.testing.assert_allclose(f.q, np.log(d), atol=1e-14)
            for orth in (f.L, f.R):
                np.testing.assert_allclose(orth.T @ orth, np.eye(n), atol=1e-12)
                assert np.linalg.det(orth) > 0


def test_two_polar_degeneracy_flag():
    assert two_polar_decompose(2.0 * np.eye(3)).degenerate
    assert not two_polar_decompose(np.diag([3.0, 2.0, 1.0])).degenerate


def test_polar_u_matches_two_polar(glplus):
    for n in (2, 3):
        for _ in range(20):
            phi = glplus(n)
            U, _, _ = polar_decompose(phi)
            f = two_polar_decompose(phi)
            assert np.max(np.abs(U - f.L @ f.R.T)) <= 1e-10


def test_determinant_product_identity(glplus):
    for n in (2, 3, 4):
        phi = glplus(n)
        f = two_polar_decompose(phi)
        det = np.linalg.det(phi)
        assert abs(np.prod(f.d) - det) <= 1e-12 * abs(det)


def test_decomposition_idempotent(glplus):
    phi = glplus(3)
    f1 = two_polar_decompose(phi)
    f2 = two_polar_decompose(f1.reconstruct())
    np.testing.assert_allclose(f1.D, f2.D, atol=1e-10)
    np.testing.assert_allclose(f1.L @ f1.R.T, f2.L @ f2.R.T, atol=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_two_polar_stack_equals_per_matrix_factors(glplus, n):
    """One stacked SVD factors each member bit for bit as it is factored
    alone, with the SO(n) column flip and the degeneracy flag per member."""
    # diag(1..n): singular values come out reversed, at n = 3 by a reflection
    phi = np.stack([glplus(n) for _ in range(30)]
                   + [np.diag(np.arange(1.0, n + 1)), 2.0 * np.eye(n)])
    f = two_polar_decompose(phi)
    singles = [two_polar_decompose(m) for m in phi]
    for field in ("L", "D", "R", "q", "d"):
        assert getattr(f, field).tobytes() \
            == np.stack([getattr(g, field) for g in singles]).tobytes(), field
    assert f.degenerate.tolist() == [g.degenerate for g in singles]
    assert f.degenerate[-1] == (n > 1)
    assert np.max(np.abs(f.reconstruct() - phi)) <= 1e-12
    if n > 1:  # some members needed the flip into SO(n)
        raw_left = np.linalg.svd(phi)[0]
        assert (np.linalg.det(raw_left) < 0).any() and (np.linalg.det(f.L) > 0).all()
    with pytest.raises(NegativeOrientation, match=r"phi\[1\]"):
        two_polar_decompose(np.stack([np.eye(2), np.diag([1.0, -1.0])]))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_checked_det_of_a_matrix_equals_its_stack_of_one(glplus, n):
    """One body for a matrix and a stack: a single matrix gives the float its
    stack of one gives, bit for bit, and the inverse det_inv pairs with it;
    a failing matrix is named ``phi`` and a failing stack member ``phi[i]``."""
    for m in [glplus(n) for _ in range(20)]:
        d = checked_det(m, require_positive=True)
        assert type(d) is float
        assert np.float64(d).tobytes() == checked_det(m[None])[0].tobytes()
        det, m_inv = det_inv(m)
        assert det == d and m_inv.tobytes() == np.linalg.inv(m).tobytes()
    singular, flipped = np.zeros((n, n)), np.diag([-1.0] + [1.0] * (n - 1))
    with pytest.raises(SingularInput, match=r"^phi is singular \(\|det\| = 0\.000e\+00"):
        checked_det(singular)
    with pytest.raises(NegativeOrientation, match=r"^phi has det = -1\.000e\+00 < 0"):
        checked_det(flipped, require_positive=True)
    assert checked_det(flipped) == -1.0
    eye = np.eye(n)
    with pytest.raises(SingularInput, match=r"^phi\[1\] is singular"):
        checked_det(np.stack([eye, singular, flipped]), require_positive=True)
    with pytest.raises(NegativeOrientation, match=r"^phi\[2\] has det"):
        checked_det(np.stack([eye, eye, flipped]), require_positive=True)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**31 - 1))
def test_two_polar_reconstructs_any_wellconditioned_input(n, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    phi = rng.uniform(-1.0, 1.0, size=(n, n))
    if np.linalg.det(phi) <= 0.1:
        phi = np.eye(n) + 0.1 * phi
    if np.linalg.det(phi) <= 0.1:
        return
    f = two_polar_decompose(phi)
    assert np.max(np.abs(f.reconstruct() - phi)) <= 1e-12 * max(1.0, np.max(np.abs(phi)))
    assert np.all(f.d > 0)
