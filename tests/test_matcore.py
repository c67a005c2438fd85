import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinekit.errors import NegativeOrientation, SingularInput
from affinekit.matcore import (checked_det, det_inv, polar_decompose, two_polar_decompose,
                               unchecked_det)
from affinekit.sampling import orthogonal_from_normal, rng_from_seed

EPS = np.finfo(float).eps


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
    """One body for a matrix and a stack: a single matrix gives the float and
    the inverse its stack of one gives, bit for bit, and the inverse is
    within the kernel's accuracy bound of LAPACK's (equal to it at n >= 3);
    a failing matrix is named ``phi`` and a failing stack member ``phi[i]``."""
    for m in [glplus(n) for _ in range(20)]:
        d = checked_det(m, require_positive=True)
        assert type(d) is float
        assert np.float64(d).tobytes() == checked_det(m[None])[0].tobytes()
        det, m_inv = det_inv(m)
        assert det == d and m_inv.tobytes() == det_inv(m[None])[1][0].tobytes()
        ref = np.linalg.inv(m)
        bound = 0.0 if n >= 3 else 4.0 * EPS * np.linalg.cond(m) * np.abs(ref).max()
        assert np.abs(m_inv - ref).max() <= bound
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


def _exact_det(m) -> float:
    """det of a 1x1 or 2x2 float matrix in exact rational arithmetic, rounded."""
    from fractions import Fraction

    f = [[Fraction(float(v)) for v in row] for row in m]
    return float(f[0][0] if len(f) == 1 else f[0][0] * f[1][1] - f[0][1] * f[1][0])


@pytest.mark.parametrize("n", [1, 2])
def test_closed_form_det_and_inverse_match_lapack(n):
    """At n <= 2 the kernel is elementwise: det within a few ulp of
    |a d| + |b c| of the exact det and of LAPACK's, the inverse within a few
    cond(phi) eps of LAPACK's, and each member bit-equal to its own call."""
    rng = rng_from_seed(11)
    phi = rng.uniform(-1.0, 1.0, (64, 3, n, n))
    phi = phi[np.abs(np.linalg.det(phi)).min(axis=-1) > 1e-3]
    det, inv = det_inv(phi)
    size = np.abs(phi).reshape(phi.shape[:-2] + (-1,))
    scale = size[..., 0] if n == 1 else size[..., 0] * size[..., 3] + size[..., 1] * size[..., 2]
    exact = np.array([_exact_det(m) for m in phi.reshape(-1, n, n)]).reshape(det.shape)
    assert np.all(np.abs(det - exact) <= 2.0 * EPS * scale)
    assert np.all(np.abs(det - np.linalg.det(phi)) <= 4.0 * EPS * scale)
    ref = np.linalg.inv(phi)
    err = np.abs(inv - ref).max(axis=(-2, -1)) / np.abs(ref).max(axis=(-2, -1))
    assert np.all(err <= 4.0 * EPS * np.linalg.cond(phi))
    if n == 1:  # det is the entry itself, the inverse its correctly rounded reciprocal
        assert det.tobytes() == phi[..., 0, 0].tobytes()
        assert inv.tobytes() == (1.0 / phi).tobytes()
    for idx in np.ndindex(det.shape):
        d_one, inv_one = det_inv(phi[idx])
        assert np.float64(d_one).tobytes() == det[idx].tobytes()
        assert inv_one.tobytes() == inv[idx].tobytes()
    assert unchecked_det(phi).tobytes() == det.tobytes()


def test_closed_form_det_near_the_floor():
    """Members with |det| in (1e-12, 1e-10] pass the floor with the exact
    det's sign and within a few ulp of |a d| + |b c| of it; the residual
    phi @ inv - I of each inverse stays within 2 cond(phi) eps, the bound
    LAPACK's inverses meet too."""
    rng = rng_from_seed(12)
    target = rng.uniform(1e-12, 1e-10, 48)
    target[::2] *= -1.0
    O = orthogonal_from_normal(rng.standard_normal((48, 2, 2, 2)))
    a = rng.uniform(0.5, 2.0, 48)
    phi = O[:, 0] * np.stack([a, target / a], -1)[:, None, :] @ O[:, 1]
    exact = np.array([_exact_det(m) for m in phi])
    keep = (np.abs(exact) > 1e-12) & (np.abs(exact) <= 1e-10)
    assert keep.sum() >= 40
    phi, exact = phi[keep], exact[keep]
    det, inv = det_inv(phi)
    scale = np.abs(phi[:, 0, 0] * phi[:, 1, 1]) + np.abs(phi[:, 0, 1] * phi[:, 1, 0])
    assert np.all(np.sign(det) == np.sign(exact))
    assert np.all(np.abs(det - exact) <= 2.0 * EPS * scale)
    bound = 2.0 * EPS * np.linalg.cond(phi)
    for m_inv in (inv, np.linalg.inv(phi)):
        assert np.all(np.abs(phi @ m_inv - np.eye(2)).max(axis=(-2, -1)) <= bound)
    # a dyadic member with det 2^-36 = 1.46e-11 and an inverse of integers:
    # the closed form is exact, where np.linalg.det (by way of log|det|) is not
    m = np.array([[1.0, 1.0], [1.0, 1.0 + 2.0 ** -36]])
    assert checked_det(m, require_positive=True) == 2.0 ** -36
    assert np.array_equal(det_inv(m)[1], [[2.0 ** 36 + 1, -2.0 ** 36], [-2.0 ** 36, 2.0 ** 36]])


def test_closed_form_inverse_of_ill_conditioned_stacks():
    """phi = O1 diag(sqrt(c), 1/sqrt(c)) O2 has det 1 and cond c up to 1e12:
    for each c, the residual phi @ inv - I of the kernel's inverse is no
    worse than LAPACK's (within a factor 2) and both stay within 8 c eps."""
    rng = rng_from_seed(13)
    conds = 10.0 ** np.arange(0, 13)
    O = orthogonal_from_normal(rng.standard_normal((len(conds), 64, 2, 2, 2)))
    s = np.stack([np.sqrt(conds), 1.0 / np.sqrt(conds)], -1)[:, None, None, :]
    phi = O[:, :, 0] * s @ O[:, :, 1]
    _, inv = det_inv(phi)
    eye = np.eye(2)
    ours = np.abs(phi @ inv - eye).max(axis=(1, 2, 3))
    lapack = np.abs(phi @ np.linalg.inv(phi) - eye).max(axis=(1, 2, 3))
    assert np.all(ours <= 2.0 * lapack + 2.0 * EPS)
    assert np.all(np.maximum(ours, lapack) <= 8.0 * EPS * conds)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernel_names_the_failing_member_of_a_stack(n):
    """Across two stack axes a singular, a NaN and a reflected member are
    named ``phi[i, j]``, and det_inv raises before any inverse is formed,
    so no division warning escapes."""
    import warnings

    eye, singular = np.eye(n), np.zeros((n, n))
    flipped = np.diag([-1.0] + [1.0] * (n - 1))
    stack = np.stack([np.stack([eye, eye, eye]), np.stack([eye, eye, singular])])
    with warnings.catch_warnings():
        # LAPACK (n >= 3) warns on the NaN member; the closed form stays silent
        warnings.simplefilter("error" if n <= 2 else "ignore")
        with pytest.raises(SingularInput, match=r"^phi\[1, 2\] is singular \(\|det\| = 0\.000e\+00"):
            det_inv(stack)
        stack[1, 2] = eye
        stack[0, 1, -1, -1] = np.nan
        with pytest.raises(SingularInput, match=r"^phi\[0, 1\] is singular \(\|det\| = nan"):
            det_inv(stack)
        stack[0, 1] = flipped
        with pytest.raises(NegativeOrientation, match=r"^phi\[0, 1\] has det = -1\.000e\+00 < 0"):
            checked_det(stack, require_positive=True)
    assert checked_det(stack)[0, 1] == -1.0


@pytest.mark.parametrize("n", [2, 3])
def test_an_overflowing_det_is_not_finite_and_raises(n):
    """|det| = inf, from finite entries such as 1e200 Id, fails the check as
    a NaN det does: checked_det and det_inv raise SingularInput naming the
    matrix or the stack member, and no zero inverse comes back."""
    huge, eye = 1e200 * np.eye(n), np.eye(n)
    with np.errstate(over="ignore"):
        with pytest.raises(SingularInput, match=r"^phi is singular \(\|det\| = inf is not fin"):
            checked_det(huge)
        with pytest.raises(SingularInput, match=r"^psi\[1\] is singular \(\|det\| = inf is"):
            det_inv(np.stack([eye, huge, eye]), "psi")


@pytest.mark.parametrize("n", [3, 4])
def test_kernel_is_lapack_at_n_3_and_4(n):
    """From n = 3 on, det and inverse are LAPACK's, bit for bit."""
    rng = rng_from_seed(14 + n)
    phi = np.eye(n) + 0.3 * rng.standard_normal((8, 2, n, n))
    det, inv = det_inv(phi)
    assert det.tobytes() == np.linalg.det(phi).tobytes() == unchecked_det(phi).tobytes()
    assert inv.tobytes() == np.linalg.inv(phi).tobytes()
