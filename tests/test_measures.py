import numpy as np
import pytest
from scipy import stats

from affinekit.errors import DegenerateSpectrum, NegativeOrientation
from affinekit.matcore import TwoPolarFactors, two_polar_decompose
from affinekit.measures import (angles_from_rotation, chart_density,
                                chart_weight, haar_density, jacobian_oracle,
                                measure_check_report, pow_each, rotation_from_angles,
                                sample_orthogonal, twopolar_densities)


def factors_from_q(q, L=None, R=None):
    q = np.asarray(q, dtype=float)
    n = len(q)
    L = np.eye(n) if L is None else L
    R = np.eye(n) if R is None else R
    return TwoPolarFactors(L=L, D=np.diag(np.exp(q)), R=R, q=q)


# ---------------------------------------------------------------------------
# densities on GL+

def test_haar_density_unimodular_point():
    phi = np.diag([2.0, 0.5])
    for kind in ("haar_lambda", "haar_alpha"):
        assert haar_density(phi, kind) == 1.0


def test_haar_lambda_value():
    assert abs(haar_density(np.diag([2.0, 1.0]), "haar_lambda") - 0.25) <= 1e-15


def test_lebesgue_density_is_one(glplus):
    phi = glplus(3)
    assert haar_density(phi, "lebesgue_l") == 1.0
    assert haar_density(phi, "lebesgue_a") == 1.0


def test_haar_lambda_bi_invariance(glplus):
    """density(A phi) (det A)^n = density(phi), exactly, both sides."""
    for n in (2, 3):
        for _ in range(20):
            phi, A = glplus(n), glplus(n)
            d0 = haar_density(phi, "haar_lambda")
            det_a = np.linalg.det(A)
            assert abs(haar_density(A @ phi, "haar_lambda") * det_a ** n - d0) <= 1e-12 * d0
            assert abs(haar_density(phi @ A, "haar_lambda") * det_a ** n - d0) <= 1e-12 * d0


def test_haar_alpha_left_but_not_right_invariant(glplus):
    """Left translations of the affine group move (x, phi) to (Ax + c, A phi)
    with Jacobian (det A)^(n+1): the alpha density compensates it exactly.
    Right translations have Jacobian (det B)^n only, and the group is not
    unimodular, so the same density fails by a factor det B."""
    n = 2
    for _ in range(20):
        phi, A = glplus(n), glplus(n)
        d0 = haar_density(phi, "haar_alpha")
        det_a = np.linalg.det(A)
        left = haar_density(A @ phi, "haar_alpha") * det_a ** (n + 1)
        assert abs(left - d0) <= 1e-12 * d0
        right = haar_density(phi @ A, "haar_alpha") * det_a ** n
        assert abs(right * det_a - d0) <= 1e-12 * d0  # off by exactly det A
        if abs(det_a - 1.0) > 0.2:
            assert abs(right - d0) > 0.05 * d0


# ---------------------------------------------------------------------------
# two-polar densities

def test_twopolar_n1_constant():
    for q in (-1.0, 0.0, 2.0):
        haar, _ = twopolar_densities(factors_from_q([q]))
        assert haar == 1.0


def test_twopolar_vanishes_on_coincident_q():
    haar, lebesgue = twopolar_densities(factors_from_q([0.3, 0.3]))
    assert haar == 0.0 and lebesgue == 0.0


def test_twopolar_ratio_identity(glplus):
    """haar / lebesgue = (det phi)^-n at every regular point."""
    for n in (2, 3):
        for _ in range(20):
            f = two_polar_decompose(glplus(n))
            haar, lebesgue = twopolar_densities(f)
            if lebesgue == 0.0:
                continue
            expected = np.linalg.det(f.reconstruct()) ** (-n)
            assert abs(haar / lebesgue - expected) <= 1e-8 * abs(expected)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_densities_equal_per_matrix_values(glplus, n):
    """A stack's densities equal those of its members alone bit for bit,
    also where numpy's array power would round differently."""
    phi = np.stack([glplus(n) for _ in range(40)])
    for kind in ("haar_lambda", "haar_alpha", "lebesgue_l"):
        stacked = haar_density(phi, kind)
        assert stacked.shape == (40,)
        assert stacked.tolist() == [haar_density(m, kind) for m in phi]
    haar, lebesgue = twopolar_densities(two_polar_decompose(phi))
    singles = [twopolar_densities(two_polar_decompose(m)) for m in phi]
    assert haar.tolist() == [h for h, _ in singles]
    assert lebesgue.tolist() == [le for _, le in singles]
    assert haar_density(phi.reshape(4, 10, n, n), "haar_alpha").shape == (4, 10)


def test_pow_each_rounds_as_scalar_pow():
    d = np.random.default_rng(3).uniform(0.01, 5.0, 2000)
    for p in (-4, -3, -2, 2, 3):
        assert pow_each(d, p).tolist() == [float(x) ** p for x in d]
    assert (d ** -3 != pow_each(d, -3)).any()  # the array power rounds otherwise


def test_stacked_haar_density_names_a_bad_member():
    phi = np.stack([np.eye(2), np.diag([1.0, -1.0]), np.eye(2)])
    with pytest.raises(NegativeOrientation, match=r"phi\[1\]"):
        haar_density(phi, "haar_lambda")


# ---------------------------------------------------------------------------
# Jacobian oracle

def test_oracle_n1_exponential():
    for q in (-0.5, 0.0, 1.2):
        assert abs(jacobian_oracle(factors_from_q([q])) - np.exp(q)) <= 1e-8


def test_oracle_n2_sinh_form(rng):
    """Numeric Jacobian is proportional to |sinh(dq)| e^(2 sum q) with a
    configuration-independent constant (the constant is 2)."""
    ratios = []
    for _ in range(40):
        q = np.sort(rng.uniform(-1, 1, 2))[::-1]
        if q[0] - q[1] < 5e-2:
            continue
        th_l, th_r = rng.uniform(0, 2 * np.pi, 2)
        f = factors_from_q(q, L=rotation_from_angles(2, th_l),
                           R=rotation_from_angles(2, th_r))
        jac = jacobian_oracle(f)
        base = abs(np.sinh(q[0] - q[1])) * np.exp(2 * q.sum())
        ratios.append(jac / base)
    ratios = np.array(ratios)
    assert np.max(np.abs(ratios / 2.0 - 1.0)) <= 1e-6


def test_oracle_matches_chart_density(rng):
    for n in (2, 3):
        count = 0
        while count < 15:
            q = np.sort(rng.uniform(-1, 1, n))[::-1]
            if n > 1 and np.min(-np.diff(q)) < 5e-2:
                continue
            L = sample_orthogonal(n, int(rng.integers(1 << 30)))
            R = sample_orthogonal(n, int(rng.integers(1 << 30)))
            if n == 3:
                try:
                    angles_from_rotation(L)
                    angles_from_rotation(R)
                except DegenerateSpectrum:
                    continue
            f = factors_from_q(q, L=L, R=R)
            jac = jacobian_oracle(f)
            pred = chart_density(f)
            assert abs(jac / pred - 1.0) <= 1e-6
            count += 1


def test_oracle_left_invariance(rng):
    """Replacing L by R0 L at fixed (q, R) leaves the Jacobian (the chart
    weight is constant at n = 2)."""
    q = np.array([0.8, -0.3])
    f1 = factors_from_q(q, L=rotation_from_angles(2, 0.4), R=rotation_from_angles(2, 1.1))
    f2 = factors_from_q(q, L=rotation_from_angles(2, 0.4 + 0.9), R=rotation_from_angles(2, 1.1))
    assert abs(jacobian_oracle(f1) - jacobian_oracle(f2)) <= 1e-6 * jacobian_oracle(f1)


def test_oracle_rejects_coincident_q():
    with pytest.raises(DegenerateSpectrum):
        jacobian_oracle(factors_from_q([0.5, 0.5 + 1e-10]))


def test_measure_check_report_pins_exponent():
    for n in (1, 2, 3):
        report = measure_check_report(n, points=30, seed=3)
        assert report["exponent_e"] == 1
        assert report["max_rel_err"] <= 1e-6
        if n > 1:
            assert abs(report["constant_c"] - 2.0 ** (n * (n - 1) // 2)) <= 1e-5


# ---------------------------------------------------------------------------
# SO(n) sampling

def test_samples_are_special_orthogonal():
    for n in (1, 2, 3, 4):
        mats = sample_orthogonal(n, seed=7, count=50)
        assert mats.shape == (50, n, n)
        for m in mats:
            assert np.max(np.abs(m.T @ m - np.eye(n))) <= 1e-14
            assert abs(np.linalg.det(m) - 1.0) <= 1e-12
        assert sample_orthogonal(n, seed=7).shape == (n, n)


def test_sampling_deterministic_by_seed():
    for n in (3, 4):
        a = sample_orthogonal(n, seed=11, count=5)
        b = sample_orthogonal(n, seed=11, count=5)
        assert a.tobytes() == b.tobytes()
        c = sample_orthogonal(n, seed=12, count=5)
        assert np.max(np.abs(a - c)) > 1e-3


@pytest.mark.parametrize("n", [0, 5])
def test_sampling_rejects_an_unsupported_dimension(n):
    with pytest.raises(ValueError, match=r"1 <= n <= 4"):
        sample_orthogonal(n, seed=1)


def test_so2_angle_uniform():
    """Kolmogorov-Smirnov against the uniform angle law at the 1% level."""
    mats = sample_orthogonal(2, seed=123, count=100_000)
    angles = np.mod(np.arctan2(mats[:, 1, 0], mats[:, 0, 0]), 2 * np.pi)
    d, _ = stats.kstest(angles / (2 * np.pi), "uniform")
    assert d < 1.628 / np.sqrt(len(angles))


def test_haar_invariance_under_fixed_rotation():
    """The scalar f(R) = trace has the same law as f(R0 R)."""
    mats = sample_orthogonal(3, seed=5, count=20_000)
    r0 = sample_orthogonal(3, seed=99)
    t1 = np.trace(mats, axis1=1, axis2=2)
    t2 = np.trace(r0 @ mats, axis1=1, axis2=2)
    _, p = stats.ks_2samp(t1, t2)
    assert p > 0.01


def test_angle_roundtrip():
    for n in (2, 3):
        rng = np.random.default_rng(0)
        for _ in range(20):
            mat = sample_orthogonal(n, seed=int(rng.integers(1 << 30)))
            try:
                ang = angles_from_rotation(mat)
            except DegenerateSpectrum:
                continue
            np.testing.assert_allclose(rotation_from_angles(n, ang), mat, atol=1e-12)
            assert chart_weight(n, ang) >= 0.0


# ---------------------------------------------------------------------------
# stacked charts and Jacobians

@pytest.mark.parametrize("n", [1, 2, 3])
def test_rotation_stack_equals_per_angle_loop(n, rng):
    angles = rng.uniform(0, 2 * np.pi, (7, n * (n - 1) // 2))
    stack = rotation_from_angles(n, angles)
    assert stack.shape == (7, n, n)
    for s in range(7):
        np.testing.assert_array_equal(stack[s], rotation_from_angles(n, angles[s]))


def _regular_factors(rng, n, count):
    out = []
    while len(out) < count:
        q = np.sort(rng.uniform(-1, 1, n))[::-1]
        if n > 1 and np.min(-np.diff(q)) < 5e-2:
            continue
        L = sample_orthogonal(n, int(rng.integers(1 << 30)))
        R = sample_orthogonal(n, int(rng.integers(1 << 30)))
        try:
            angles_from_rotation(L)
            angles_from_rotation(R)
        except DegenerateSpectrum:
            continue
        out.append(factors_from_q(q, L=L, R=R))
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_oracle_equals_the_batched_jacobian(n, rng):
    """jacobian_oracle at a point is the batched Jacobian that
    measure_check_report takes over all its points, bit for bit."""
    from affinekit.measures import _chart_params, _jacobian_dets

    factors = _regular_factors(rng, n, 7)
    batched = _jacobian_dets(n, np.stack([_chart_params(f.L, f.q, f.R) for f in factors]))
    for s, f in enumerate(factors):
        assert batched[s] == jacobian_oracle(f)


def test_batched_jacobian_rejects_coincident_q(rng):
    from affinekit.measures import _chart_params, _jacobian_dets

    factors = _regular_factors(rng, 2, 7)
    factors[4] = factors_from_q([0.5, 0.5 + 1e-10])
    with pytest.raises(DegenerateSpectrum, match="point 4"):
        _jacobian_dets(2, np.stack([_chart_params(f.L, f.q, f.R) for f in factors]))


@pytest.mark.parametrize("points", [0, -3])
def test_measure_check_report_rejects_empty_point_sets(points):
    with pytest.raises(ValueError, match="points must be at least 1"):
        measure_check_report(2, points=points)
