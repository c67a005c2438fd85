import math
import warnings

import numpy as np
import pytest

from affinekit import qdesk
from affinekit.errors import DomainOverflow, InvalidInertia
from affinekit.qdesk import (HERMITIAN_UNDER, MEASURE_TAGS, QGrid, WaveFunction,
                             build_hamiltonian_1d, gaussian_packet, hermiticity_check,
                             invariant_distribution, shift_action_check,
                             shift_wavefunction, solve_spectrum)

GRID = QGrid(q_min=-10.0, q_max=10.0, m=4000, hbar=1.0, alpha_eff=1.0)


def harmonic(k):
    return lambda q: 0.5 * k * q * q


# ---------------------------------------------------------------------------
# operator assembly

def test_box_laplacian_action_on_constant_mode():
    """With V = 0 the interior action on a constant vector vanishes except at
    the Dirichlet walls."""
    grid = QGrid(q_min=0.0, q_max=1.0, m=21)
    op = build_hamiltonian_1d(grid, lambda q: np.zeros_like(q))
    out = op.apply(np.ones(grid.m - 2))
    kin = grid.hbar ** 2 / (2 * grid.alpha_eff * grid.h ** 2)
    np.testing.assert_allclose(out[1:-1], 0.0, atol=1e-12)
    assert abs(out[0] - kin) <= 1e-12 and abs(out[-1] - kin) <= 1e-12


def test_operator_exactly_symmetric():
    op = build_hamiltonian_1d(QGrid(-5.0, 5.0, 200), harmonic(1.0))
    assert op.symmetry_defect() == 0.0


def test_invalid_inertia():
    with pytest.raises(InvalidInertia):
        build_hamiltonian_1d(QGrid(-5.0, 5.0, 100, alpha_eff=-1.0), harmonic(1.0))


@pytest.mark.parametrize("field", ["q_min", "q_max", "hbar", "alpha_eff"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_grid_rejects_non_finite_values(field, value):
    kwargs = dict(q_min=-5.0, q_max=5.0, m=100, hbar=1.0, alpha_eff=1.0)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        QGrid(**kwargs)


@pytest.mark.parametrize("q_min,q_max,field", [(-10.0, 800.0, "q_max"),
                                               (-800.0, -10.0, "q_min"),
                                               (-710.0, 710.0, "q_max")])
def test_grid_rejects_bounds_whose_exponential_overflows(q_min, q_max, field):
    """e^q (the Lebesgue weight) and e^-q (in momentum_p) must be finite on
    the grid: an overflowing bound is an error naming it, raised without a
    warning, so no Hermiticity defect is computed on it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"{field} = .* overflows"):
            QGrid(q_min, q_max, 2000)


def test_grid_accepts_bounds_just_inside_the_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = QGrid(-709.78, 709.78, 16)
        assert np.isfinite(grid.weights("lebesgue")).all() and np.isfinite(np.exp(-grid.q)).all()


def test_grid_arrays_are_built_once_and_read_only():
    grid = QGrid(-5.0, 5.0, 100)
    assert grid.q is grid.q
    np.testing.assert_array_equal(grid.q, np.linspace(-5.0, 5.0, 100))
    arrays = [grid.q]
    for measure in MEASURE_TAGS:
        assert grid.weights(measure) is grid.weights(measure)
        arrays.append(grid.weights(measure))
    np.testing.assert_array_equal(grid.weights("lebesgue"), np.exp(grid.q))
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    # equal grids stay equal and hashable whichever arrays they have built
    assert grid == QGrid(-5.0, 5.0, 100) and hash(grid) == hash(QGrid(-5.0, 5.0, 100))


# ---------------------------------------------------------------------------
# spectra

@pytest.mark.parametrize("k", [1, 5, 12])
@pytest.mark.parametrize("V", [harmonic(1.0), lambda q: 0.1 * q ** 4 - q * q],
                         ids=["harmonic", "double_well"])
def test_levels_alone_equal_the_spectrum_energies_bit_for_bit(k, V):
    op = build_hamiltonian_1d(GRID, V)
    levels = qdesk._solve_tridiagonal(op, k, eigvals_only=True)
    energies, _ = solve_spectrum(op, k)
    assert levels.dtype == energies.dtype and levels.tobytes() == energies.tobytes()


@pytest.mark.parametrize("k", [0, 3999])
def test_levels_validate_k_as_the_spectrum_does(k):
    op = build_hamiltonian_1d(GRID, harmonic(1.0))
    for solve in (lambda: qdesk._solve_tridiagonal(op, k, eigvals_only=True),
                  lambda: solve_spectrum(op, k)):
        with pytest.raises(ValueError, match="k must be between"):
            solve()


def test_harmonic_levels():
    op = build_hamiltonian_1d(GRID, harmonic(1.0))
    energies, states = solve_spectrum(op, 5)
    exact = np.arange(5) + 0.5
    assert np.max(np.abs(energies - exact) / exact) <= 1e-4
    # orthonormal in the Haar inner product
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            ip = GRID.inner(a.values, b.values, "haar")
            assert abs(ip - (1.0 if i == j else 0.0)) <= 1e-10


def test_harmonic_ground_state_scaling():
    """E_0 approaches hbar sqrt(k / alpha) / 2 as the grid refines."""
    k, alpha = 2.0, 3.0
    exact = np.sqrt(k / alpha) / 2.0
    errs = []
    for m in (500, 1000, 2000):
        grid = QGrid(-8.0, 8.0, m, alpha_eff=alpha)
        energies, _ = solve_spectrum(build_hamiltonian_1d(grid, harmonic(k)), 1)
        errs.append(abs(energies[0] - exact))
    assert errs[-1] <= 1e-5
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


def test_particle_in_box_levels():
    grid = QGrid(-1.0, 1.0, 2000, alpha_eff=1.0)
    op = build_hamiltonian_1d(grid, lambda q: np.zeros_like(q))
    energies, _ = solve_spectrum(op, 5)
    W = grid.q_max - grid.q_min
    exact = np.pi ** 2 * (np.arange(5) + 1) ** 2 / (2.0 * W ** 2)
    assert np.max(np.abs(energies - exact) / exact) <= 1e-3


def test_spectrum_real_and_bounded_below():
    op = build_hamiltonian_1d(GRID, harmonic(1.0))
    energies, _ = solve_spectrum(op, 10)
    assert np.all(np.isreal(energies))
    assert np.all(np.diff(energies) > 0)
    assert energies[0] > 0


# ---------------------------------------------------------------------------
# Hermiticity of the generators

def test_sigma_hermitian_under_haar():
    assert hermiticity_check(GRID, "Sigma", "haar") <= 1e-10


def test_sigma_defect_under_lebesgue_is_order_one():
    assert hermiticity_check(GRID, "Sigma", "lebesgue") > 1e-3


def test_corrected_sigma_hermitian_under_lebesgue():
    assert hermiticity_check(GRID, "Sigma_corrected", "lebesgue") <= 1e-10


def test_momentum_hermitian_under_lebesgue():
    assert hermiticity_check(GRID, "momentum_p", "lebesgue") <= 1e-10


def _hermiticity_reference(grid, op_kind, measure):
    """The defect with the operator applied on both sides of every pair."""
    span, mid = grid.q_max - grid.q_min, 0.5 * (grid.q_min + grid.q_max)
    fams = []
    for center, width, wavenumber in ((mid, 0.30 * span, 0.0),
                                      (mid - 0.12 * span, 0.22 * span, 2.0),
                                      (mid + 0.10 * span, 0.25 * span, -3.0),
                                      (mid, 0.35 * span, 5.0)):
        f = qdesk._bump(grid, center, width, wavenumber)
        fams.append(f / np.sqrt(abs(grid.inner(f, f, measure))))
    defect = 0.0
    for f in fams:
        for g in fams:
            lhs = grid.inner(f, qdesk._apply_operator(op_kind, grid, g), measure)
            rhs = grid.inner(qdesk._apply_operator(op_kind, grid, f), g, measure)
            defect = max(defect, abs(lhs - rhs))
    return defect


@pytest.mark.parametrize("grid", [GRID, QGrid(-8.0, 8.0, 2000)], ids=["m4000", "m2000"])
@pytest.mark.parametrize("kind,measure",
                         list(HERMITIAN_UNDER.items()) + [("Sigma", "lebesgue")])
def test_hermiticity_check_applies_each_operator_once_and_keeps_its_bytes(
        grid, kind, measure, monkeypatch):
    expected = _hermiticity_reference(grid, kind, measure)
    calls = []
    apply = qdesk._apply_operator
    monkeypatch.setattr(qdesk, "_apply_operator",
                        lambda *args: calls.append(args[0]) or apply(*args))
    assert hermiticity_check(grid, kind, measure).hex() == expected.hex()
    assert calls == [kind] * 4


def test_hermiticity_check_keeps_a_nan_defect(monkeypatch):
    """A NaN in one pair's defect is the result: max(0.0, nan) would drop it
    and report the finite maximum of the other pairs."""
    apply = qdesk._apply_operator
    calls = []

    def nan_in_second_family(kind, grid, f):
        out = apply(kind, grid, f)
        calls.append(kind)
        if len(calls) == 2:
            out[grid.m // 2] = np.nan
        return out

    monkeypatch.setattr(qdesk, "_apply_operator", nan_in_second_family)
    assert math.isnan(hermiticity_check(QGrid(-8.0, 8.0, 2000), "Sigma", "haar"))


# ---------------------------------------------------------------------------
# shift exponentials

def _cubic_spline_shift(psi, z):
    """The shift as two scipy CubicSplines, the reference for the bytes."""
    from scipy.interpolate import CubicSpline

    grid = psi.grid
    target = grid.q + z
    inside = (target >= grid.q_min) & (target <= grid.q_max)
    out = np.zeros(grid.m, dtype=complex)
    re, im = CubicSpline(grid.q, psi.values.real), CubicSpline(grid.q, psi.values.imag)
    out[inside] = re(target[inside]) + 1j * im(target[inside])
    return out


# the 16-point minimum, 2000- and 4000-point grids with symmetric and
# asymmetric bounds; where the spacing is a power of two, a shift by a
# multiple of it lands exactly on the knots
SHIFT_GRIDS = {
    "m16": QGrid(-7.5, 7.5, 16),
    "m16_asym": QGrid(-3.1, 8.2, 16),
    "m2000": QGrid(-8.0, 8.0, 2000),
    "m2000_asym": QGrid(-5.0, -5.0 + 1999 / 128, 2000),
    "m4000": GRID,
    "m4000_asym": QGrid(-6.0, -6.0 + 3999 / 256, 4000),
}


@pytest.mark.parametrize("wavenumber", [2.5, 0.0], ids=["complex", "real"])
@pytest.mark.parametrize("z", [0.3, -0.45, "h", "-2h"])
@pytest.mark.parametrize("name", list(SHIFT_GRIDS))
def test_shift_is_bit_identical_to_cubic_spline(name, z, wavenumber):
    grid = SHIFT_GRIDS[name]
    if isinstance(z, str):
        z = {"h": grid.h, "-2h": -2 * grid.h}[z]
        if math.log2(grid.h).is_integer():
            target = grid.q + z
            inside = (target >= grid.q_min) & (target <= grid.q_max)
            assert np.isin(target[inside], grid.q).all()
    psi = gaussian_packet(grid, center=0.5 * (grid.q_min + grid.q_max),
                          width=(grid.q_max - grid.q_min) / 30, wavenumber=wavenumber)
    assert psi.values.imag.any() == bool(wavenumber)
    shifted = shift_wavefunction(psi, z).values
    assert shifted.dtype == complex and shifted.tobytes() == _cubic_spline_shift(psi, z).tobytes()


def test_spline_is_bit_identical_to_cubic_spline_on_random_data():
    """Random values on random grids, read at both ends, at interior knots and
    between them: the shift's DomainOverflow contract keeps the spline's end
    rows on values near roundoff, so this is where they are checked."""
    from scipy.interpolate import CubicSpline

    rng = np.random.default_rng(2808)
    for _ in range(100):
        m = int(rng.integers(16, 300))
        q_min = rng.uniform(-10.0, 0.0)
        x = np.linspace(q_min, q_min + rng.uniform(1.0, 20.0), m)
        y = rng.normal(size=(m, 2))
        t = np.sort(np.concatenate([x[[0, -1]], x[rng.integers(1, m - 1, 5)],
                                    rng.uniform(x[0], x[-1], 40)]))
        expected = np.stack([CubicSpline(x, y[:, 0])(t), CubicSpline(x, y[:, 1])(t)], axis=1)
        assert qdesk._not_a_knot_spline(x, y, t).tobytes() == expected.tobytes()


def test_shift_rejects_non_finite_values():
    values = gaussian_packet(GRID).values.copy()
    values[7] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        shift_wavefunction(WaveFunction(GRID, values), 0.3)


def test_shift_zero_is_exact():
    psi = gaussian_packet(GRID, center=0.0, width=1.0)
    assert shift_action_check(0.0, psi) <= 1e-14


def test_shift_gaussian_small_error():
    psi = gaussian_packet(GRID, center=0.0, width=1.0)
    assert shift_action_check(0.3, psi) <= 1e-6
    assert shift_action_check(-0.45, psi) <= 1e-6


def test_shift_composition():
    """Two successive shifts equal the single combined shift."""
    psi = gaussian_packet(GRID, center=0.0, width=1.2)
    once = shift_wavefunction(shift_wavefunction(psi, 0.2), 0.3)
    combined = shift_wavefunction(psi, 0.5)
    inside = np.abs(GRID.q) < 5.0
    assert np.max(np.abs(once.values[inside] - combined.values[inside])) <= 1e-6


def test_shift_overflow_raises():
    psi = gaussian_packet(GRID, center=8.0, width=1.0)
    with pytest.raises(DomainOverflow, match=r"^shift z = 5.0 moves the support off the grid$"):
        shift_wavefunction(psi, 5.0)


def test_kinetic_operator_commutes_with_translation():
    """With V = 0 the discrete kinetic operator is shift covariant, mirroring
    the free classical dilatational motion."""
    grid = QGrid(-10.0, 10.0, 2001)
    op = build_hamiltonian_1d(grid, lambda q: np.zeros_like(q))
    psi = gaussian_packet(grid, center=-1.0, width=0.8)
    shift_points = 100  # exact grid multiple: no interpolation error at all
    z = shift_points * grid.h
    applied = np.zeros(grid.m, dtype=complex)
    applied[1:-1] = op.apply(psi.values[1:-1])
    shifted_then_applied = np.zeros(grid.m, dtype=complex)
    shifted_then_applied[1:-1] = op.apply(np.roll(psi.values, -shift_points)[1:-1])
    applied_then_shifted = np.roll(applied, -shift_points)
    inside = np.abs(grid.q) < 5.0
    assert np.max(np.abs(shifted_then_applied[inside] - applied_then_shifted[inside])) <= 1e-12


# ---------------------------------------------------------------------------
# distributions

def test_distribution_normalized_and_nonnegative():
    for measure in ("haar", "lebesgue"):
        psi = gaussian_packet(GRID, center=0.5, width=0.8, measure=measure).normalize()
        rho = invariant_distribution(psi)
        assert np.all(rho >= 0.0)
        assert abs(GRID.h * rho.sum() - 1.0) <= 1e-10


def test_harmonic_ground_state_variance():
    """rho of the ground state is Gaussian with variance hbar/(2 sqrt(k alpha))."""
    k, alpha = 1.0, 1.0
    grid = QGrid(-10.0, 10.0, 4000, alpha_eff=alpha)
    _, states = solve_spectrum(build_hamiltonian_1d(grid, harmonic(k)), 1)
    rho = invariant_distribution(states[0])
    var = grid.h * np.sum(grid.q ** 2 * rho)
    exact = 1.0 / (2.0 * np.sqrt(k * alpha))
    assert abs(var - exact) / exact <= 1e-3


def test_wavefunction_normalize_respects_measure():
    vals = np.exp(-0.5 * GRID.q ** 2)
    for measure in ("haar", "lebesgue"):
        psi = WaveFunction(GRID, vals, measure).normalize()
        assert abs(psi.norm_squared() - 1.0) <= 1e-12


def test_classical_quantum_dilatational_frequency_agrees():
    """Cross-module coherence at n = 1: the classical one-body volume
    oscillator (af-af kinetic + log-squared stabilizer) swings at the same
    frequency whose quantum level spacing the grid Hamiltonian produces,
    because both reduce the inertia triple to alpha_eff = I + A + B."""
    from affinekit.dynamics import PhaseState, integrate
    from affinekit.kinematics import SystemConfig
    from affinekit.kinetics import InertiaParams, KineticModel, MomentumState
    from affinekit.potentials import DilatationTerm, PotentialSpec

    A, B, kappa = 2.0, 1.0, 1.0
    alpha_eff = A + B  # I = 0 in the af-af model
    omega = np.sqrt(kappa / alpha_eff)

    # classical: small oscillation of q = ln phi about the stabilizer minimum
    model = KineticModel("dalembert", "af-af")
    params = InertiaParams(M=1.0, A=A, B=B)
    spec = PotentialSpec(dil=DilatationTerm(kappa=kappa, d_ref=1.0))
    q0 = 0.02
    s0 = PhaseState(config=SystemConfig(x=np.zeros((1, 1)),
                                        phi=np.array([[[np.exp(q0)]]])),
                    mom=MomentumState(p=np.zeros((1, 1)), pi=np.zeros((1, 1, 1))))
    period = 2 * np.pi / omega
    traj = integrate(model, params, spec, s0, dt=5e-3, T=4 * period + 0.5)
    q_t = np.log(traj.charges.det_phi[:, 0])
    t = traj.times
    idx = np.where((q_t[:-1] < 0) & (q_t[1:] >= 0))[0]
    crossings = t[idx] - q_t[idx] * (t[idx + 1] - t[idx]) / (q_t[idx + 1] - q_t[idx])
    measured = np.mean(np.diff(crossings))
    assert abs(measured - period) / period <= 1e-3

    # quantum: level spacing hbar omega from the same inertia reduction
    grid = QGrid(q_min=-10.0, q_max=10.0, m=4000, hbar=1.0, alpha_eff=alpha_eff)
    energies, _ = solve_spectrum(
        build_hamiltonian_1d(grid, lambda q: 0.5 * kappa * q * q), 3)
    spacing = np.diff(energies)
    assert np.max(np.abs(spacing - omega) / omega) <= 1e-4
