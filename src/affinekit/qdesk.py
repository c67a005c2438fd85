"""Desk-scale quantization on GL+(1) = R+, in the log coordinate q = ln phi.

The Haar measure on R+ is dq and the Lebesgue measure is e^q dq, so the
Hilbert-space weight is 1 or e^q depending on the tag.  The dilatational
generator and its companions are discretized as first-order stencils chosen
so that formal Hermiticity holds *exactly* on the grid (the measured defect
is pure roundoff):

* ``Sigma``           (hbar/i) d/dq              Hermitian under Haar
* ``Sigma_corrected`` (hbar/i) (d/dq + 1/2)      Hermitian under Lebesgue;
  the discrete stencil is the e^(q/2) similarity transform of the Haar one,
  (hbar/i) (e^(h/2) f_{j+1} - e^(-h/2) f_{j-1}) / 2h
* ``momentum_p``      (hbar/i) e^-q d/dq         Hermitian under Lebesgue

The kinetic operator is -(hbar^2 / 2 alpha_eff) d2/dq2 with Dirichlet box
ends, where alpha_eff = I + A + B is the one-dimensional reduction of the
isotropic affine inertia triple.  Dirichlet walls are a choice made here:
use potentials that confine well inside [q_min, q_max].  The operator is
symmetric by construction: one ``off`` array holds both off-diagonals.  Its
kinetic constant is formed in float64, and a constant or a potential that
overflows is a ValueError naming alpha_eff and hbar or the potential, not a
numpy warning and a failed eigensolve.  A grid builds q and
its measure weights once, on first use, as read-only arrays.  A bound whose
e^q or e^-q overflows is rejected when the grid is made.

The shift exp((i/hbar) z Sigma) is a translation by z in q, realized by the
not-a-knot cubic spline through the real and imaginary parts.  Its knot
slopes solve one tridiagonal system (scipy.linalg.solve_banded, both parts
as right-hand sides), its coefficients are the cubic Hermite ones, and it is
evaluated term by term in scipy PPoly's order, so every shifted value is
bit-identical to scipy.interpolate.CubicSpline's.  scipy.interpolate itself
is not imported: it also loads scipy.optimize, sparse, spatial, special, fft
and constants, which cost a process about 23 MB of peak RSS and 0.2 s
of import, more than the rest of ``check qdesk``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceFailure, DomainOverflow, InvalidInertia

# each generator and the measure it is Hermitian under, as listed above
HERMITIAN_UNDER = {"Sigma": "haar", "Sigma_corrected": "lebesgue", "momentum_p": "lebesgue"}
OPERATOR_KINDS = tuple(HERMITIAN_UNDER)
MEASURE_TAGS = ("haar", "lebesgue")


@dataclass(frozen=True)
class QGrid:
    q_min: float
    q_max: float
    m: int
    hbar: float = 1.0
    alpha_eff: float = 1.0

    def __post_init__(self):
        for name in ("q_min", "q_max", "hbar", "alpha_eff"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.q_min < self.q_max:
            raise ValueError("q_min must be below q_max")
        if self.m < 16:
            raise ValueError("need at least 16 grid points")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")
        # the Lebesgue weight e^q and momentum_p's e^-q must be finite on the grid
        with np.errstate(over="ignore"):
            overflows = ~np.isfinite(np.exp([self.q_max, -self.q_min]))
        for name, power, over in zip(("q_max", "q_min"), ("e^q", "e^-q"), overflows):
            if over:
                raise ValueError(f"{name} = {getattr(self, name)} overflows {power} on the "
                                 "grid (e^709.78 is the largest finite double)")

    @property
    def h(self) -> float:
        return (self.q_max - self.q_min) / (self.m - 1)

    @functools.cached_property
    def q(self) -> np.ndarray:
        q = np.linspace(self.q_min, self.q_max, self.m)
        q.flags.writeable = False
        return q

    def weights(self, measure: str) -> np.ndarray:
        if measure not in MEASURE_TAGS:
            raise ValueError(f"unknown measure tag {measure!r}")
        return self._weights[measure]

    @functools.cached_property
    def _weights(self) -> dict:
        haar, lebesgue = np.ones(self.m), np.exp(self.q)
        haar.flags.writeable = lebesgue.flags.writeable = False
        return {"haar": haar, "lebesgue": lebesgue}

    def inner(self, f: np.ndarray, g: np.ndarray, measure: str) -> complex:
        return complex(self.h * np.sum(np.conj(f) * self.weights(measure) * g))


@dataclass(frozen=True)
class WaveFunction:
    grid: QGrid
    values: np.ndarray
    measure: str = "haar"
    profile: object = field(default=None, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.m,):
            raise ValueError("values must match the grid size")
        object.__setattr__(self, "values", vals)
        if self.measure not in MEASURE_TAGS:
            raise ValueError(f"unknown measure tag {self.measure!r}")

    def norm_squared(self) -> float:
        return float(np.real(self.grid.inner(self.values, self.values, self.measure)))

    def normalize(self) -> "WaveFunction":
        ns = self.norm_squared()
        if ns <= 0:
            raise ValueError("cannot normalize a zero wave function")
        return WaveFunction(self.grid, self.values / np.sqrt(ns), self.measure,
                            profile=self.profile)


def gaussian_packet(grid: QGrid, center: float = 0.0, width: float = 1.0,
                    wavenumber: float = 0.0, measure: str = "haar") -> WaveFunction:
    """Normalized Gaussian test wave function carrying its analytic profile."""
    def profile(q):
        return np.exp(-0.5 * ((q - center) / width) ** 2 + 1j * wavenumber * q)

    psi = WaveFunction(grid, profile(grid.q), measure, profile=profile)
    norm = np.sqrt(psi.norm_squared())
    return WaveFunction(grid, psi.values / norm, measure,
                        profile=lambda q: profile(q) / norm)


# ---------------------------------------------------------------------------
# Hamiltonian assembly and spectrum

@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal operator on the interior grid points."""

    grid: QGrid
    diag: np.ndarray
    off: np.ndarray

    def apply(self, interior: np.ndarray) -> np.ndarray:
        out = self.diag * interior
        out[:-1] += self.off * interior[1:]
        out[1:] += self.off * interior[:-1]
        return out


def build_hamiltonian_1d(grid: QGrid, V) -> TridiagonalOperator:
    """H = -(hbar^2 / 2 alpha_eff) d2/dq2 + V(q), Dirichlet box walls.

    The operator acts on the m - 2 interior points; the walls sit exactly at
    q_min and q_max.  A kinetic constant kin = hbar^2 / (2 alpha_eff h^2)
    whose 2 kin is not finite and positive, or a diagonal 2 kin + V(q) that
    is not finite, raises ValueError naming alpha_eff and hbar or the
    potential, without a numpy warning.
    """
    if grid.alpha_eff <= 0:
        raise InvalidInertia(f"alpha_eff must be positive, got {grid.alpha_eff}")
    q = grid.q[1:-1]
    h = grid.h
    with np.errstate(all="ignore"):  # in float64, so an overflow is inf, not OverflowError
        kin = np.float64(grid.hbar) ** 2 / (2.0 * np.float64(grid.alpha_eff) * h * h)
        diag = 2.0 * kin + np.asarray(V(q), dtype=float)
    if not 0.0 < 2.0 * kin < np.inf:
        raise ValueError(f"the kinetic constant hbar^2 / (2 alpha_eff h^2) is {kin}, not finite "
                         f"and positive, at alpha_eff = {grid.alpha_eff!r}, "
                         f"hbar = {grid.hbar!r} and h = {h!r}")
    bad = ~np.isfinite(diag)
    if bad.any():
        j = int(np.argmax(bad))
        raise ValueError(f"the potential gives a diagonal 2 kin + V(q) = {diag[j]}, not "
                         f"finite, at q = {float(q[j])!r} on q in "
                         f"[{grid.q_min!r}, {grid.q_max!r}]")
    off = -kin * np.ones(grid.m - 3)
    return TridiagonalOperator(grid=grid, diag=diag, off=off)


def _solve_tridiagonal(op: TridiagonalOperator, k: int, eigvals_only: bool):
    """Lowest k eigenvalues (LAPACK dstebz), and their eigenvectors unless eigvals_only."""
    from scipy.linalg import eigh_tridiagonal  # scipy loads only when a spectrum is solved
    if k < 1 or k > len(op.diag):
        raise ValueError("k must be between 1 and the interior size")
    try:
        return eigh_tridiagonal(op.diag, op.off, eigvals_only, select="i", select_range=(0, k - 1))
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceFailure("tridiagonal eigensolver failed") from exc


def solve_spectrum(op: TridiagonalOperator, k: int) -> tuple[np.ndarray, list]:
    """Lowest k eigenpairs, eigenvectors normalized in the Haar inner product."""
    energies, vecs = _solve_tridiagonal(op, k, eigvals_only=False)
    states = []
    for j in range(k):
        full = np.zeros(op.grid.m, dtype=complex)
        full[1:-1] = vecs[:, j]
        states.append(WaveFunction(op.grid, full, "haar").normalize())
    return energies, states


# ---------------------------------------------------------------------------
# generator stencils and Hermiticity

def _apply_operator(kind: str, grid: QGrid, f: np.ndarray) -> np.ndarray:
    if kind not in OPERATOR_KINDS:
        raise ValueError(f"unknown operator kind {kind!r}; choose from {OPERATOR_KINDS}")
    h = grid.h
    coeff = grid.hbar / 1j
    out = np.zeros_like(f, dtype=complex)
    if kind == "Sigma":
        out[1:-1] = coeff * (f[2:] - f[:-2]) / (2 * h)
    elif kind == "Sigma_corrected":
        out[1:-1] = coeff * (np.exp(h / 2) * f[2:] - np.exp(-h / 2) * f[:-2]) / (2 * h)
    else:  # momentum_p
        out[1:-1] = coeff * np.exp(-grid.q[1:-1]) * (f[2:] - f[:-2]) / (2 * h)
    return out


def _bump(grid: QGrid, center: float, width: float, wavenumber: float) -> np.ndarray:
    """Compactly supported smooth C-infinity bump times a plane wave."""
    t = (grid.q - center) / width
    vals = np.zeros(grid.m, dtype=complex)
    inside = np.abs(t) < 1.0
    vals[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2)) * np.exp(1j * wavenumber * grid.q[inside])
    return vals


@np.errstate(over="ignore", invalid="ignore")  # a non-finite norm or defect raises
def hermiticity_check(grid: QGrid, op_kind: str, measure: str) -> float:
    """Max |<f, Op g> - <Op f, g>| over a family of compact test pairs.

    Test functions are normalized in the tagged inner product, so the defect
    is scale free: ~1e-16 for a formally Hermitian pairing and O(1) for a
    broken one (the uncorrected generator under the Lebesgue weight).  A norm
    not finite and positive, or a defect not finite, raises ValueError.
    """
    where = f"{op_kind} under the {measure} measure on q in [{grid.q_min!r}, {grid.q_max!r}]"
    span = grid.q_max - grid.q_min
    mid = 0.5 * (grid.q_min + grid.q_max)
    fams = []
    for center, width, wavenumber in (
        (mid, 0.30 * span, 0.0),
        (mid - 0.12 * span, 0.22 * span, 2.0),
        (mid + 0.10 * span, 0.25 * span, -3.0),
        (mid, 0.35 * span, 5.0),
    ):
        f = _bump(grid, center, width, wavenumber)
        norm = np.sqrt(abs(grid.inner(f, f, measure)))
        if not 0.0 < norm < np.inf:
            raise ValueError(f"hermiticity check of {where}: a test function's weighted norm "
                             f"is {norm}, not finite and positive")
        fams.append(f / norm)
    applied = [_apply_operator(op_kind, grid, f) for f in fams]
    # np.max keeps a NaN defect, where max(0.0, nan) would drop it
    defect = float(np.max([abs(grid.inner(f, op_g, measure) - grid.inner(op_f, g, measure))
                           for f, op_f in zip(fams, applied) for g, op_g in zip(fams, applied)]))
    if not np.isfinite(defect):
        raise ValueError(f"hermiticity check of {where}: the defect is {defect}, not finite")
    return defect


# ---------------------------------------------------------------------------
# shift exponentials and distributions

def _not_a_knot_spline(x: np.ndarray, y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Values at t in [x[0], x[-1]] of the not-a-knot cubic spline through the
    columns of y, built and evaluated as scipy's CubicSpline and PPoly do.

    The knot slopes solve CubicSpline's banded system (one LAPACK gtsv call,
    the columns of y as right-hand sides); the coefficients are
    CubicHermiteSpline's; each value sums PPoly's terms in PPoly's order.
    """
    from scipy.linalg import solve_banded  # loaded with eigh_tridiagonal's module

    n = len(x)
    dx = np.diff(x)
    dxr = dx[:, None]
    slope = np.diff(y, axis=0) / dxr
    ab = np.zeros((3, n))
    ab[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    ab[0, 2:] = dx[:-1]
    ab[-1, :-2] = dx[1:]
    ab[1, 0], ab[0, 1] = dx[1], x[2] - x[0]
    ab[1, -1], ab[-1, -2] = dx[-2], x[-1] - x[-3]
    rhs = np.empty(y.shape, order="F")  # gtsv takes its columns without a copy
    rhs[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    # the end rows take scalar dx entries, as CubicSpline's one-column path does
    d = x[2] - x[0]
    rhs[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    dydx = solve_banded((1, 1), ab, rhs, overwrite_ab=True, overwrite_b=True,
                        check_finite=False)
    i = np.minimum(np.searchsorted(x, t, side="right") - 1, n - 2)
    s = (t - x[i])[:, None]
    h = dxr[i]
    m0, m1, y0, sl = dydx[i], dydx[i + 1], y[i], slope[i]
    c = (m0 + m1 - 2 * sl) / h
    ss = s * s
    return 0.0 + y0 + m0 * s + ((sl - m0) / h - c) * ss + c / h * (ss * s)


def shift_wavefunction(psi: WaveFunction, z: float) -> WaveFunction:
    """exp((i/hbar) z Sigma) psi realized as cubic-spline translation in q.

    The spline is the not-a-knot interpolant of the real and imaginary parts
    (de Boor, A Practical Guide to Splines, ch. IV), whose knot slopes solve
    one tridiagonal system.  ``_not_a_knot_spline`` builds and evaluates it
    with CubicSpline's arithmetic, so every shifted value is bit-identical to
    ``CubicSpline(q, re)(q + z) + 1j * CubicSpline(q, im)(q + z)``, without
    the 23 MB and 0.2 s that importing scipy.interpolate costs.  Values
    off the grid after the shift are 0; a support that leaves the grid raises
    DomainOverflow, and a non-finite value ValueError, as CubicSpline does.
    """
    grid = psi.grid
    vals = psi.values
    if not np.all(np.isfinite(vals)):
        raise ValueError("cannot shift a wave function with non-finite values")
    support = np.abs(vals) > 1e-12 * max(1.0, float(np.max(np.abs(vals))))
    if np.any(support):
        qs = grid.q[support]
        if qs.min() + z < grid.q_min or qs.max() + z > grid.q_max:
            raise DomainOverflow(f"shift z = {z} moves the support off the grid")
    target = grid.q + z
    inside = (target >= grid.q_min) & (target <= grid.q_max)
    out = np.zeros(grid.m, dtype=complex)
    re, im = _not_a_knot_spline(grid.q, np.stack((vals.real, vals.imag), axis=1),
                                target[inside]).T
    out[inside] = re + 1j * im
    prof = psi.profile
    new_prof = (lambda q, _p=prof, _z=z: _p(np.asarray(q) + _z)) if prof is not None else None
    return WaveFunction(grid, out, psi.measure, profile=new_prof)


def shift_action_check(z: float, psi: WaveFunction) -> float:
    """Max interior error of the shift-operator identity
    (exp((i/hbar) z Sigma) psi)(q) = psi(q + z).

    ``psi`` must carry an analytic profile (e.g. from gaussian_packet) so the
    right-hand side is evaluated exactly rather than interpolated.
    """
    if psi.profile is None:
        raise ValueError("shift_action_check needs a wave function with an "
                         "analytic profile (see gaussian_packet)")
    shifted = shift_wavefunction(psi, z)
    grid = psi.grid
    target = grid.q + z
    inside = (target >= grid.q_min) & (target <= grid.q_max)
    exact = psi.profile(target[inside])
    return float(np.max(np.abs(shifted.values[inside] - exact)))


def invariant_distribution(psi: WaveFunction) -> np.ndarray:
    """Probability density over q: |psi|^2 times the tagged measure weight."""
    return np.abs(psi.values) ** 2 * psi.grid.weights(psi.measure)
