"""Haar and Lebesgue measure densities on GL+(n) and two-polar coordinates.

Density conventions (relative to the flat measure on matrix entries):

* ``lebesgue_l`` / ``lebesgue_a``: 1
* ``haar_lambda`` on GL+(n): (det phi)^-n  (bi-invariant)
* ``haar_alpha`` on R^n x GL+(n): (det phi)^-n-1  (left Haar of the affine
  group; it is not right-invariant because that group is not unimodular)

In two-polar coordinates phi = L diag(e^q) R.T the densities below are taken
with respect to dq^1..dq^n dmu(L) dmu(R), where mu is the SO(n) chart measure
(dtheta for n = 2; sin(beta) dalpha dbeta dgamma for the z-y-z chart at
n = 3).  The numeric chart Jacobian fixes the sinh exponent to 1 over ordered
pairs i < j and the constant to 2^(n(n-1)/2):

    haar     = 2^(n(n-1)/2) prod_{i<j} |sinh(q_i - q_j)|
    lebesgue = haar * (det phi)^n
    chart Jacobian = lebesgue * j_L * j_R

Sampling draws from ``sampling.rng_from_seed``, the Philox counter-based
generator, so every stream is reproducible from its seed alone.
``sample_orthogonal`` is Mezzadri's Haar sampler on SO(n), n <= 4, from
``sampling``; only ``measure_check_report`` draws chart angles.

``rotation_from_angles`` takes chart parameters (..., k) and returns a stack
(..., n, n); ``_chart_map`` maps parameter rows (..., n*n) to flattened phi.
``measure_check_report`` draws its candidate points in blocks and takes
their finite-difference chart Jacobians in one batched chart map and one
stacked det.  ``haar_density`` and ``twopolar_densities`` take stacks too;
powers of a stack's determinants go through ``pow_each``, so each member's
density is bit-equal to the one it has alone.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateSpectrum
from .matcore import MAX_DIM, TwoPolarFactors, as_matrices, checked_det
from .sampling import orthogonal_from_normal, rng_from_seed

MEASURE_KINDS = ("lebesgue_a", "haar_alpha", "lebesgue_l", "haar_lambda")


def pow_each(x, p: int) -> np.ndarray:
    """x ** p member by member with the C library's scalar ``pow``.

    numpy's vectorized float64 power rounds differently from it in about 5%
    of members; this keeps a stack's values bit-equal to those of its
    members taken one at a time.
    """
    x = np.asarray(x, dtype=float)
    return np.reshape([v ** p for v in x.ravel().tolist()], x.shape)


def haar_density(phi, kind: str) -> float | np.ndarray:
    """Density of the selected measure relative to Lebesgue on entries; a
    stack (..., n, n) gives the array of its members' densities."""
    if kind not in MEASURE_KINDS:
        raise ValueError(f"unknown measure kind {kind!r}; choose from {MEASURE_KINDS}")
    phi = as_matrices(phi)
    d = checked_det(phi, require_positive=True)
    n = phi.shape[-1]
    exponent = {"haar_lambda": -n, "haar_alpha": -n - 1}.get(kind, 0)
    dens = pow_each(d, exponent)
    return float(dens) if phi.ndim == 2 else dens


def _sinh_product(q: np.ndarray):
    """prod_{i<j} |sinh(q_i - q_j)| over the last axis of q (..., n)."""
    i, j = np.triu_indices(q.shape[-1], 1)
    return np.abs(np.sinh(q[..., i] - q[..., j])).prod(axis=-1)


def twopolar_densities(factors: TwoPolarFactors) -> tuple[float, float]:
    """(haar, lebesgue) densities at the given two-polar point, or arrays of
    them for factors of a stack.

    Both are relative to dq dmu(L) dmu(R); coincident q gives density zero,
    which is a value, not an error.
    """
    q = np.asarray(factors.q, dtype=float)
    n = q.shape[-1]
    c = 2.0 ** (n * (n - 1) // 2)
    haar = c * _sinh_product(q)
    lebesgue = haar * np.exp(n * q.sum(axis=-1))
    return haar, lebesgue


# ---------------------------------------------------------------------------
# SO(n) charts

def _plane_rotation(t, n: int, i: int, j: int) -> np.ndarray:
    """Rotation by t from axis i towards axis j of R^n; t of any shape gives a
    contiguous stack (..., n, n)."""
    c, s = np.cos(t), np.sin(t)
    out = np.empty(np.shape(t) + (n, n))
    out[...] = np.eye(n)
    out[..., i, i] = c
    out[..., j, j] = c
    out[..., i, j] = -s
    out[..., j, i] = s
    return out


def rotation_from_angles(n: int, angles) -> np.ndarray:
    """SO(n) element from chart parameters: () / (theta,) / z-y-z (a, b, g).

    ``angles`` of shape (..., k) give a stack (..., n, n), one rotation per
    parameter row.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if n == 1:
        return np.broadcast_to(np.eye(1), angles.shape[:-1] + (1, 1)).copy()
    if n == 2:
        return _plane_rotation(angles[..., 0], 2, 0, 1)
    if n == 3:
        if angles.shape[-1] != 3:
            raise ValueError(f"z-y-z chart needs 3 angles, got {angles.shape[-1]}")
        a, b, g = np.moveaxis(angles, -1, 0)
        return _plane_rotation(a, 3, 0, 1) @ _plane_rotation(b, 3, 2, 0) \
            @ _plane_rotation(g, 3, 0, 1)
    raise ValueError("rotation charts support n <= 3")


def _on_chart(R: np.ndarray) -> np.ndarray:
    """Whether each of R (..., n, n) is off the z-y-z boundary, sin beta >= 1e-8
    (always at n <= 2, which has no boundary)."""
    cos_b = np.clip(R[..., 2, 2], -1.0, 1.0) if R.shape[-1] == 3 else np.zeros(R.shape[:-2])
    return np.sqrt(np.maximum(0.0, 1.0 - cos_b * cos_b)) >= 1e-8


def angles_from_rotation(R) -> np.ndarray:
    """Chart parameters (..., k) of SO(n) elements (..., n, n), n <= 3.

    Raises DegenerateSpectrum when a member lies at the z-y-z chart boundary
    (sin beta ~ 0), where the three angles are not separately defined.
    """
    R = as_matrices(R, "R")
    n = R.shape[-1]
    if n == 1:
        return np.zeros(R.shape[:-2] + (0,))
    if n == 2:
        return np.arctan2(R[..., 1, 0], R[..., 0, 0])[..., None]
    if n == 3:
        if not _on_chart(R).all():
            raise DegenerateSpectrum("z-y-z chart degenerate: rotation axis near e3")
        return np.stack([np.arctan2(R[..., 1, 2], R[..., 0, 2]),
                         np.arccos(np.clip(R[..., 2, 2], -1.0, 1.0)),
                         np.arctan2(R[..., 2, 1], -R[..., 2, 0])], axis=-1)
    raise ValueError("rotation charts support n <= 3")


def chart_weight(n: int, angles):
    """Density of the SO(n) chart measure mu w.r.t. the flat angle measure;
    angle rows (..., 3) give the weights (...)."""
    if n in (1, 2):
        return 1.0
    weight = np.sin(np.atleast_1d(angles)[..., 1])
    return float(weight) if weight.ndim == 0 else weight


def sample_orthogonal(n: int, seed: int, count: int | None = None) -> np.ndarray:
    """Haar-distributed SO(n) samples, 1 <= n <= 4, Philox stream per seed.

    Returns one (n, n) matrix, or a (count, n, n) stack when count is given,
    by ``orthogonal_from_normal`` from one standard normal draw of that shape.
    """
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"sample_orthogonal supports 1 <= n <= {MAX_DIM}")
    shape = (n, n) if count is None else (int(count), n, n)
    return orthogonal_from_normal(rng_from_seed(seed).standard_normal(shape))


def _sample_angles(n: int, rng, size: int) -> np.ndarray:
    """Chart angles (size, k) of Haar-distributed SO(n) elements; at n = 3
    beta = arccos of a uniform cosine, which may land on the chart boundary."""
    if n <= 2:
        return rng.uniform(0.0, 2.0 * np.pi, (size, n - 1))
    a, g = rng.uniform(0.0, 2.0 * np.pi, (2, size))
    return np.stack([a, np.arccos(rng.uniform(-1.0, 1.0, size)), g], axis=-1)


# ---------------------------------------------------------------------------
# numeric chart Jacobian

def _chart_map(n: int, params: np.ndarray) -> np.ndarray:
    """phi = L(angles) diag(e^q) R(angles).T, flattened, of parameter rows
    (..., n*n) ordered (L-angles, q, R-angles)."""
    n_ang = n * (n - 1) // 2
    left = rotation_from_angles(n, params[..., :n_ang])
    diag = np.zeros(params.shape[:-1] + (n, n))
    diag[..., range(n), range(n)] = np.exp(params[..., n_ang:n_ang + n])
    right = rotation_from_angles(n, params[..., n_ang + n:])
    return (left @ diag @ right.swapaxes(-1, -2)).reshape(params.shape[:-1] + (n * n,))


def _jacobian_dets(n: int, params: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """|det| of the central-difference Jacobians of _chart_map at parameter
    rows (P, n*n), shape (P,).  Raises DegenerateSpectrum at coincident q."""
    n_ang = n * (n - 1) // 2
    if n > 1:
        q = params[:, n_ang:n_ang + n]
        i, j = np.triu_indices(n, 1)
        gaps = np.abs(q[:, i] - q[:, j]).min(axis=1)
        if (gaps < 1e-8).any():
            k = int(np.argmax(gaps < 1e-8))
            raise DegenerateSpectrum(f"coincident q entries at point {k}: "
                                     "two-polar chart degenerate")
    dp = step * np.eye(params.shape[-1])
    cols = (_chart_map(n, params[:, None, :] + dp)
            - _chart_map(n, params[:, None, :] - dp)) / (2 * step)
    return np.abs(np.linalg.det(cols.swapaxes(-1, -2)))


def _chart_params(L, q, R) -> np.ndarray:
    """Parameter rows (..., n*n), (L-angles, q, R-angles), of two-polar factors."""
    return np.concatenate([angles_from_rotation(L), np.asarray(q, float),
                           angles_from_rotation(R)], axis=-1)


def jacobian_oracle(factors: TwoPolarFactors, step: float = 1e-6) -> float:
    """|det| of the finite-difference Jacobian of (L-params, q, R-params) -> phi.

    Brute-force validator for the two-polar densities; requires distinct q
    entries (and, at n = 3, factors away from the Euler chart boundary).
    """
    params = _chart_params(factors.L, factors.q, factors.R)
    return float(_jacobian_dets(len(factors.q), params[None], step)[0])


def chart_density(factors: TwoPolarFactors) -> float:
    """Analytic counterpart of jacobian_oracle: lebesgue density times the
    chart weights of both orthogonal factors."""
    q = np.asarray(factors.q, dtype=float)
    n = len(q)
    _, lebesgue = twopolar_densities(factors)
    if n <= 2:
        return lebesgue
    jl = chart_weight(n, angles_from_rotation(factors.L))
    jr = chart_weight(n, angles_from_rotation(factors.R))
    return lebesgue * jl * jr


def measure_check_report(n: int, points: int = 100, seed: int = 0) -> dict:
    """Fit the sinh exponent and constant of the two-polar Haar density
    against the numeric Jacobian at random points.

    Candidates come in blocks of twice the points missing (q, then L's and
    R's angles); the points are the first ``points`` of at most 50 * points
    with q gaps >= 5e-2 and L, R off the chart boundary, evaluated as stacks.
    """
    if not 1 <= n <= 3:
        raise ValueError("measure-check supports 1 <= n <= 3")
    if points < 1:
        raise ValueError("points must be at least 1")
    rng = rng_from_seed(seed)
    params, attempts = np.empty((0, n * n)), 0
    while len(params) < points and attempts < 50 * points:
        batch = min(2 * (points - len(params)), 50 * points - attempts)
        attempts += batch
        q = np.sort(rng.uniform(-1.0, 1.0, (batch, n)), axis=-1)[:, ::-1]
        L = rotation_from_angles(n, _sample_angles(n, rng, batch))
        R = rotation_from_angles(n, _sample_angles(n, rng, batch))
        keep = (-np.diff(q)).min(axis=-1, initial=np.inf) >= 5e-2
        keep &= _on_chart(L) & _on_chart(R)
        params = np.concatenate([params, _chart_params(L[keep], q[keep], R[keep])])
    params = params[:points]
    n_ang = n * (n - 1) // 2
    q = params[:, n_ang:n_ang + n]
    sinh = _sinh_product(q)
    volume = np.exp(n * q.sum(axis=1))
    weight = chart_weight(n, params[:, :n_ang]) * chart_weight(n, params[:, n_ang + n:])
    jac = _jacobian_dets(n, params)
    best = None
    for e in (1, 2):
        ratios = jac / (sinh ** e * volume * weight)
        c = float(np.median(ratios))
        rel = float(np.max(np.abs(ratios / c - 1.0))) if c != 0 else np.inf
        if best is None or rel < best[2]:
            best = (e, c, rel)
    exponent, constant, max_rel_err = best
    return {
        "n": n,
        "exponent_e": exponent,
        "constant_c": constant,
        "expected_constant": 2.0 ** (n * (n - 1) // 2),
        "max_rel_err": max_rel_err,
        "points": len(params),
    }
