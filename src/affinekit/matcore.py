"""Dense small-matrix kernels: determinants, inverses, singular values, polar
and two-polar decompositions.

Everything operates on plain numpy arrays of shape (n, n) with 1 <= n <= 4;
``unchecked_det``, ``checked_det``, ``det_inv``, ``singular_values`` and
``two_polar_decompose`` also take stacks (..., n, n).  ``checked_det`` is the
one invertibility check, for a matrix and for a stack alike; it names a
singular member by its index and leaves input validation to
``as_matrices``/``as_matrix``.  Configuration matrices must lie in GL+(n):
positive determinant, with |det| > 1e-12 as the working invertibility floor.

One kernel, ``unchecked_det`` and the inverse and singular values beside it,
serves ``checked_det``, ``det_inv`` and ``singular_values``, and its rule is
fixed by n alone.  At n = 1 and n = 2 it works in closed form, elementwise
over the stack: det = a at n = 1 and a d - b c at n = 2, and the inverse is
the adjugate over the determinant, 1 / a and [[d, -b], [-c, a]] / det.  The
singular values are |a| at n = 1 and, at n = 2, s1 = (hypot(a + d, b - c) +
hypot(a - d, b + c)) / 2 and s2 = |det| / s1.  At n >= 3 it calls LAPACK
(``np.linalg.det``, ``np.linalg.inv`` and ``np.linalg.svd``), whose
per-member call overhead would dominate a 2x2 stack.  Elementwise arithmetic
keeps each stack member bit-equal to its own call.  The closed-form det is
within eps (|a d| + |b c|) of the exact one (``np.linalg.det``, which goes by
way of log|det|, is not exact even at n = 1).  The inverse has a relative
error of about cond(phi) eps, as LU's has (Higham, *Accuracy and Stability of
Numerical Algorithms*, 2nd ed., ch. 14).  At n = 2, cond(phi) <= |phi|_F^2 /
|det|, so the floor bounds it by |phi|_F^2 1e12: the inverse of a member at
the floor may carry a relative error of about |phi|_F^2 2e-4.  The singular
values are within a few eps s1 of the exact ones, as LAPACK's are, while
a d - b c neither overflows nor underflows.  Taking s2 from the det rather
than from the difference of the two hypots keeps s1 s2 = |det| to
roundoff, so q1 + q2 = log|det| in the charges.

``two_polar_decompose`` holds the one SVD, with the sign of det L from
``unchecked_det``; ``polar_decompose`` forms L R^T, R D R^T and L D L^T of
its factors, bit-equal to the unflipped SVD's (the flip negates both factors).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NegativeOrientation, SingularInput

DET_FLOOR = 1e-12
DEGENERACY_TOL = 1e-10
MAX_DIM = 4
_TINY = np.finfo(float).tiny


def as_matrices(phi, name: str = "phi") -> np.ndarray:
    """Validate and return a float array of square matrices of supported
    dimension: one (n, n) matrix or a stack (..., n, n) of them."""
    m = np.asarray(phi, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    n = m.shape[-1]
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"{name} must have dimension 1..{MAX_DIM}, got {n}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    return m


def as_matrix(phi, name: str = "phi") -> np.ndarray:
    """Validate and return a square float matrix of supported dimension."""
    m = np.asarray(phi, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    return as_matrices(m, name)


def _first(name: str, flags: np.ndarray) -> tuple[str, tuple]:
    """``name[i, ...]`` and the index of the first True entry of ``flags``;
    plain ``name`` when ``flags`` is a scalar (one matrix)."""
    if flags.ndim == 0:
        return name, ()
    idx = np.unravel_index(int(np.argmax(flags)), flags.shape)
    return f"{name}[{', '.join(str(int(i)) for i in idx)}]", idx


def unchecked_det(phi: np.ndarray):
    """Determinant of one matrix (n, n), a numpy scalar, or of each member of
    a stack (..., n, n), an array: in closed form at n <= 2, by LAPACK at
    n >= 3.  Nothing is checked; a non-finite entry gives a non-finite det."""
    n = phi.shape[-1]
    if n == 1:
        return phi[..., 0, 0].copy()
    if n == 2:
        return phi[..., 0, 0] * phi[..., 1, 1] - phi[..., 0, 1] * phi[..., 1, 0]
    return np.linalg.det(phi)


def _inverse(phi: np.ndarray, det) -> np.ndarray:
    """Inverse of each member of ``phi`` given its ``unchecked_det``: the
    adjugate over the determinant at n <= 2, LAPACK at n >= 3."""
    n = phi.shape[-1]
    if n == 1:
        return 1.0 / phi
    if n > 2:
        return np.linalg.inv(phi)
    adj = np.empty_like(phi)
    adj[..., 0, 0] = phi[..., 1, 1]
    adj[..., 1, 1] = phi[..., 0, 0]
    np.negative(phi[..., 0, 1], out=adj[..., 0, 1])
    np.negative(phi[..., 1, 0], out=adj[..., 1, 0])
    adj /= det[..., None, None]
    return adj


def singular_values(phi: np.ndarray) -> np.ndarray:
    """Singular values of one matrix (n, n) or of each member of a stack
    (..., n, n), descending along a last axis of length n: in closed form at
    n <= 2, by LAPACK at n >= 3.  Nothing is checked."""
    n = phi.shape[-1]
    if n == 1:
        return np.abs(phi[..., 0])
    if n > 2:
        return np.linalg.svd(phi, compute_uv=False)
    a, b, c, d = phi[..., 0, 0], phi[..., 0, 1], phi[..., 1, 0], phi[..., 1, 1]
    s = np.empty(phi.shape[:-1])
    s1 = s[..., 0]
    np.add(np.hypot(a + d, b - c), np.hypot(a - d, b + c), out=s1)
    s1 *= 0.5
    # s1 s2 = |det|; the zero matrix gives 0 / tiny = 0, and the minimum keeps
    # the order where roundoff would put s2 an ulp above s1
    s2 = np.abs(unchecked_det(phi)) / np.maximum(s1, _TINY)
    np.minimum(s2, s1, out=s[..., 1])
    return s


def checked_det(phi: np.ndarray, name: str = "phi", require_positive: bool = False):
    """Determinant of one matrix (n, n), a float, or of each of a stack
    (..., n, n), an array.

    Raises SingularInput if a |det| sits at the invertibility floor or is not
    finite and, with ``require_positive``, NegativeOrientation if a det is
    negative; a stack member is named by its index, ``phi[i, ...]``.  The
    input is not validated: callers pass it through ``as_matrices`` or
    ``as_matrix`` first.
    """
    det = unchecked_det(phi)
    size = np.abs(det)
    if not (size.min() > DET_FLOOR and size.max() < np.inf):
        label, idx = _first(name, ~((size > DET_FLOOR) & (size < np.inf)))
        why = f"<= {DET_FLOOR}" if size[idx] <= DET_FLOOR else "is not finite"
        raise SingularInput(f"{label} is singular (|det| = {size[idx]:.3e} {why})")
    if require_positive and (det < 0.0).any():
        label, idx = _first(name, det < 0.0)
        raise NegativeOrientation(f"{label} has det = {det[idx]:.3e} < 0 (outside GL+)")
    return float(det) if det.ndim == 0 else det


def det_inv(phi: np.ndarray, name: str = "phi"):
    """Checked determinants (see checked_det) and inverses of one matrix or
    of a stack of matrices, from the one kernel (see unchecked_det)."""
    det = checked_det(phi, name)
    return det, _inverse(phi, np.asarray(det))


@dataclass(frozen=True)
class TwoPolarFactors:
    """Factors of phi = L @ D @ R.T with L, R in SO(n) and D positive diagonal.

    ``q`` holds the logarithms of the diagonal of D, descending.  ``degenerate``
    flags coincident diagonal entries (within 1e-10): the factors are still a
    valid decomposition but L and R are no longer unique.  The factors of a
    stack carry its leading axes, and ``degenerate`` is then a bool array.
    """

    L: np.ndarray
    D: np.ndarray
    R: np.ndarray
    q: np.ndarray
    degenerate: bool | np.ndarray = False

    @property
    def d(self) -> np.ndarray:
        """Diagonal of D as a vector."""
        return np.diagonal(self.D, axis1=-2, axis2=-1)

    def reconstruct(self) -> np.ndarray:
        return self.L @ self.D @ np.swapaxes(self.R, -1, -2)


def polar_decompose(phi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left/right polar factors (U, A, B) with phi = U A = B U.

    U is special orthogonal, A = sqrt(phi.T phi) and B = U A U^-1 are symmetric
    positive definite.  Input must have positive determinant.
    """
    f = two_polar_decompose(as_matrix(phi))
    return f.L @ f.R.T, f.R @ f.D @ f.R.T, f.L @ f.D @ f.L.T


def two_polar_decompose(phi) -> TwoPolarFactors:
    """Two-polar factors of phi in GL+(n), singular values descending.

    Both orthogonal factors are forced into SO(n) by flipping one column pair
    when needed (legal because det phi > 0 makes det L = det R).  A stack
    (..., n, n) is factored with one stacked SVD, each member bit-equal to
    its own decomposition.
    """
    m = as_matrices(phi)
    checked_det(m, require_positive=True)
    L, s, Vt = np.linalg.svd(m)
    R = np.swapaxes(Vt, -1, -2)
    sign = np.where(unchecked_det(L) < 0.0, -1.0, 1.0)[..., None]
    L[..., -1] *= sign
    R[..., -1] *= sign
    D = np.zeros(m.shape)
    D[..., range(m.shape[-1]), range(m.shape[-1])] = s
    # svd returns s descending, so coincidence shows up as an adjacent gap
    # smaller than the tolerance.
    degenerate = (-np.diff(s, axis=-1) < DEGENERACY_TOL).any(axis=-1)
    return TwoPolarFactors(L=L, D=D, R=R, q=np.log(s),
                           degenerate=degenerate if m.ndim > 2 else bool(degenerate))
