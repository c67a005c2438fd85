"""Configurations, deformation tensors, mutual tensors, invariants, velocities.

Conventions (all matrices are plain numpy arrays):

* a body placement is a center position ``x`` in R^n plus an internal matrix
  ``phi`` in GL+(n); material points map as y = x + phi a
* Green / Cauchy tensors:  G = phi.T phi,  C = phi^-T phi^-1
* mutual two-body tensors for internal matrices (psi, phi):
  Gm = psi.T phi, Cm = phi^-T psi^-1, Gamma = psi^-1 phi, Sigma_mut = phi psi^-1
* affine velocity (gyration): Omega = xi phi^-1 (spatial),
  Omega_hat = phi^-1 xi (co-moving), v_hat = phi^-1 v

``deformation_tensors``, ``mutual_tensors``, ``invariants_K``,
``invariants_M`` and ``affine_velocity`` take one (n, n) matrix per argument
or stacks (..., n, n) (and (..., n) for v), and evaluate every member of a
stack in one call; a singular member is named by its index.

``Sigma_mut`` is deliberately not called plain Sigma: that symbol is reserved
for the canonical affine spin phi @ pi in the kinetics module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matcore import as_matrices, as_matrix, checked_det, det_inv


@dataclass(frozen=True)
class BodyConfig:
    """One body's placement: center x and internal configuration phi (det > 0)."""

    x: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "phi", as_matrix(self.phi))
        if self.x.shape != (self.phi.shape[0],):
            raise ValueError("x and phi dimensions disagree")
        checked_det(self.phi, require_positive=True)


@dataclass(frozen=True)
class SystemConfig:
    """Stacked placements of N bodies sharing one dimension n.

    ``x`` has shape (N, n) and ``phi`` has shape (N, n, n).
    """

    x: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "phi", np.asarray(self.phi, dtype=float))
        if self.x.ndim != 2 or self.phi.ndim != 3:
            raise ValueError("x must be (N, n) and phi must be (N, n, n)")
        if self.phi.shape != (self.x.shape[0], self.x.shape[1], self.x.shape[1]):
            raise ValueError("x and phi shapes disagree")
        if self.N < 1:
            raise ValueError("need at least one body")

    @property
    def N(self) -> int:
        return self.x.shape[0]

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @classmethod
    def from_bodies(cls, bodies) -> "SystemConfig":
        bodies = [b if isinstance(b, BodyConfig) else BodyConfig(*b) for b in bodies]
        return cls(x=np.stack([b.x for b in bodies]),
                   phi=np.stack([b.phi for b in bodies]))

    def body(self, K: int) -> BodyConfig:
        return BodyConfig(x=self.x[K], phi=self.phi[K])

    def bodies(self):
        return [self.body(K) for K in range(self.N)]


@dataclass(frozen=True)
class VelocityState:
    """Translational velocities v (N, n) and internal velocities xi (N, n, n)."""

    v: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float))
        if not (np.all(np.isfinite(self.v)) and np.all(np.isfinite(self.xi))):
            raise ValueError("velocities must be finite")


@dataclass(frozen=True)
class DeformationTensors:
    G: np.ndarray
    C: np.ndarray
    Gtilde: np.ndarray
    Ctilde: np.ndarray
    E: np.ndarray
    e: np.ndarray


@dataclass(frozen=True)
class MutualTensors:
    """Two-body comparison tensors; Em/em are the strain-like shifted forms."""

    Gm: np.ndarray
    Cm: np.ndarray
    Gamma: np.ndarray
    SigmaM: np.ndarray
    gamma_small: np.ndarray
    sigma_small: np.ndarray
    Em: np.ndarray = field(repr=False, default=None)
    em: np.ndarray = field(repr=False, default=None)


def _T(m: np.ndarray) -> np.ndarray:
    """Transpose of a matrix or of each matrix of a stack."""
    return m.swapaxes(-1, -2)


def _sym(m: np.ndarray) -> np.ndarray:
    # guards roundoff: these tensors are symmetric by construction
    return 0.5 * (m + _T(m))


def deformation_tensors(phi) -> DeformationTensors:
    """Green/Cauchy tensors of an internal configuration (n, n), or of each
    of a stack (..., n, n)."""
    phi = as_matrices(phi)
    _, phi_inv = det_inv(phi)
    G = _sym(_T(phi) @ phi)
    C = _sym(_T(phi_inv) @ phi_inv)
    eye = np.eye(phi.shape[-1])
    return DeformationTensors(
        G=G,
        C=C,
        Gtilde=_sym(phi_inv @ _T(phi_inv)),
        Ctilde=_sym(phi @ _T(phi)),
        E=0.5 * (G - eye),
        e=0.5 * (eye - C),
    )


def mutual_tensors(psi, phi) -> MutualTensors:
    """Mutual comparison tensors of an ordered pair (psi, phi), or of each
    pair of two stacks (..., n, n)."""
    psi = as_matrices(psi, "psi")
    phi = as_matrices(phi, "phi")
    _, psi_inv = det_inv(psi, "psi")
    _, phi_inv = det_inv(phi, "phi")
    eye = np.eye(phi.shape[-1])
    Gm = _T(psi) @ phi
    Cm = _T(phi_inv) @ psi_inv
    Gamma = psi_inv @ phi
    SigmaM = phi @ psi_inv
    return MutualTensors(
        Gm=Gm,
        Cm=Cm,
        Gamma=Gamma,
        SigmaM=SigmaM,
        gamma_small=Gamma - eye,
        sigma_small=SigmaM - eye,
        Em=0.5 * (Gm - eye),
        em=0.5 * (eye - Cm),
    )


def _powers(m: np.ndarray, count: int, right: np.ndarray | None = None) -> np.ndarray:
    """Stacked products m^a @ right for a = 0..count, shape (count + 1, *m.shape).

    ``m`` may be a stack of square matrices; ``right`` defaults to the identity.
    """
    out = np.empty((count + 1,) + m.shape)
    out[0] = np.eye(m.shape[-1]) if right is None else right
    for a in range(count):
        np.matmul(m, out[a], out=out[a + 1])
    return out


def _trace_powers(m: np.ndarray, count: int) -> np.ndarray:
    """Tr(m^a) for a = 1..count over a stack of square matrices, shape (..., count)."""
    return np.moveaxis(np.trace(_powers(m, count)[1:], axis1=-2, axis2=-1), 0, -1)


def invariants_K(psi, phi) -> np.ndarray:
    """Orthogonally invariant scalars K_a = Tr((psi.T phi)^a), a = 1..n,
    shape (n,), or (..., n) for stacks (..., n, n)."""
    psi = as_matrices(psi, "psi")
    phi = as_matrices(phi, "phi")
    checked_det(psi, "psi")
    checked_det(phi, "phi")
    return _trace_powers(_T(psi) @ phi, phi.shape[-1])


def invariants_M(psi, phi) -> np.ndarray:
    """Fully affinely invariant scalars M_a = Tr((psi^-1 phi)^a), a = 1..n,
    shape (n,), or (..., n) for stacks (..., n, n)."""
    psi = as_matrices(psi, "psi")
    phi = as_matrices(phi, "phi")
    return _trace_powers(det_inv(psi, "psi")[1] @ phi, phi.shape[-1])


def eig_invariants(phi) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of G = phi.T phi (descending) and the elementary symmetric
    coefficients I_1..I_n of its characteristic polynomial."""
    phi = as_matrix(phi)
    checked_det(phi, require_positive=True)
    lam = np.linalg.eigvalsh(_sym(phi.T @ phi))[::-1]
    n = len(lam)
    # Newton-free build of elementary symmetric polynomials via the product
    # prod (1 + t lam_a) = sum I_k t^k.
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    for a in range(n):
        coeffs[1:a + 2] = coeffs[1:a + 2] + lam[a] * coeffs[0:a + 1]
    return lam, coeffs[1:]


def affine_velocity(phi, xi, v) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spatial and co-moving gyration plus co-moving translational velocity,
    for one body or for stacks phi, xi (..., n, n) and v (..., n)."""
    phi = as_matrices(phi)
    xi = as_matrices(xi, "xi")
    v = np.asarray(v, dtype=float)
    _, phi_inv = det_inv(phi)
    return xi @ phi_inv, phi_inv @ xi, (phi_inv @ v[..., None])[..., 0]


def act_spatial(A, config: SystemConfig) -> SystemConfig:
    """Left action: every (x_K, phi_K) maps to (A x_K, A phi_K)."""
    A = as_matrix(A, "A")
    checked_det(A, "A")
    return SystemConfig(x=config.x @ A.T, phi=A @ config.phi)


def act_material(A, config: SystemConfig) -> SystemConfig:
    """Right action: phi_K maps to phi_K A, centers unchanged."""
    A = as_matrix(A, "A")
    checked_det(A, "A")
    return SystemConfig(x=config.x.copy(), phi=config.phi @ A)
