"""Kinetic-energy models, Legendre transforms, and kinetic Hamiltonians.

Model menu (selected independently per sector):

* translational: ``dalembert`` (= ``is-af``): (M/2) v.v
                 ``af-is``:                   (M/2) v_hat.v_hat, v_hat = phi^-1 v
* internal:      ``dalembert``: (1/2) Tr(xi J xi.T)
                 ``af-J``:      (1/2) Tr(Omega_hat J Omega_hat.T)
                 ``H-af``:      (1/2) Tr(Omega H Omega.T)
                 ``is-af``:     (I/2) Tr(Omega.T Omega) + af-af part in Omega
                 ``af-is``:     same with Omega_hat
                 ``af-af``:     (A/2) Tr(Omega^2) + (B/2) (Tr Omega)^2
                 ``l-af``:      (1/2) vec(Omega_hat).T Lten vec(Omega_hat)
                 ``r-af``:      (1/2) vec(Omega).T   Rten vec(Omega)

Momenta pair with velocities through <p, v> = p.v and <pi, xi> = Tr(pi xi),
so pi is conjugate to xi "transposed": the canonical partner of phi[i, a] is
pi[a, i].  Affine spin in the spatial and co-moving pictures:

    Sigma = phi @ pi        Sigma_hat = pi @ phi

Every internal model is one n^2 x n^2 form G on vec(W), the row-major
flattening of its velocity matrix W (xi, Omega or Omega_hat); vec(S.T) = G w
gives the conjugate spin S (pi, Sigma or Sigma_hat).  For the (I, A, B)
family the forward map is Sigma = I Omega.T + A Omega + B Tr(Omega) Id; its
inverse uses the reciprocal constants stored in ``TildeConstants``, which
stay finite in the pure af-af limit I = 0.  ``compile_kinetics`` builds G
and G^-1 once; the public functions below are thin views over it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetric, MissingParams
from .kinematics import SystemConfig, VelocityState
from .matcore import checked_det, det_inv

TRANSLATIONAL_MODELS = ("dalembert", "is-af", "af-is")
INTERNAL_MODELS = ("dalembert", "af-J", "af-is", "H-af", "l-af", "r-af", "af-af", "is-af")


@dataclass(frozen=True)
class KineticModel:
    translational: str = "dalembert"
    internal: str = "dalembert"

    def __post_init__(self):
        if self.translational not in TRANSLATIONAL_MODELS:
            raise ValueError(f"unknown translational model {self.translational!r}; "
                             f"choose from {TRANSLATIONAL_MODELS}")
        if self.internal not in INTERNAL_MODELS:
            raise ValueError(f"unknown internal model {self.internal!r}; "
                             f"choose from {INTERNAL_MODELS}")


@dataclass(frozen=True)
class InertiaParams:
    """Inertial constants; only the ones used by the selected model matter.

    M: total mass, positive and finite. J: co-moving quadrupole inertia
    (symmetric positive definite). I, A, B: scalars of the isotropic affine
    family. H: fixed spatial inertia of the H-af model (symmetric positive
    definite). Lten / Rten: n^2 x n^2 symmetric
    bilinear forms of the general affine models, acting on row-major vec()
    of the velocity matrix.
    """

    M: float = 1.0
    J: np.ndarray | None = None
    I: float | None = None
    A: float | None = None
    B: float | None = None
    H: np.ndarray | None = None
    Lten: np.ndarray | None = None
    Rten: np.ndarray | None = None

    def __post_init__(self):
        for name in ("J", "H", "Lten", "Rten"):
            val = getattr(self, name)
            if val is not None:
                arr = np.array(val, dtype=float)
                if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                    raise ValueError(f"{name} must be a square matrix")
                if not np.allclose(arr, arr.T, atol=1e-12):
                    raise ValueError(f"{name} must be symmetric")
                # Lten / Rten, like the (I, A, B) forms, may be indefinite (af-af is)
                if name in ("J", "H") and not np.linalg.eigvalsh(arr)[0] > 0:
                    raise ValueError(f"{name} must be positive definite")
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)
        if not 0 < self.M < np.inf:
            raise ValueError("M must be positive and finite")

    def metric(self, internal: str, n: int) -> tuple:
        """(G, G^-1) of an internal model's kinetic form on row-major vec(W).

        Built on first use for each (internal, n) and kept with these
        (immutable) constants.  Raises MissingParams or DegenerateMetric.
        """
        cache = self.__dict__.setdefault("_metrics", {})
        if (internal, n) not in cache:
            cache[internal, n] = _internal_metric(internal, self, n)
        return cache[internal, n]


@dataclass(frozen=True)
class TildeConstants:
    """Reciprocals 1/I~, 1/A~, 1/B~ of the inverse-metric constants."""

    recip_I: float
    recip_A: float
    recip_B: float


@dataclass(frozen=True)
class MomentumState:
    """Momenta p (N, n) and pi (N, n, n), conjugate through Tr(pi xi)."""

    p: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        object.__setattr__(self, "pi", np.asarray(self.pi, dtype=float))

    def p_hat(self, config: SystemConfig) -> np.ndarray:
        """Co-moving momenta phi_K.T p_K, shape (N, n)."""
        return np.einsum("kji,kj->ki", config.phi, self.p)

    def sigma(self, config: SystemConfig) -> np.ndarray:
        """Spatial affine spin phi_K pi_K per body, shape (N, n, n)."""
        return config.phi @ self.pi

    def sigma_hat(self, config: SystemConfig) -> np.ndarray:
        """Co-moving affine spin pi_K phi_K per body."""
        return self.pi @ config.phi

    def spin(self, config: SystemConfig) -> np.ndarray:
        """Skew spin S_K = Sigma_K - Sigma_K.T."""
        s = self.sigma(config)
        return s - np.transpose(s, (0, 2, 1))

    def vorticity(self, config: SystemConfig) -> np.ndarray:
        """Skew vorticity V_K = Sigma_hat_K - Sigma_hat_K.T."""
        s = self.sigma_hat(config)
        return s - np.transpose(s, (0, 2, 1))


def params_for_body(params, K: int) -> InertiaParams:
    """Resolve shared vs per-body inertia parameters."""
    if isinstance(params, InertiaParams):
        return params
    return params[K]


def tilde_constants(I: float, A: float, B: float, n: int) -> TildeConstants:
    """Reciprocal constants of the inverse (I, A, B) kinetic metric.

    Raises DegenerateMetric when I^2 = A^2 or (I + A)(I + A + nB) = 0, where
    the Legendre map is not invertible.  Zero numerator inertias give zero
    reciprocals, so the I = 0 (pure af-af) case is representable.
    """
    d1 = I * I - A * A
    if abs(d1) <= 1e-14 * max(1.0, I * I + A * A):
        raise DegenerateMetric(f"I^2 = A^2 at (I, A) = ({I}, {A})")
    recip_I = 0.0 if I == 0.0 else I / d1
    recip_A = 0.0 if A == 0.0 else -A / d1
    if B == 0.0:
        recip_B = 0.0
    else:
        d2 = (I + A) * (I + A + n * B)
        if abs(d2) <= 1e-14 * max(1.0, (I + A) ** 2, B * B):
            raise DegenerateMetric(f"(I + A)(I + A + nB) = 0 at (I, A, B, n) = ({I}, {A}, {B}, {n})")
        recip_B = -B / d2
    return TildeConstants(recip_I, recip_A, recip_B)


def _require(params: InertiaParams, model_name: str, *names):
    for name in names:
        if getattr(params, name) is None:
            raise MissingParams(f"model {model_name!r} needs inertia parameter {name!r}")


def _iab(params: InertiaParams, internal: str) -> tuple[float, float, float]:
    if internal == "af-af":
        _require(params, internal, "A", "B")
        return 0.0, float(params.A), float(params.B)
    _require(params, internal, "I", "A", "B")
    return float(params.I), float(params.A), float(params.B)


# ---------------------------------------------------------------------------
# compiled kinetic metric

_SPATIAL = ("is-af", "af-af", "H-af", "r-af")


def _right_form(J: np.ndarray) -> np.ndarray:
    """Matrix of W -> W J on row-major vec(W), for symmetric J."""
    n = J.shape[0]
    return (np.eye(n)[:, None, :, None] * J[None, :, None, :]).reshape(n * n, n * n)


def _iab_form(I: float, A: float, B: float, n: int) -> np.ndarray:
    """Matrix of W -> I W + A W.T + B Tr(W) Id on row-major vec(W)."""
    e = np.eye(n)
    return (I * e[:, None, :, None] * e[None, :, None, :]
            + A * e[:, None, None, :] * e[None, :, :, None]
            + B * e[:, :, None, None] * e[None, None, :, :]).reshape(n * n, n * n)


def _inverse(form: np.ndarray, name: str) -> np.ndarray:
    try:
        out = np.linalg.inv(form)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMetric(f"{name} is not invertible") from exc
    if not np.all(np.isfinite(out)):
        raise DegenerateMetric(f"{name} is not invertible")
    return out


def _internal_metric(internal: str, params: InertiaParams, n: int):
    """(G, G^-1) of one body's internal kinetic form on row-major vec(W), read-only."""
    if internal in ("dalembert", "af-J", "H-af"):
        name = "H" if internal == "H-af" else "J"
        _require(params, internal, name)
        J = getattr(params, name)
        G, Ginv = _right_form(J), _right_form(_inverse(J, name))
    elif internal in ("l-af", "r-af"):
        name = "Lten" if internal == "l-af" else "Rten"
        _require(params, internal, name)
        G = getattr(params, name)
        if G.shape != (n * n, n * n):
            raise ValueError(f"{name} must be {n * n} x {n * n} at n = {n}")
        Ginv = _inverse(G, name)
    else:
        I, A, B = _iab(params, internal)
        tc = tilde_constants(I, A, B, n)
        G, Ginv = _iab_form(I, A, B, n), _iab_form(tc.recip_I, tc.recip_A, tc.recip_B, n)
    for arr in (G, Ginv):
        arr.flags.writeable = False
    return G, Ginv


@dataclass(frozen=True)
class KineticForm:
    """The kinetic energy of N bodies, compiled once by compile_kinetics.

    Every internal model is a quadratic form (1/2) w.G w in w = vec(W), the
    row-major flattening of a velocity matrix W: xi itself (``fixed``
    frame, the d'Alembert model), Omega = xi phi^-1 (``spatial``) or
    Omega_hat = phi^-1 xi (``comoving``).  Its conjugate spin S satisfies
    vec(S.T) = G w and is pi, Sigma = phi pi or Sigma_hat = pi phi.  G and
    its inverse are (n*n, n*n) when the bodies share their inertia and
    (N, n*n, n*n) per body otherwise; M is (N, 1).  The af-is translational
    sector (``comoving_p``) puts the mass metric on v_hat = phi^-1 v.

    The methods take stacked (N, ...) arrays; ``hamiltonian``, ``velocity``
    and ``force`` also take leading member axes, (..., N, ...), each member
    bit-equal to its own evaluation.  ``velocity`` writes the inverse
    Legendre map into given arrays and ``force`` returns the kinetic part of
    the phi force: the two halves of the canonical equations' kinetic terms.
    """

    frame: str
    comoving_p: bool
    M: np.ndarray
    G: np.ndarray
    Ginv: np.ndarray

    def _op(self, a, b, out=None):
        """a @ b in the spatial frame and b @ a in the co-moving one."""
        return np.matmul(a, b, out=out) if self.frame == "spatial" else np.matmul(b, a, out=out)

    def _forward(self, phi_inv, v, xi):
        """w = vec(W) and G w as (N, n*n, 1), and v or v_hat."""
        N, n = xi.shape[:2]
        w = (xi if self.frame == "fixed" else self._op(xi, phi_inv)).reshape(N, n * n, 1)
        vw = (phi_inv @ v[:, :, None])[:, :, 0] if self.comoving_p else v
        return w, self.G @ w, vw

    def momenta(self, phi_inv, v, xi):
        """Legendre map (v, xi) -> (p, pi)."""
        _, s, vw = self._forward(phi_inv, v, xi)
        N, n = xi.shape[:2]
        S = s.reshape(N, n, n).transpose(0, 2, 1)
        pi = np.ascontiguousarray(S) if self.frame == "fixed" else self._op(phi_inv, S)
        p = self.M * vw
        if self.comoving_p:
            p = (phi_inv.transpose(0, 2, 1) @ p[:, :, None])[:, :, 0]
        return p, pi

    def energy(self, phi_inv, v, xi) -> np.ndarray:
        """Kinetic energy per body in the velocity picture."""
        w, s, vw = self._forward(phi_inv, v, xi)
        return 0.5 * ((w * s).sum(axis=(1, 2)) + self.M[:, 0] * (vw * vw).sum(axis=1))

    def _spin_velocity(self, phi, pi):
        """Spin vectors s = vec(S.T) as (..., N, n*n, 1) and W = unvec(G^-1 s)."""
        S = pi if self.frame == "fixed" else self._op(phi, pi)
        s = S.swapaxes(-1, -2).reshape(S.shape[:-2] + (-1, 1))
        return s, (self.Ginv @ s).reshape(S.shape)

    def _p_hat(self, phi, p):
        """p, or p_hat = phi.T p in the af-is translational sector."""
        return (phi.swapaxes(-1, -2) @ p[..., None])[..., 0] if self.comoving_p else p

    def hamiltonian(self, phi, p, pi) -> np.ndarray:
        """Kinetic Hamiltonian per body, shape (..., N):
        (1/2) s.G^-1 s + (1/2M) p.p (or p_hat)."""
        s, W = self._spin_velocity(phi, pi)
        ph = self._p_hat(phi, p)
        return 0.5 * ((s[..., 0] * W.reshape(s.shape[:-1])).sum(axis=-1)
                      + (ph * ph).sum(axis=-1) / self.M[:, 0])

    def velocity(self, phi, p, pi, v, xi) -> None:
        """Write the inverse Legendre map (v, xi) into the arrays ``v`` and
        ``xi``.  ``xi`` must have contiguous matrices, so that its reshape
        to spin vectors is a view."""
        if self.comoving_p:
            # v = phi v_hat
            np.matmul(phi, (self._p_hat(phi, p) / self.M)[..., :, None], out=v[..., :, None])
        else:
            np.divide(p, self.M, out=v)
        if self.frame == "fixed":
            s = pi.swapaxes(-1, -2).reshape(pi.shape[:-2] + (-1, 1))
            np.matmul(self.Ginv, s, out=xi.reshape(s.shape))
        else:
            self._op(self._spin_velocity(phi, pi)[1], phi, out=xi)

    def force(self, phi, p, pi):
        """(dT/dphi).T per body, the transposed kinetic force on phi:
        dT/dphi is (pi Omega).T or (Omega_hat pi).T and gains p v_hat.T in
        the af-is translational sector.  None where it vanishes, the fixed
        frame with p in the mass metric."""
        gT = None if self.frame == "fixed" else self._op(pi, self._spin_velocity(phi, pi)[1])
        if self.comoving_p:
            pv = (self._p_hat(phi, p) / self.M)[..., :, None] * p[..., None, :]
            gT = pv if gT is None else gT + pv
        return gT


def compile_kinetics(model: KineticModel, params, n: int, N: int) -> KineticForm:
    """Build the metric constants of every body once.

    ``params`` is one InertiaParams shared by all bodies or a sequence with
    one per body.  Raises MissingParams when the model needs an absent
    constant and DegenerateMetric when its form is not invertible.
    """
    internal = model.internal
    frame = "spatial" if internal in _SPATIAL else \
        "fixed" if internal == "dalembert" else "comoving"
    if isinstance(params, InertiaParams):
        G, Ginv = params.metric(internal, n)
        M = np.full((N, 1), float(params.M))
    else:
        per_body = [params_for_body(params, K) for K in range(N)]
        forms = [pk.metric(internal, n) for pk in per_body]
        G = np.stack([f[0] for f in forms])
        Ginv = np.stack([f[1] for f in forms])
        M = np.array([[float(pk.M)] for pk in per_body])
    return KineticForm(frame=frame, comoving_p=model.translational == "af-is",
                       M=M, G=G, Ginv=Ginv)


# ---------------------------------------------------------------------------
# public views over the compiled form

def kinetic_energy(model: KineticModel, params, config: SystemConfig,
                   vel: VelocityState, per_body: bool = False):
    """Total kinetic energy, summed over bodies in index order.

    With ``per_body`` the individual body contributions are returned instead.
    """
    form = compile_kinetics(model, params, config.n, config.N)
    _, phi_inv = det_inv(config.phi)
    out = form.energy(phi_inv, vel.v, vel.xi)
    return out if per_body else float(out.sum())


def legendre(model: KineticModel, params, config: SystemConfig,
             vel: VelocityState) -> MomentumState:
    """Map (v, xi) to canonical momenta (p, pi) for the selected model."""
    form = compile_kinetics(model, params, config.n, config.N)
    _, phi_inv = det_inv(config.phi)
    p, pi = form.momenta(phi_inv, vel.v, vel.xi)
    return MomentumState(p=p, pi=pi)


def inverse_legendre(model: KineticModel, params, config: SystemConfig,
                     mom: MomentumState) -> VelocityState:
    """Map canonical momenta back to velocities (exact inverse of legendre)."""
    form = compile_kinetics(model, params, config.n, config.N)
    checked_det(config.phi)
    v, xi = np.empty(mom.p.shape), np.empty(mom.pi.shape)
    form.velocity(config.phi, mom.p, mom.pi, v, xi)
    return VelocityState(v=v, xi=xi)


def kinetic_hamiltonian(model: KineticModel, params, config: SystemConfig,
                        mom: MomentumState, per_body: bool = False):
    """Kinetic Hamiltonian; satisfies T(legendre(v, xi)) = T(v, xi)."""
    form = compile_kinetics(model, params, config.n, config.N)
    checked_det(config.phi)
    out = form.hamiltonian(config.phi, mom.p, mom.pi)
    return out if per_body else float(out.sum())


def kinetic_phi_gradient(model: KineticModel, params, config: SystemConfig,
                         mom: MomentumState) -> np.ndarray:
    """d(kinetic Hamiltonian)/d(phi) per body, in phi shape (N, n, n).

    The spatial-picture models contribute (pi Omega).T and the co-moving ones
    (Omega_hat pi).T, with Omega / Omega_hat the inverse-Legendre velocity
    matrices recovered directly from the affine spins; an af-is translational
    sector adds p p_hat.T / M.
    """
    form = compile_kinetics(model, params, config.n, config.N)
    checked_det(config.phi)
    gT = form.force(config.phi, mom.p, mom.pi)
    return np.zeros(config.phi.shape) if gT is None else gT.transpose(0, 2, 1)


# ---------------------------------------------------------------------------
# diagnostics

def positivity_check(I: float, A: float, B: float, n: int) -> tuple[bool, np.ndarray]:
    """Definiteness of the (I, A, B) internal form on L(n, R).

    Builds the n^2 x n^2 quadratic form of (I/2)Tr(Om.T Om) + (A/2)Tr(Om^2)
    + (B/2)(Tr Om)^2 over vec(Om) and returns (positive_definite, spectrum
    ascending).
    """
    spectrum = np.linalg.eigvalsh(_iab_form(I, A, B, n))
    scale = max(1.0, float(np.max(np.abs(spectrum))))
    return bool(spectrum[0] > 1e-12 * scale), spectrum
