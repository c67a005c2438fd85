"""Invariant potential-energy terms and their analytic gradients.

A potential is assembled from three groups:

* one-body terms: a harmonic well in the center position plus scalar
  functions of the single-body invariants K_a = Tr((phi.T phi)^a)
* binary terms: scalar functions of one of the pair channels
  ``r``     Euclidean center distance |x_K - x_L|
  ``D``     affine distance sqrt(dx.T Cbar dx), Cbar = (C[phi_K] + C[phi_L])/2
  ``K:a``   mutual invariant Tr((phi_K.T phi_L)^a)
  ``Mbar:a`` symmetrized affine invariant (Tr Gamma^a + Tr Gamma^-a)/2 with
             Gamma = phi_K^-1 phi_L
* a dilatation stabilizer (kappa/2) ln(det phi / d_ref)^2 per body

``Mbar`` uses the symmetrized combination because swapping the pair inverts
Gamma; the symmetrization makes every binary term exactly symmetric in
(K, L), which the raw Tr Gamma^a is not.

The total is sum(one-body) + (1/2) sum_{K != L} binary + sum(dilatation).
``compile_potential`` parses the channels once per run; its ``evaluate``
works on stacked (N, ...) body arrays and evaluates all pairs at once as
(2P, ...) arrays over the ordered pairs (K, L) and (L, K), then scatters the
pair gradients onto the bodies in a fixed order, so reruns are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NegativeOrientation, NonDifferentiable
from .kinematics import BodyConfig, SystemConfig, _powers
from .matcore import as_matrix, det_inv


# ---------------------------------------------------------------------------
# scalar function library: each evaluates to (value, d/ds), elementwise on
# arrays of arguments

@dataclass(frozen=True)
class PolyFn:
    """sum_j coeffs[j] * (s - shift)^j"""

    coeffs: tuple
    shift: float = 0.0

    def eval(self, s):
        t = s - self.shift
        val = 0.0 * t
        slope = 0.0 * t
        for j in range(len(self.coeffs) - 1, 0, -1):
            c = self.coeffs[j]
            val = val * t + c
            slope = slope * t + j * c
        if self.coeffs:
            val = val * t + self.coeffs[0]
        return val, slope


@dataclass(frozen=True)
class HarmonicFn:
    """(stiffness/2) (s - center)^2"""

    stiffness: float
    center: float = 0.0

    def eval(self, s):
        d = s - self.center
        return 0.5 * self.stiffness * d * d, self.stiffness * d


@dataclass(frozen=True)
class LogHarmonicFn:
    """(stiffness/2) ln(s / ref)^2, for positive channels"""

    stiffness: float
    ref: float = 1.0

    def eval(self, s):
        if np.any(s <= 0.0):
            raise NonDifferentiable("log-harmonic term needs a positive argument")
        u = np.log(s / self.ref)
        return 0.5 * self.stiffness * u * u, self.stiffness * u / s


@dataclass(frozen=True)
class LennardJonesFn:
    """4 epsilon ((sigma/s)^12 - (sigma/s)^6)"""

    epsilon: float
    sigma: float

    def eval(self, s):
        if np.any(s <= 0.0):
            raise NonDifferentiable("Lennard-Jones term needs a positive argument")
        u6 = (self.sigma / s) ** 6
        val = 4.0 * self.epsilon * (u6 * u6 - u6)
        slope = 4.0 * self.epsilon * (-12.0 * u6 * u6 + 6.0 * u6) / s
        return val, slope


# ---------------------------------------------------------------------------
# term and spec containers

@dataclass(frozen=True)
class TranslationalHarmonic:
    """One-body external well (stiffness/2) |x - center|^2."""

    stiffness: float
    center: tuple = ()

    def center_vec(self, n: int) -> np.ndarray:
        if not self.center:
            return np.zeros(n)
        return np.asarray(self.center, dtype=float)


@dataclass(frozen=True)
class InvariantTerm:
    """One-body internal term fn(K_a[phi])."""

    a: int
    fn: object


@dataclass(frozen=True)
class BinaryTerm:
    """Pair term fn(channel) with channel in r / D / K:a / Mbar:a."""

    arg: str
    fn: object


@dataclass(frozen=True)
class DilatationTerm:
    """Volume stabilizer (kappa/2) ln(det phi / d_ref)^2 per body."""

    kappa: float
    d_ref: float = 1.0

    def __post_init__(self):
        if self.kappa < 0:
            raise ValueError("kappa must be non-negative")


@dataclass(frozen=True)
class PotentialSpec:
    one_body: tuple = ()
    binary: tuple = ()
    dil: DilatationTerm | None = None

    def __post_init__(self):
        object.__setattr__(self, "one_body", tuple(self.one_body))
        object.__setattr__(self, "binary", tuple(self.binary))
        for term in self.binary:
            _parse_channel(term.arg)


def _parse_channel(arg: str) -> tuple[str, int]:
    if arg in ("r", "D"):
        return arg, 0
    kind, _, idx = arg.partition(":")
    if kind in ("K", "Mbar") and idx.isdigit() and int(idx) >= 1:
        return kind, int(idx)
    raise ValueError(f"unknown binary channel {arg!r}")


# ---------------------------------------------------------------------------
# compiled evaluation over stacked bodies and ordered pairs

@lru_cache(maxsize=32)
def _ordered_pairs(n: int, N: int) -> tuple:
    """Index arrays of the 2P ordered pairs, (K, L) for every K < L and then (L, K).

    Returns (first, second, swap, x_index, phi_index): ``swap`` maps each
    ordered pair to its reverse, and the index arrays scatter per-pair rows
    of shape (n,) or (n, n) onto the first body of the pair with bincount,
    which sums in row order and so keeps reruns bit-identical.
    """
    K, L = np.triu_indices(N, 1)
    P = len(K)
    first = np.concatenate([K, L])
    out = (first, np.concatenate([L, K]),
           np.concatenate([np.arange(P, 2 * P), np.arange(P)]),
           (first[:, None] * n + np.arange(n)).ravel(),
           (first[:, None] * (n * n) + np.arange(n * n)).ravel())
    for arr in out:
        arr.flags.writeable = False
    return out


@lru_cache(maxsize=32)
def _stacked_scatter(n: int, N: int, S: int) -> tuple:
    """(x_index, phi_index) of ``_ordered_pairs`` for S stacked members, the
    indices of member s offset by s N n and s N n n: one bincount then
    scatters every member's pairs, each bin summed in the member's own row
    order, so each member is bit-equal to its own scatter."""
    x_index, phi_index = _ordered_pairs(n, N)[3:]
    out = ((np.arange(S)[:, None] * (N * n) + x_index).ravel(),
           (np.arange(S)[:, None] * (N * n * n) + phi_index).ravel())
    for arr in out:
        arr.flags.writeable = False
    return out


@dataclass(frozen=True)
class PotentialForm:
    """A PotentialSpec compiled for N bodies in n dimensions.

    ``binary`` holds (channel, a, fn) per binary term, parsed once; ``pairs``
    holds the ordered-pair index arrays (None without binary terms or with a
    single body); the ``*_a`` fields are the highest matrix power each
    channel family needs.
    """

    spec: PotentialSpec
    n: int
    N: int
    binary: tuple
    pairs: tuple | None
    invariant_a: int
    K_a: int
    Mbar_a: int

    def evaluate(self, x, phi, det, phi_inv, grad: bool = True):
        """(V, dV/dx, (dV/dphi).T) on stacked bodies (..., N, ...): with
        ``grad`` only the gradients are computed and V is None, without it
        only V and the gradients are None.  ``det`` and ``phi_inv`` are those
        of ``phi``.  Leading axes are members evaluated at once, each bit-equal
        to its own evaluation; V then has their shape."""
        N, n, spec = self.N, self.n, self.spec
        lead = x.shape[:-2]
        value = None if grad else 0.0
        dx = np.zeros(lead + (N, n)) if grad else None
        gT = np.zeros(lead + (N, n, n)) if grad else None
        phiT = phi.swapaxes(-1, -2)
        if self.invariant_a:
            # G^(a-1) phi.T, a = 1..max: Tr(G^a) and the transposed gradient 2a G^(a-1) phi.T
            pw = _powers(phiT @ phi, self.invariant_a - 1, right=phiT)
        for term in spec.one_body:
            if isinstance(term, TranslationalHarmonic):
                d = x - term.center_vec(n)
                if grad:
                    dx += term.stiffness * d
                else:
                    value += 0.5 * term.stiffness * (d * d).sum(axis=(-2, -1))
            else:
                val, slope = term.fn.eval((pw[term.a - 1] * phiT).sum(axis=(-2, -1)))
                if grad:
                    gT += (2.0 * term.a * slope)[..., None, None] * pw[term.a - 1]
                else:
                    value += val.sum(axis=-1)
        if spec.dil is not None:
            if (det <= 0.0).any():
                raise NegativeOrientation("dilatation term needs det phi > 0")
            u = np.log(det / spec.dil.d_ref)
            if grad:
                gT += (spec.dil.kappa * u)[..., None, None] * phi_inv
            else:
                value += 0.5 * spec.dil.kappa * (u * u).sum(axis=-1)
        if self.pairs is not None:
            pair_value = self._binary(x, phi, phi_inv, dx, gT)
            if not grad:
                value += pair_value
        return value, dx, gT

    def _binary(self, x, phi, phi_inv, dx, gT):
        """Value of the binary terms; with gradient arrays given, adds to them
        instead and returns None.

        Every channel is evaluated on each ordered pair (I, J) and averaged
        with its reverse, which makes it exactly swap symmetric.  Row
        gradients are those of the pair value with respect to the first
        body, so each pair is counted once in the value and scattered once
        per body in the gradient.
        """
        first, second, swap, x_index, phi_index = self.pairs
        N, n, P = self.N, self.n, len(first) // 2
        lead = x.shape[:-2]
        grad = dx is not None
        kinds = {kind for kind, _, _ in self.binary}
        on_x = bool(kinds & {"r", "D"})
        inv_f = phi_inv[..., first, :, :]
        phi_s = phi[..., second, :, :]
        phi_sT = phi_s.swapaxes(-1, -2)

        if on_x:
            d = x[..., first, :] - x[..., second, :]
            gx = np.zeros_like(d)
        if "r" in kinds:
            r = np.sqrt((d * d).sum(axis=-1))
            if (r == 0.0).any():
                raise NonDifferentiable("binary r-term with coincident centers")
        if "D" in kinds:
            # u = phi_I^-1 d and c = C_I d: D^2 = (u_IJ.u_IJ + u_JI.u_JI) / 2
            u = (inv_f @ d[..., None])[..., 0]
            c = (inv_f.swapaxes(-1, -2) @ u[..., None])[..., 0]
            q = (u * u).sum(axis=-1)
            D = np.sqrt(0.5 * (q + q[..., swap]))
            if grad and (D == 0.0).any():
                raise NonDifferentiable("binary D-term with coincident centers")
        if self.K_a:
            # H = phi_J.T phi_I, the mutual Gm of the reverse pair: H^j phi_J.T, j < a;
            # Tr(H^a) = K:a and a H^(a-1) phi_J.T is the transposed row gradient
            phi_f = phi[..., first, :, :]
            Kp = _powers(phi_sT @ phi_f, self.K_a - 1, right=phi_sT)
            t = (Kp * phi_f.swapaxes(-1, -2)).sum(axis=(-2, -1))
            K_val = 0.5 * (t + t[..., swap])
        if self.Mbar_a:
            # Gamma = phi_I^-1 phi_J: Gamma^j phi_I^-1, j <= a; Tr(Gamma^a) averaged
            # with Tr(Gamma^-a) of the reverse pair is Mbar:a
            Mp = _powers(inv_f @ phi_s, self.Mbar_a, right=inv_f)
            t = (Mp[:-1] * phi_sT).sum(axis=(-2, -1))
            M_val = 0.5 * (t + t[..., swap])
            if grad:
                M_grad = Mp[:-1][..., swap, :, :] - Mp[1:]
        if grad:
            gphiT = np.zeros(lead + (2 * P, n, n))
        value = None if grad else 0.0
        for kind, a, fn in self.binary:
            if kind == "r":
                s = r
            elif kind == "D":
                s = D
            else:
                s = (K_val if kind == "K" else M_val)[a - 1]
            val, slope = fn.eval(s)
            if not grad:
                value += val[..., :P].sum(axis=-1)
                continue
            if kind == "r":
                gx += (slope / r)[..., None] * d
            elif kind == "D":
                w = 0.5 * slope / D
                gx += w[..., None] * (c - c[..., swap, :])
                gphiT -= w[..., None, None] * (u[..., :, None] * c[..., None, :])
            elif kind == "K":
                gphiT += (a * slope)[..., None, None] * Kp[a - 1]
            else:
                gphiT += (0.5 * a * slope)[..., None, None] * M_grad[a - 1]
        if grad:
            if lead:
                x_index, phi_index = _stacked_scatter(n, N, gT.size // (N * n * n))
            if on_x:
                dx += np.bincount(x_index, weights=gx.ravel(), minlength=dx.size).reshape(dx.shape)
            gT += np.bincount(phi_index, weights=gphiT.ravel(),
                              minlength=gT.size).reshape(gT.shape)
        return value


def compile_potential(spec: PotentialSpec, n: int, N: int) -> PotentialForm:
    """Parse the binary channels once and build the pair indices for N bodies."""
    binary = tuple((*_parse_channel(term.arg), term.fn) for term in spec.binary)
    invariant = [t.a for t in spec.one_body if isinstance(t, InvariantTerm)]
    return PotentialForm(
        spec=spec, n=n, N=N, binary=binary,
        pairs=_ordered_pairs(n, N) if binary and N > 1 else None,
        invariant_a=max(invariant, default=0),
        K_a=max((a for k, a, _ in binary if k == "K"), default=0),
        Mbar_a=max((a for k, a, _ in binary if k == "Mbar"), default=0))


# ---------------------------------------------------------------------------
# public evaluation

def affine_distance(x_K, phi_K, x_L, phi_L):
    """Spatially affine-invariant distance through the mean Cauchy tensor.

    One pair gives a float.  Stacks x (..., n) and phi (..., n, n) give the
    distance of each pair, shape (...); a singular phi is named by its
    index, ``phi[..., 0]`` for phi_K and ``phi[..., 1]`` for phi_L.
    """
    _, phi_inv = det_inv(np.stack([np.asarray(phi_K, float), np.asarray(phi_L, float)],
                                  axis=-3))
    d = np.asarray(x_K, dtype=float) - np.asarray(x_L, dtype=float)
    u = (phi_inv @ d[..., None, :, None])[..., 0]
    q = (u * u).sum(axis=-1)
    dist = np.sqrt(0.5 * (q[..., 0] + q[..., 1]))
    return float(dist) if dist.ndim == 0 else dist


def binary_potential(spec: PotentialSpec, body_K: BodyConfig, body_L: BodyConfig) -> float:
    """Value of the binary interaction for one unordered pair."""
    return total_potential(PotentialSpec(binary=spec.binary),
                           SystemConfig.from_bodies([body_K, body_L]))


def dilatation_stabilizer(spec: PotentialSpec, phi) -> float:
    """Stabilizer value for a single body: the dilatation term of
    ``total_potential`` on that body alone."""
    phi = as_matrix(phi)
    return total_potential(PotentialSpec(dil=spec.dil),
                           SystemConfig(x=np.zeros((1, phi.shape[0])), phi=phi[None]))


def total_potential(spec: PotentialSpec, config: SystemConfig) -> float:
    """Full potential: one-body + (1/2) off-diagonal pair sum + stabilizers."""
    det, phi_inv = det_inv(config.phi)
    form = compile_potential(spec, config.n, config.N)
    return float(form.evaluate(config.x, config.phi, det, phi_inv, grad=False)[0])


def potential_gradient(spec: PotentialSpec, config: SystemConfig):
    """Analytic (dV/dx, dV/dphi), shapes (N, n) and (N, n, n)."""
    det, phi_inv = det_inv(config.phi)
    form = compile_potential(spec, config.n, config.N)
    _, dx, gT = form.evaluate(config.x, config.phi, det, phi_inv)
    return dx, gT.transpose(0, 2, 1)
