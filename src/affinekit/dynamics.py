"""Canonical Hamilton equations, time integration, brackets, Noether charges.

Phase space per body: (x, p) in R^n x R^n and (phi, pi) in GL+(n) x L(n, R),
with pi[a, i] canonically conjugate to phi[i, a] (the Tr(pi xi) pairing), so
in components

    dx[i]/dt = dH/dp[i]            dp[i]/dt    = -dH/dx[i]
    dphi[i, a]/dt = dH/dpi[a, i]   dpi[a, i]/dt = -dH/dphi[i, a]

In matrix form the velocity block is exactly the inverse Legendre map and
the pi block is -(dH/dphi).T.

The default integrator is the implicit midpoint rule: symplectic, and it
preserves every quadratic first integral (all the affine-spin charges) to
solver tolerance.  One solver takes every midpoint step, in blocks of up to 64
steps when D <= _WINDOW_MAX_D and of one otherwise, each solved by Picard
sweeps over the whole block (Gander, 50 Years of Time Parallel Time
Integration, 2015).  Every sweep takes the two halves of the equations in
order (Hairer, Lubich & Wanner, Geometric Numerical Integration, section
VIII.6): first the positions, from the velocity at the position and momentum
midpoints, then the momenta, from the force at the midpoints of the new
positions, each by one in-order cumulative sum.  A simultaneous sweep would
carry an error from the positions to the momenta and back one half-map per
sweep; an ordered one applies both, and a long_stream window takes 3.4 of
them where it took 5.4 simultaneous ones.  A sweep evaluates each half once
and counts as one RHS call.  A block starts from a polynomial through the
samples before it (the starting approximation of the same section): a
window of 16 or more steps from sample 56 on from the degree-7 one through
every 8th of the last 57 samples, any other block from the one through the
last 1-5.  It stops by the contraction test of Hairer & Wanner, Solving ODEs
II, section IV.8, or once no step changes by more than 1e-15 of its scale,
taken from the current iterate and not from the start guess.  An accepted
step is then the fixed point to roundoff:
rho_k = max|z_k + h f((z_k + z_{k+1})/2) - z_{k+1}| / max(1, max|z_k|) is at
most about 1e-15 wherever roundoff allows it.  A failed solve returns its
error; integrate solves a failed window again step by step and aborts the run
on any other failure, keeping the samples before it.

The left- and right-invariant kinetic models (is-af, af-is, af-J, H-af,
l-af, r-af) couple phi and pi, so H is non-separable for them.
Explicit splitting would still apply to d'Alembert/d'Alembert with any
configuration potential, and to af-af internal motion with a d'Alembert
translational sector, whose kinetic flow phi(t) = expm(t Omega) phi0 is exact.

``compile_system`` builds every per-run constant of H once.  Its
``velocity`` and ``force`` are the two halves of the canonical equations,
the force with one stacked det and inverse of the phi stack; ``rhs`` is the
two side by side.  They, ``energy`` and ``charges`` act on views of the flat
phase vector z = (x, phi, p, pi), or of a stack (..., D) of them.  The public
functions below are thin calls into them.  Every det phi
and phi^-1 here, the charges' det_phi and the det-floor test of the samples
included, and the singular values behind the charges' q_log come from the one
``matcore`` kernel: closed form at n <= 2, LAPACK at n >= 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AffineKitError, IterationDiverged, RunTooLong, StateInvalid
from .kinematics import SystemConfig
from .kinetics import KineticForm, KineticModel, MomentumState, compile_kinetics
from .matcore import DET_FLOOR, det_inv, singular_values, unchecked_det
from .potentials import PotentialForm, PotentialSpec, compile_potential

MIDPOINT_TOL = 1e-12
MIDPOINT_MAX_ITER = 50


@dataclass(frozen=True)
class PhaseState:
    config: SystemConfig
    mom: MomentumState
    time: float = 0.0

    def __post_init__(self):
        if self.mom.p.shape != self.config.x.shape \
                or self.mom.pi.shape != self.config.phi.shape:
            raise ValueError("momentum shapes do not match the configuration")

    @property
    def n(self) -> int:
        return self.config.n

    @property
    def N(self) -> int:
        return self.config.N


@dataclass(frozen=True)
class ChargeRecord:
    """Conserved quantities: totals plus per-body skew charges.  Shapes are
    those of one state; a trajectory's record adds a leading sample axis."""

    energy: float
    p_total: np.ndarray
    sigma_total: np.ndarray
    sigma_hat_total: np.ndarray
    lambda_total: np.ndarray
    j_total: np.ndarray
    spin: np.ndarray            # (N, n, n) per-body S_K
    vorticity: np.ndarray       # (N, n, n) per-body V_K
    det_phi: np.ndarray         # (N,)
    q_log: np.ndarray           # (N, n) two-polar log invariants


def _split(z: np.ndarray, N: int, n: int):
    """Views (x, phi, p, pi) of flat phase vectors, keeping leading axes."""
    nx, nphi = N * n, N * n * n
    vec, mat = z.shape[:-1] + (N, n), z.shape[:-1] + (N, n, n)
    return (z[..., :nx].reshape(vec), z[..., nx:nx + nphi].reshape(mat),
            z[..., nx + nphi:2 * nx + nphi].reshape(vec), z[..., 2 * nx + nphi:].reshape(mat))


def _half_views(a: np.ndarray, N: int, n: int):
    """Views (vectors (..., N, n), matrices (..., N, n, n)) of half phase
    vectors (..., N n + N n n), (x, phi) or (p, pi).  The last axis of ``a``
    must be contiguous: then both are views, and a write through them lands
    in ``a``."""
    nx, lead = N * n, a.shape[:-1]
    return a[..., :nx].reshape(lead + (N, n)), a[..., nx:].reshape(lead + (N, n, n))


@dataclass
class Trajectory:
    """A run of S samples as arrays: ``times`` (S,), the flat phase vectors
    ``z`` (S, D) with their (S, N, ...) views ``x``, ``phi``, ``p``, ``pi``,
    and one ChargeRecord with a leading sample axis.  ``state(k)`` gives
    sample k as a PhaseState.  Step k (from sample k to k + 1) took
    ``step_evals[k]`` RHS evaluations of its phase vector and ended its
    fixed-point solve at the residual ``step_residuals[k]``, relative to
    max(1, max|z_k|); rk4 steps have no residual (NaN).  ``rhs_calls``
    counts the RHS calls, failed solves' included; ``abort_kind`` and
    ``abort_reason`` name the failure that ``aborted`` a run."""

    times: np.ndarray
    z: np.ndarray
    charges: ChargeRecord
    n: int
    N: int
    step_evals: np.ndarray
    step_residuals: np.ndarray
    aborted: bool = False
    abort_reason: str = ""
    abort_kind: str = ""
    rhs_calls: int = 0

    def __post_init__(self):
        self.x, self.phi, self.p, self.pi = _split(self.z, self.N, self.n)

    @property
    def rhs_evals(self) -> int:
        """RHS evaluations of the steps kept in the trajectory."""
        return int(self.step_evals.sum())

    def state(self, k: int) -> PhaseState:
        return _unpack(self.z[k], self.N, self.n, float(self.times[k]))

    def require_complete(self) -> "Trajectory":
        """Raise StateInvalid if the run was aborted, whatever the failure."""
        if self.aborted:
            raise StateInvalid(self.abort_reason)
        return self


def _charge_record(x, phi, p, pi, det, energy) -> ChargeRecord:
    """Charges of (..., N, ...) body stacks, summed over the body axis."""
    sigma = phi @ pi
    sigma_hat = pi @ phi
    sigma_total = sigma.sum(axis=-3)
    lambda_total = (x[..., :, None] * p[..., None, :]).sum(axis=-3)
    return ChargeRecord(
        energy=energy,
        p_total=p.sum(axis=-2),
        sigma_total=sigma_total,
        sigma_hat_total=sigma_hat.sum(axis=-3),
        lambda_total=lambda_total,
        j_total=lambda_total + sigma_total,
        spin=sigma - sigma.swapaxes(-1, -2),
        vorticity=sigma_hat - sigma_hat.swapaxes(-1, -2),
        det_phi=det,
        q_log=np.log(singular_values(phi)),
    )


# ---------------------------------------------------------------------------
# compiled system

@dataclass(frozen=True)
class CompiledSystem:
    """A kinetic model, its inertia and a potential compiled for N bodies."""

    kin: KineticForm
    pot: PotentialForm
    n: int
    N: int

    def rhs(self, z: np.ndarray) -> np.ndarray:
        """dz/dt of the canonical equations at z (D,), or at each row of a
        stack (..., D) in one evaluation, every row bit-equal to its own:
        velocity beside force, at z."""
        out = np.empty(z.shape)
        at, rate = _split(z, self.N, self.n), _split(out, self.N, self.n)
        self.velocity(*at, *rate[:2])
        self.force(*at, *rate[2:])
        return out

    def velocity(self, x, phi, p, pi, v, xi) -> None:
        """Write the configuration rates (v, xi) = dH/d(p, pi) at x, phi, p
        (..., N, n) and pi (..., N, n, n) into the arrays ``v`` and ``xi`` of
        those shapes: the inverse Legendre map, which does not read x."""
        self.kin.velocity(phi, p, pi, v, xi)

    def force(self, x, phi, p, pi, dp, dpi) -> None:
        """Write the momentum rates -(dV/dx, (dT/dphi + dV/dphi).T) at x,
        phi, p (..., N, n) and pi (..., N, n, n) into the arrays ``dp`` and
        ``dpi`` of those shapes, with one det and inverse of the phi stack."""
        det, phi_inv = det_inv(phi)
        kin_gT = self.kin.force(phi, p, pi)
        _, dv_dx, dv_dphiT = self.pot.evaluate(x, phi, det, phi_inv)
        np.negative(dv_dx, out=dp)
        if kin_gT is not None:
            dv_dphiT = np.add(kin_gT, dv_dphiT, out=dpi)
        np.negative(dv_dphiT, out=dpi)

    def energy(self, z: np.ndarray):
        """H of z, a float; an (S, D) stack gives the (S,) energies in one
        evaluation."""
        x, phi, p, pi = _split(z, self.N, self.n)
        det, phi_inv = det_inv(phi)
        energy = self.kin.hamiltonian(phi, p, pi).sum(axis=-1) \
            + self.pot.evaluate(x, phi, det, phi_inv, grad=False)[0]
        return float(energy) if z.ndim == 1 else energy

    def charges(self, z: np.ndarray) -> ChargeRecord:
        """Charge record of z, energy included; an (S, D) stack of phase
        vectors gives one record with a leading sample axis."""
        x, phi, p, pi = _split(z, self.N, self.n)
        return _charge_record(x, phi, p, pi, unchecked_det(phi), self.energy(z))


def compile_system(model: KineticModel, params, spec: PotentialSpec,
                   n: int, N: int) -> CompiledSystem:
    """Build every per-run constant of H once.

    Raises MissingParams or DegenerateMetric here, before any evaluation.
    """
    return CompiledSystem(kin=compile_kinetics(model, params, n, N),
                          pot=compile_potential(spec, n, N), n=n, N=N)


def total_energy(model: KineticModel, params, spec: PotentialSpec,
                 state: PhaseState) -> float:
    return compile_system(model, params, spec, state.n, state.N).energy(_pack(state))


def noether_charges(state: PhaseState, energy: float = np.nan) -> ChargeRecord:
    """Per-body and total generators of the affine symmetry actions."""
    phi = state.config.phi
    return _charge_record(state.config.x, phi, state.mom.p, state.mom.pi,
                          unchecked_det(phi), float(energy))


# ---------------------------------------------------------------------------
# right-hand side

@dataclass(frozen=True)
class PhaseDerivative:
    x_dot: np.ndarray
    phi_dot: np.ndarray
    p_dot: np.ndarray
    pi_dot: np.ndarray


def hamilton_rhs(model: KineticModel, params, spec: PotentialSpec,
                 state: PhaseState) -> PhaseDerivative:
    """Canonical equations of motion for H = kinetic + potential."""
    system = compile_system(model, params, spec, state.n, state.N)
    return PhaseDerivative(*_split(system.rhs(_pack(state)), state.N, state.n))


# ---------------------------------------------------------------------------
# time integration

def _pack(state: PhaseState) -> np.ndarray:
    return np.concatenate([state.config.x.ravel(), state.config.phi.ravel(),
                           state.mom.p.ravel(), state.mom.pi.ravel()])


def _unpack(z: np.ndarray, N: int, n: int, time: float) -> PhaseState:
    x, phi, p, pi = _split(z, N, n)
    return PhaseState(config=SystemConfig(x=x, phi=phi), mom=MomentumState(p=p, pi=pi),
                      time=time)


@dataclass(frozen=True)
class Step:
    """A solve of a block of k steps: the new phase vectors (k, D), or None
    and the error as ``failure``; the RHS evaluations of each step (the
    block's sweeps); each step's last fixed-point change relative to its
    scale, (k,) (NaN for rk4); and the contraction estimate to carry on."""

    z: np.ndarray | None
    evals: int
    residual: float | np.ndarray = np.nan
    theta: float | None = None
    failure: Exception | None = None


# A window of _STRIDE_MIN_K or more steps, from sample 56 on, starts from the
# degree-7 polynomial through every _STRIDE-th of the last 57 samples,
# _STRIDE_SAMPLES of them; any other block from the one through the last 1-5.
# On long_stream (seed 7) the quartic through the last five missed a 64-step
# window's fixed point by a median 1.5e-6 of the scale, the strided start by
# 1.3e-9, and the run took 873 RHS calls instead of 1212.
_STRIDE = 8
_STRIDE_SAMPLES = 8
_STRIDE_MIN_K = 16


@lru_cache(maxsize=None)
def _ahead_weights(k: int, stride: int) -> np.ndarray:
    """(k, _STRIDE_SAMPLES - 1) weights C(j / s + d - 1, d)
    = prod_{i < d} (j + s i) / (s^d d!) of the d-th backward difference of
    samples s steps apart in Newton's form of the polynomial through them,
    evaluated j steps past the last one; row j = 1..k, column d = 1, 2, ...
    Each is the correctly rounded quotient of two integers, so at s = 1 it
    is the integer binomial C(j + d - 1, d) exactly."""
    out = np.empty((k, _STRIDE_SAMPLES - 1))
    for j in range(1, k + 1):
        num = den = 1
        for d in range(1, _STRIDE_SAMPLES):
            num, den = num * (j + stride * (d - 1)), den * stride * d
            out[j - 1, d - 1] = num / den
    out.flags.writeable = False
    return out


def _extrapolate_window(last: np.ndarray, k: int, stride: int = 1) -> np.ndarray:
    """Values 1..k steps ahead, (k, D) or a (D,) row that broadcasts to it, of
    the polynomial through the m = 1.._STRIDE_SAMPLES samples ``last``
    (m, D), spaced s = ``stride`` steps apart, in Newton's backward form:
    z_m + sum_{d < m} C(j / s + d - 1, d) nabla^d z_m, the constant z_m for
    one sample.  That form stays exact on polynomial motion of degree below
    m, where Lagrange's form of the same polynomial leaves roundoff: with it,
    dalembert_free_internal took 146 RHS calls over 3000 steps, against 60.
    Elementwise operations (no BLAS reduction), so reruns stay
    bit-identical."""
    w, out, diff = _ahead_weights(k, stride), last[-1], last
    for d in range(len(last) - 1):
        diff = diff[1:] - diff[:-1]
        out = out + w[:, d:d + 1] * diff[-1]
    return out


# The contraction estimate of a midpoint solve is _THETA_SAFETY times the
# largest ratio of successive worst changes measured.  The safety factor
# covers the growth of the rate between measurements.  A run carries the
# estimate from block to block and drops it at every block that holds a step
# index divisible by _THETA_REFRESH, so that block measures the rate afresh.
# A block of _THETA_REFRESH or more steps always holds one, so only one-step
# blocks and shorter windows take the carried estimate.  Carrying none left
# the bytes of perfbench's seed-7 pair_heavy and long_stream runs unchanged,
# and cost three of the five few_body runs 2-3 RHS calls each.
_THETA_SAFETY = 2.0
_THETA_REFRESH = 32

# Blocks hold up to _WINDOW steps on systems of at most _WINDOW_MAX_D
# phase-space entries and one step on larger ones, where stacked calls stop
# paying: at D = 120-192 pair-heavy systems ran 0.6-0.9x as fast windowed
# (n = 2 and 3, up to 16 bodies, 300 steps).  A window fails when its
# largest change has not shrunk in _WINDOW_STALLS sweeps running.
_WINDOW = 64
_WINDOW_MAX_D = 96
_WINDOW_STALLS = 2


def _add_up(terms: np.ndarray, h: np.ndarray, new: np.ndarray) -> None:
    """Scale the rates in rows 1..k of ``terms`` by the step lengths h (k, 1),
    then new_j = new_{j-1} + terms_j over rows j = 1..k, in order, from the
    shared row 0 (z_0): each new z_{j+1} is z_j + h_j f_j.  accumulate walks
    the columns one by one, so a block of columns sums as it would within
    the whole rows; a plain add does a lone step's row at once."""
    terms[1:] *= h
    if len(terms) == 2:
        np.add(terms[0], terms[1], out=new[1])
    else:
        np.add.accumulate(terms, out=new)


def _midpoints(rows: np.ndarray, out: np.ndarray) -> None:
    """(rows_j + rows_{j+1}) / 2 of consecutive rows into ``out``."""
    np.add(rows[:-1], rows[1:], out=out)
    out *= 0.5


def _half_buffers(z0: np.ndarray, k: int, N: int, n: int):
    """Contiguous midpoints (k, d) and terms (k + 1, d) of one half of a
    block, (x, phi) or (p, pi), z0 as the terms' row 0, each with the body
    views (see _half_views) of the rows a half map reads or writes; a lone
    step's one row."""
    mid, term = np.empty((k, len(z0))), np.empty((k + 1, len(z0)))
    term[0] = z0
    rows = 0 if k == 1 else slice(None)
    return mid, _half_views(mid[rows], N, n), term, _half_views(term[1:][rows], N, n)


def _midpoint_window(system: CompiledSystem, last: np.ndarray, hs: np.ndarray,
                     theta: float | None = None, stride: int = 1) -> Step:
    """k = len(hs) consecutive implicit-midpoint steps, of lengths ``hs``,
    from the last of the 1-8 samples ``last``, spaced ``stride`` steps of
    length hs[0] apart, solved together.

    The unknowns z_1..z_k start from the polynomial through ``last`` (see
    _extrapolate_window); from one sample the start is constant and the
    first sweep's positions are z_0 + h v(z_0), the Euler predictor's.  A
    sweep takes the positions by the in-order cumulative sum of
    [z_0, h_0 v_0, ..., h_{k-1} v_{k-1}], with v_j the velocity at the
    position and momentum midpoints, then the momenta by that of h_j times
    the force at the midpoints of the new positions and the same momentum
    midpoints (see _add_up).  So each new z_{j+1} is bit for bit z_j + h_j
    times the rates at its midpoints, and the block's fixed point is that
    of k single steps.  A sweep counts as one RHS evaluation.  The block
    stops when every step's change is at most
    1e-15 of its scale max(1, max|z_j|), or when theta / (1 - theta) times
    it is: with theta the contraction rate, that bounds the distance to the
    fixed point.  z_j is that of the current iterate: a scale taken from a
    start guess far off would loosen both tests and understate ``residual``.
    theta is the larger of the carried ``theta`` and _THETA_SAFETY times the
    largest ratio of successive worst changes.
    Without a carried estimate the test waits for two ratios: the change
    shrinks at different rates in different directions, the positions' and
    the momenta's among them, and the first ratio can show a smaller rate
    than the sweeps settle to.  The result carries the estimate on (one
    ratio is enough for that).

    The result counts the sweeps as ``evals`` and has each step's last
    change relative to its scale as ``residual``.  It never raises and lets
    no numpy warning out.  A block fails if its velocity or force raises an
    AffineKitError or LinAlgError, its iterate goes non-finite, it runs out
    of sweeps (unless k = 1 and the last change is within MIDPOINT_TOL) or,
    for a window (k >= 2), it stalls: the result has no phase vectors and
    has that error or an IterationDiverged as ``failure``.
    """
    k = len(hs)
    single = k == 1
    z = np.empty((k + 1, last.shape[-1]))
    h = hs[:, None]
    q, m = slice(None, z.shape[-1] // 2), slice(z.shape[-1] // 2, None)
    prev, rate, ratios, stalls = np.inf, 0.0, 0, 0
    # an overflow, in the start guess too, shows as a non-finite change, which fails the block
    with np.errstate(all="ignore"):
        z[0], z[1:] = last[-1], _extrapolate_window(last, k, stride)
        new = z.copy()                          # row 0 stays z_0
        # the velocity's terms sum up into the positions, the force's into
        # the momenta; both read the position and the momentum midpoints
        mid_q, at_q, into_x, rate_x = _half_buffers(z[0, q], k, system.N, system.n)
        mid_p, at_p, into_p, rate_p = _half_buffers(z[0, m], k, system.N, system.n)
        _midpoints(z[:, q], mid_q)
        for sweep in range(1, MIDPOINT_MAX_ITER + 1):
            try:
                # positions from the velocity at the momentum midpoints, then
                # momenta from the force at the new positions' midpoints,
                # which the next sweep's velocity reads in turn
                _midpoints(z[:, m], mid_p)
                system.velocity(*at_q, *at_p, *rate_x)
                _add_up(into_x, h, new[:, q])
                _midpoints(new[:, q], mid_q)
                system.force(*at_q, *at_p, *rate_p)
                _add_up(into_p, h, new[:, m])
            except (AffineKitError, np.linalg.LinAlgError) as exc:
                return Step(None, sweep, failure=exc)
            change = np.abs(new[1:] - z[1:])
            z, new = new, z
            # each step's scale from the iterate, not from the start guess;
            # a lone step's is that of z_0, which no sweep moves
            if sweep == 1 or not single:
                scale = np.maximum(np.abs(z[:-1]).max(axis=-1, keepdims=True), 1.0)
            worst = float((change / scale).max())       # the largest relative change
            if prev < np.inf:
                rate, ratios = max(rate, worst / prev), ratios + 1
            estimate = max(theta or 0.0, _THETA_SAFETY * rate) \
                if theta is not None or ratios >= 2 else None
            if worst <= 1e-15 or (estimate is not None and estimate < 1.0
                                  and estimate * worst <= (1.0 - estimate) * 1e-15):
                break
            stalls = stalls + 1 if not (single or worst < prev) else 0
            if stalls == _WINDOW_STALLS or not worst < np.inf:
                return Step(None, sweep, failure=IterationDiverged(
                    f"implicit midpoint change {worst:.3e} stopped shrinking after {sweep} "
                    "iterations"))
            prev = worst
        else:
            if not (single and change.max() <= MIDPOINT_TOL):
                return Step(None, sweep, failure=IterationDiverged(
                    f"implicit midpoint residual {change.max():.3e} > {MIDPOINT_TOL} after "
                    f"{MIDPOINT_MAX_ITER} iterations"))
    carry = max(theta or 0.0, _THETA_SAFETY * rate) if theta is not None or ratios else None
    return Step(z[1:], sweep, change.max(axis=-1) / scale[:, 0], carry)


def _rk4_step(system: CompiledSystem, z, dt):
    k = []
    with np.errstate(all="ignore"):     # an overflow leaves a non-finite sample
        try:
            for c in (0.0, 0.5, 0.5, 1.0):
                k.append(system.rhs(z + (c * dt) * k[-1] if k else z))
        except (AffineKitError, np.linalg.LinAlgError) as exc:
            return Step(None, len(k) + 1, failure=exc)
        return Step(z + (dt / 6.0) * (k[0] + 2.0 * k[1] + 2.0 * k[2] + k[3]), 4)


INTEGRATION_METHODS = ("implicit_midpoint", "rk4")


def _first_problem(system: CompiledSystem, zs: np.ndarray) -> tuple[int, StateInvalid | None]:
    """Index of the first sample of an (S, D) stack that is non-finite or has
    a det phi at the floor, and that failure; (S, None) when all are fine."""
    finite = np.isfinite(zs).all(axis=-1)
    phi = _split(np.where(finite[:, None], zs, 0.0), system.N, system.n)[1]
    low = unchecked_det(phi).min(axis=-1)
    bad = ~finite | (low <= DET_FLOOR)
    if not bad.any():
        return len(zs), None
    k = int(np.argmax(bad))
    return k, StateInvalid("non-finite phase-space entries" if not finite[k]
                           else f"det phi fell to {low[k]:.3e} (floor {DET_FLOOR})")


def integrate(model: KineticModel, params, spec: PotentialSpec, s0: PhaseState,
              dt: float, T: float, method: str = "implicit_midpoint") -> Trajectory:
    """Propagate s0 over [0, T] in steps of dt, the last one cut to end at T.

    Sample k sits at s0.time + k dt and the last one at s0.time + T exactly.
    The loop only steps and stores phase vectors; the charges of all samples
    are evaluated once, stacked, at the end.

    Each midpoint solve is a block of k steps (see _midpoint_window).  With
    D <= _WINDOW_MAX_D, a block from sample 4 on takes k = min(length, full
    steps left), full meaning of length dt up to eps = 1e-12 max(1, T);
    length starts at _WINDOW, halves after a failed window (down to two)
    and doubles after a converged one.  The first four steps, the steps of
    a failed window, a last step cut short of dt and every step of a
    larger system are one-step blocks.  A window of _STRIDE_MIN_K or more
    steps from sample 56 on starts from every _STRIDE-th of the samples
    before it, _STRIDE_SAMPLES of them (see _extrapolate_window); any other
    full step from up to five samples, the first and a cut one from their
    last sample alone.  A block takes the contraction estimate of the one
    before, unless it holds a step index divisible by _THETA_REFRESH.  Each
    step records its block's sweeps as its RHS evaluations; ``rhs_calls``
    counts one call per sweep, which evaluates the velocity and then the
    force once each.  rk4 takes one step at a time, at four rhs calls.

    A failed window is solved again as one-step blocks.  A failed one-step
    block or rk4 step aborts the run, and so does a stored sample with a
    non-finite entry or det phi at the floor (StateInvalid; each block is
    checked as it is stored).  An aborted run keeps its samples up to the
    failure: a modeling failure the caller must see, not one to regularize.
    """
    if not 0 < dt < np.inf:
        raise ValueError("dt must be positive and finite")
    if not 0 <= T < np.inf:
        raise ValueError("T must be non-negative and finite")
    if method not in INTEGRATION_METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {INTEGRATION_METHODS}")
    midpoint = method == "implicit_midpoint"

    N, n = s0.N, s0.n
    system = compile_system(model, params, spec, n, N)
    eps = 1e-12 * max(1.0, T)
    steps = int(np.ceil((T - eps) / dt)) if T > eps else 0
    z = _pack(s0)
    try:
        zs = np.empty((steps + 1, z.size))
    except MemoryError:
        raise RunTooLong(f"T = {T!r} takes {steps} steps of dt = {dt!r}, whose samples "
                         f"need {(steps + 1) * z.size * 8} bytes") from None
    times = s0.time + np.arange(steps + 1) * dt
    hs = np.full(steps, dt)         # step lengths, the last one cut to end at T
    if steps:
        times[steps], hs[-1] = s0.time + T, T - (steps - 1) * dt
    evals = np.zeros(steps, dtype=np.int64)
    residuals = np.full(steps, np.nan)
    zs[0] = z

    _, failure = _first_problem(system, zs[:1])
    # steps of length dt up to rounding: all, or all but a last one cut short
    full = steps - int(steps > 0 and abs(hs[-1] - dt) > eps)
    longest = _WINDOW if midpoint and z.size <= _WINDOW_MAX_D else 1
    size = 1                        # samples stored
    theta = None
    calls = 0
    resume = 0                      # first sample a window may start from
    length = longest                # steps the next window tries
    while size <= steps and failure is None:
        start = size - 1
        k = max(1, min(length, full - start)) if 4 <= start and resume <= start else 1
        if midpoint:
            # extrapolate only across samples spaced by dt: the first step
            # and a cut last one start from their last sample alone, a long
            # window (never the cut step) from every _STRIDE-th sample
            if k >= _STRIDE_MIN_K and start >= _STRIDE * (_STRIDE_SAMPLES - 1):
                stride, first = _STRIDE, start - _STRIDE * (_STRIDE_SAMPLES - 1)
            else:
                stride, first = 1, start - min(start, 4) if start < full else start
            step = _midpoint_window(system, zs[first:size:stride], hs[start:start + k],
                                    theta if -start % _THETA_REFRESH >= k else None, stride)
        else:
            step = _rk4_step(system, zs[start], hs[start])
        calls += step.evals
        if step.z is None:
            # a failed one-step block ends the run; a failed window's steps
            # are solved again as one-step blocks
            failure = step.failure if k == 1 else None
            resume, length = start + k, max(2, length // 2)
            continue
        if k > 1:
            length = min(longest, 2 * length)
        theta = step.theta
        zs[size:size + k], evals[start:start + k], residuals[start:start + k] = \
            step.z, step.evals, step.residual
        bad, failure = _first_problem(system, zs[size:size + k])
        size += bad
    zs = zs[:size]
    return Trajectory(times[:size], zs, system.charges(zs), n, N, evals[:size - 1],
                      residuals[:size - 1], aborted=failure is not None,
                      abort_reason=str(failure or ""),
                      abort_kind=type(failure).__name__ if failure else "", rhs_calls=calls)


# ---------------------------------------------------------------------------
# Poisson brackets

def _phase_gradient(F, state: PhaseState):
    """Central-difference gradient of a phase function, or its registered one.

    Returns (dF/dx, dF/dphi, dF/dp, dF/dpi) with the natural array shapes.
    A callable may carry a ``phase_gradient(state)`` attribute returning the
    same tuple analytically, led by the axes of a stack of functions.
    """
    analytic = getattr(F, "phase_gradient", None)
    if analytic is not None:
        return analytic(state)
    z0 = _pack(state)
    N, n = state.N, state.n
    grad = np.empty_like(z0)
    for i in range(len(z0)):
        h = 1e-5 * max(1.0, abs(z0[i]))
        zp = z0.copy(); zp[i] += h
        zm = z0.copy(); zm[i] -= h
        grad[i] = (F(_unpack(zp, N, n, state.time)) - F(_unpack(zm, N, n, state.time))) / (2 * h)
    return _split(grad, N, n)


def poisson_bracket(F, G, state: PhaseState):
    """Canonical bracket {F, G} over all (x, p) and (phi, pi) pairs.

    The (phi, pi) contribution contracts dF/dphi[..., K, i, a] with
    dG/dpi[..., K, a, i], matching the Tr(pi xi) pairing.  Every sum runs over
    the trailing phase axes only and the leading axes of F and G broadcast:
    one pair gives a float, stacked components give the whole table, and each
    table entry is bit for bit the bracket of its pair alone.
    """
    fx, fphi, fp, fpi = _phase_gradient(F, state)
    gx, gphi, gp, gpi = _phase_gradient(G, state)
    vec, mat = (-2, -1), (-3, -2, -1)
    val = (fx * gp).sum(axis=vec) - (fp * gx).sum(axis=vec)
    val += (fphi * gpi.swapaxes(-1, -2)).sum(axis=mat) \
        - (fpi * gphi.swapaxes(-1, -2)).sum(axis=mat)
    return val if np.ndim(val) else float(val)


def _spin_component(K: int, a, b, hat: bool):
    """Phase function S_K[a, b] with analytic gradient, S = left right for (left,
    right) = (phi_K, pi_K), or (pi_K, phi_K) with ``hat``.  Index arrays a and b
    that broadcast make it the stack of those components."""
    def factors(state: PhaseState):
        phi, pi = state.config.phi[K], state.mom.pi[K]
        return (pi, phi) if hat else (phi, pi)

    def f(state: PhaseState):
        left, right = factors(state)
        return (left @ right)[a, b]

    def grad(state: PhaseState):
        # dS[a, b]/dleft[i, j] = delta_ai right[j, b]; dS[a, b]/dright[i, j] = left[a, i] delta_jb
        left, right = factors(state)
        eye, body = np.eye(state.n), np.eye(state.N)[K][:, None, None]
        dleft = body * (eye[a][..., :, None] * right.T[b][..., None, :])[..., None, :, :]
        dright = body * (left[a][..., :, None] * eye[b][..., None, :])[..., None, :, :]
        zeros = np.zeros(dleft.shape[:-1])
        return (zeros, dright, zeros, dleft) if hat else (zeros, dleft, zeros, dright)

    f.phase_gradient = grad
    return f


def sigma_component(K: int, a, b):
    """Phase function Sigma_K[a, b] = (phi_K pi_K)[a, b] with analytic gradient."""
    return _spin_component(K, a, b, hat=False)


def sigma_hat_component(K: int, a, b):
    """Phase function Sigma_hat_K[a, b] = (pi_K phi_K)[a, b] with analytic gradient."""
    return _spin_component(K, a, b, hat=True)
