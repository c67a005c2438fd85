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
solver tolerance.  Each step is a fixed-point solve, started from the
polynomial through the last five samples evaluated one step ahead (the
starting approximation of Hairer, Lubich & Wanner, Geometric Numerical
Integration, section VIII.6), and stopped by the contraction-rate test of
Hairer & Wanner, Solving ODEs II, section IV.8, with the rate carried from
step to step.  The guess is O(dt^5) accurate where the explicit Euler
predictor is O(dt^2), so on a smooth run a step takes one RHS evaluation
where the Euler start took 4-6.  Every accepted step z_k -> z_{k+1} is the
fixed point to roundoff, whatever the start: the change one more evaluation
would make, rho_k = max|z_k + h f((z_k + z_{k+1})/2) - z_{k+1}| / max(1,
max|z_k|), is at most about 1e-15 wherever roundoff allows it.

On small systems (phase-space size D <= _WINDOW_MAX_D) most steps are solved
in windows of up to _WINDOW = 64: Picard sweeps over the whole window, each
one stacked RHS call at all its midpoints and one in-order cumulative sum
(a parallel-in-time fixed-point scheme, Gander, 50 Years of Time Parallel
Time Integration, 2015).  A window solves the same equations as its single
steps, in 3-14 RHS evaluations per step instead of 1-4 but about 8x fewer
calls, which is where the time of a small system goes.  A window that does
not converge is abandoned and its steps are taken one by one.  The left-
and right-invariant kinetic models (is-af, af-is, af-J, H-af, l-af, r-af)
couple phi and pi, so H is non-separable for them.
Explicit splitting would still apply to d'Alembert/d'Alembert with any
configuration potential, and to af-af internal motion with a d'Alembert
translational sector, whose kinetic flow phi(t) = expm(t Omega) phi0 is exact.

``compile_system`` builds every per-run constant of H once.  Its ``rhs``,
``energy`` and ``charges`` act on views of the flat phase vector
z = (x, phi, p, pi), or of a stack (..., D) of them, with one stacked det and
inverse of the phi stack per evaluation; the public functions below are thin
calls into them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .errors import AffineKitError, IterationDiverged, SingularInput, StateInvalid
from .kinematics import SystemConfig
from .kinetics import KineticForm, KineticModel, MomentumState, compile_kinetics
from .matcore import DET_FLOOR, det_inv
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


@dataclass
class Trajectory:
    """A run of S samples as arrays: ``times`` (S,), the flat phase vectors
    ``z`` (S, D) with their (S, N, ...) views ``x``, ``phi``, ``p``, ``pi``,
    and one ChargeRecord with a leading sample axis.  ``state(k)`` gives
    sample k as a PhaseState.  Step k (from sample k to k + 1) took
    ``step_evals[k]`` RHS evaluations of its phase vector and ended its
    fixed-point solve at the residual ``step_residuals[k]``, relative to
    max(1, max|z_k|); rk4 steps have no residual (NaN).  ``rhs_calls``
    counts the RHS calls of every solve that returned, abandoned windows and
    steps past a det-floor abort included; one call evaluates a whole
    window."""

    times: np.ndarray
    z: np.ndarray
    charges: ChargeRecord
    n: int
    N: int
    step_evals: np.ndarray
    step_residuals: np.ndarray
    aborted: bool = False
    abort_reason: str = ""
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
        """Raise StateInvalid if the run was cut short at the det-phi floor."""
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
        q_log=np.log(np.linalg.svd(phi, compute_uv=False)),
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
        stack (..., D) in one evaluation, every row bit-equal to its own."""
        x, phi, p, pi = _split(z, self.N, self.n)
        det, phi_inv = det_inv(phi)
        v, xi, kin_gT = self.kin.flow(phi, p, pi)
        _, dv_dx, dv_dphiT = self.pot.evaluate(x, phi, det, phi_inv)
        flat = z.shape[:-1] + (-1,)
        return np.concatenate([v.reshape(flat), xi.reshape(flat), -dv_dx.reshape(flat),
                               -(kin_gT + dv_dphiT).reshape(flat)], axis=-1)

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
        return _charge_record(x, phi, p, pi, np.linalg.det(phi), self.energy(z))


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
                          np.linalg.det(phi), float(energy))


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
    """One accepted step: the new phase vector, the RHS evaluations it took,
    its last fixed-point residual relative to the step's scale (NaN for rk4),
    and the contraction estimate to carry into the next step (None without
    one)."""

    z: np.ndarray
    evals: int
    residual: float = np.nan
    theta: float | None = None


# The contraction estimate of the midpoint solve is _THETA_SAFETY times the
# largest ratio of successive residuals measured.  The safety factor covers
# the growth of the rate between measurements.  A run carries the estimate
# from step to step and drops it every _THETA_REFRESH steps, so a step then
# measures the rate afresh.
_THETA_SAFETY = 2.0
_THETA_REFRESH = 32


def _midpoint_step(system: CompiledSystem, z, dt, guess=None, theta=None) -> Step:
    """One implicit-midpoint step from z.

    Fixed-point iteration on z1 = z + dt f((z + z1)/2), started from
    ``guess`` or, without one, from the explicit Euler predictor (one more
    evaluation).  With scale = max(1, max|z|), an iterate is accepted when
    either of two tests holds:

    * its residual (the change the last evaluation made) is below
      1e-15 scale;
    * the contraction test of Hairer & Wanner, Solving ODEs II, section IV.8:
      with theta the contraction rate, theta / (1 - theta) x residual bounds
      the iterate's distance to the fixed point, and that bound is below
      1e-15 scale.

    When neither holds after MIDPOINT_MAX_ITER evaluations, the last iterate
    is returned if its own residual is within the guarantee MIDPOINT_TOL,
    and IterationDiverged is raised otherwise.

    theta is the larger of the estimate carried in ``theta`` and
    _THETA_SAFETY times the largest residual ratio of this step.  Without a
    carried estimate the step needs two ratios before it uses the test: a
    separable H maps position errors to momentum errors and back, at two
    different rates, and one ratio can show the smaller.  A carried estimate
    lets a step stop after its first evaluation.  The returned theta is the
    estimate to carry on (one ratio is enough for that).

    Every accepted iterate z1 thus has rho = |z + dt f((z + z1)/2) - z1|,
    the residual one more evaluation would show, at about 1e-15 scale or
    below wherever roundoff allows it, whatever the start; a better start or
    a carried theta only takes fewer evaluations.
    """
    evals = 0
    if guess is None:
        guess, evals = z + dt * system.rhs(z), 1
    z_next = guess
    scale = max(1.0, float(np.max(np.abs(z))))
    tol = 1e-15 * scale
    prev = np.inf
    rate, ratios = 0.0, 0           # largest residual ratio of this step, and count
    for _ in range(MIDPOINT_MAX_ITER):
        proposal = z + dt * system.rhs(0.5 * (z + z_next))
        evals += 1
        residual = float(np.max(np.abs(proposal - z_next)))
        z_next = proposal
        if prev < np.inf:
            rate, ratios = max(rate, residual / prev), ratios + 1
        estimate = max(theta or 0.0, _THETA_SAFETY * rate) \
            if theta is not None or ratios >= 2 else None
        if residual <= tol \
                or (estimate is not None and estimate < 1.0
                    and estimate * residual <= (1.0 - estimate) * tol):
            break
        prev = residual
    else:
        if not residual <= MIDPOINT_TOL:
            raise IterationDiverged(
                f"implicit midpoint residual {residual:.3e} > {MIDPOINT_TOL} after "
                f"{MIDPOINT_MAX_ITER} iterations")
    carry = max(theta or 0.0, _THETA_SAFETY * rate) if theta is not None or ratios else None
    return Step(z_next, evals, residual / scale, carry)


def _extrapolate(zs: np.ndarray, k: int) -> np.ndarray:
    """Value one step ahead of the polynomial through samples
    max(0, k-4)..k: for k >= 4 the quartic
    5 z_k - 10 z_{k-1} + 10 z_{k-2} - 5 z_{k-3} + z_{k-4}, for k = 1..3 the
    line, parabola and cubic through the samples there are.  Elementwise
    operations (no BLAS reduction), so reruns stay bit-identical."""
    if k >= 4:
        return 5.0 * (zs[k] - zs[k - 3]) + 10.0 * (zs[k - 2] - zs[k - 1]) + zs[k - 4]
    if k == 3:
        return 4.0 * (zs[3] + zs[1]) - 6.0 * zs[2] - zs[0]
    if k == 2:
        return 3.0 * (zs[2] - zs[1]) + zs[0]
    return 2.0 * zs[1] - zs[0]


@lru_cache(maxsize=None)
def _ahead_weights(k: int) -> np.ndarray:
    """(k, 4) binomials C(j + d - 1, d), row j = 1..k, column d = 1..4: the
    weights of the backward differences in Newton's form of the polynomial
    through equally spaced samples, evaluated j steps past the last one."""
    out = np.array([[comb(j + d - 1, d) for d in range(1, 5)] for j in range(1, k + 1)],
                   dtype=float)
    out.flags.writeable = False
    return out


def _extrapolate_window(last: np.ndarray, k: int) -> np.ndarray:
    """Values 1..k steps ahead, (k, D), of the quartic through five equally
    spaced samples ``last`` (5, D): z_m + sum_d C(j + d - 1, d) nabla^d z_m.
    Elementwise operations (no BLAS reduction), so reruns stay
    bit-identical."""
    w, out, diff = _ahead_weights(k), last[-1], last
    for d in range(4):
        diff = diff[1:] - diff[:-1]
        out = out + w[:, d:d + 1] * diff[-1]
    return out


# A window solve advances up to _WINDOW full midpoint steps with one stacked
# RHS call per sweep.  integrate uses it on systems of at most _WINDOW_MAX_D
# phase-space entries.  There a window of 64 rows takes 3-14 RHS evaluations
# per step where single steps take 1-4, in stacked calls that cost a few
# single ones, and a run takes 1.3-4.2x less time; at D = 120-192 pair-heavy
# systems already ran 0.6-0.9x as fast windowed (n = 2 and 3, up to 16 bodies,
# 300 steps).  A window is abandoned after MIDPOINT_MAX_ITER sweeps, or when
# its largest change has not shrunk in _WINDOW_STALLS sweeps running.
_WINDOW = 64
_WINDOW_MAX_D = 96
_WINDOW_STALLS = 2


@dataclass(frozen=True)
class Window:
    """A window solve: its k new phase vectors (k, D) and each step's last
    change relative to its scale (k,), both None when the window was
    abandoned, and the sweeps (stacked RHS calls) it made."""

    z: np.ndarray | None
    residuals: np.ndarray | None
    sweeps: int


def _midpoint_window(system: CompiledSystem, last: np.ndarray, hs: np.ndarray) -> Window:
    """k = len(hs) consecutive implicit-midpoint steps, of lengths ``hs``,
    from the last of the five equally spaced samples ``last``, solved
    together.

    The unknowns z_1..z_k start from the quartic through ``last`` (see
    _extrapolate_window).  A sweep is a Picard iteration over the whole
    window (Gander, 50 Years of Time Parallel Time Integration, 2015): one
    stacked RHS call at the k midpoints (z_j + z_{j+1})/2 and one cumulative
    sum of [z_0, h_0 f_0, ..., h_{k-1} f_{k-1}] along the step axis.  cumsum
    adds in order, so each new z_{j+1} is bit for bit z_j + h_j f_j, the
    update of _midpoint_step, and the window's fixed point is that of k
    single steps.  The window stops once every step's change is at most
    1e-15 max(1, max|z_j|).  A step's defect rho_j is then its change times
    about h L / 2 per end point, below the bar of _midpoint_step wherever
    the single-step iteration contracts.

    A window that raises an AffineKitError or LinAlgError, goes non-finite,
    stalls (see _WINDOW_STALLS) or runs out of sweeps is abandoned: the
    result has no phase vectors, and the caller takes its steps one by one.
    """
    k = len(hs)
    z = np.empty((k + 1, last.shape[-1]))
    z[0], z[1:] = last[-1], _extrapolate_window(last, k)
    scale = np.maximum(1.0, np.abs(z[:-1]).max(axis=-1))
    tol = 1e-15 * scale
    terms = np.empty_like(z)
    terms[0] = z[0]
    h = hs[:, None]
    prev, stalls = np.inf, 0
    # a diverging window is abandoned, not reported: its overflows stay silent
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for sweep in range(1, MIDPOINT_MAX_ITER + 1):
            try:
                np.multiply(h, system.rhs(0.5 * (z[:-1] + z[1:])), out=terms[1:])
            except (AffineKitError, np.linalg.LinAlgError):
                break
            new = np.cumsum(terms, axis=0)
            change = np.abs(new[1:] - z[1:]).max(axis=-1)
            z = new
            if (change <= tol).all():
                return Window(z[1:], change / scale, sweep)
            worst = change.max()
            stalls = stalls + 1 if not worst < prev else 0
            if stalls == _WINDOW_STALLS or not worst < np.inf:
                break
            prev = worst
    return Window(None, None, sweep)


def _rk4_step(system: CompiledSystem, z, dt):
    k1 = system.rhs(z)
    k2 = system.rhs(z + 0.5 * dt * k1)
    k3 = system.rhs(z + 0.5 * dt * k2)
    k4 = system.rhs(z + dt * k3)
    return Step(z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), 4)


INTEGRATION_METHODS = ("implicit_midpoint", "rk4")


_CHECK_CHUNK = 64  # accepted samples checked against the det floor at once


def _first_problem(system: CompiledSystem, zs: np.ndarray) -> tuple[int, str]:
    """Index of the first sample of an (S, D) stack that is non-finite or has
    a det phi at the floor, and why; (S, "") when every sample is fine."""
    finite = np.isfinite(zs).all(axis=-1)
    phi = _split(np.where(finite[:, None], zs, 0.0), system.N, system.n)[1]
    low = np.linalg.det(phi).min(axis=-1)
    bad = ~finite | (low <= DET_FLOOR)
    if not bad.any():
        return len(zs), ""
    k = int(np.argmax(bad))
    if not finite[k]:
        return k, "non-finite phase-space entries"
    return k, f"det phi fell to {low[k]:.3e} (floor {DET_FLOOR})"


def integrate(model: KineticModel, params, spec: PotentialSpec, s0: PhaseState,
              dt: float, T: float, method: str = "implicit_midpoint") -> Trajectory:
    """Propagate s0 over [0, T] in steps of dt, the last one cut to end at T.

    Sample k sits at s0.time + k dt and the last one at s0.time + T exactly.
    The loop only steps and stores phase vectors; the charges of all samples
    are evaluated once, stacked, at the end.

    With the midpoint rule and D <= _WINDOW_MAX_D, every step from sample 4
    on that is a full step (of length dt up to the rounding allowance
    eps = 1e-12 max(1, T)) is solved in a window of up to _WINDOW of them
    (see _midpoint_window), when at least two are left.  Its length halves
    after an abandoned window, down to two, and doubles after a converged
    one, up to _WINDOW.  Each step of a window records the window's sweeps
    as its RHS evaluations; ``rhs_calls`` counts one call per sweep.

    The other steps are single steps: the first four, a last step cut short
    of dt, the one full step a window cannot pair, the steps of an
    abandoned window, every step of a larger system and every rk4 step.  A
    single midpoint step starts from the extrapolation of the stored
    samples (up to five), and carries the contraction rate its solve
    measured into the next single step, trusted for _THETA_REFRESH steps,
    so a smooth run takes 1.00-1.04 evaluations per step.  The first step,
    and a last step cut short of dt, start from the Euler predictor.

    Leaving GL+(n) (a non-finite entry or det phi at the floor) aborts the run
    and returns the partial trajectory up to the last admissible sample, with
    ``aborted`` set; it is a modeling failure the caller must see, not
    something to regularize away.  The samples are checked once at least
    _CHECK_CHUNK are pending, with one stacked det, and before an error of a
    step from a sample not yet checked is handled, so the result is that of
    a per-step check.  Windows start where they would without the check:
    a window that raises is abandoned, and its single steps then meet the
    error, so abort reasons and raised errors are those of single steps.
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
    zs = np.empty((steps + 1, z.size))
    times = np.empty(steps + 1)
    evals = np.zeros(steps, dtype=np.int64)
    residuals = np.full(steps, np.nan)
    zs[0], times[0] = z, s0.time

    _, reason = _first_problem(system, zs[:1])
    h_last = T - (steps - 1) * dt
    # steps of length dt up to rounding: all, or all but a last one cut short
    full = steps if abs(h_last - dt) <= eps else steps - 1
    windowed = midpoint and z.size <= _WINDOW_MAX_D
    size = checked = 1              # samples stored, and checked of them
    theta = None
    calls = 0
    resume = 0                      # first sample a window may start from
    length = _WINDOW                # steps the next window tries
    while size <= steps and not reason:
        start = size - 1
        k = min(length, full - start)
        window = None
        if windowed and 4 <= start and resume <= start and k >= 2:
            hs = np.full(k, dt)
            if start + k == steps:
                hs[-1] = h_last
            window = _midpoint_window(system, zs[start - 4:size], hs)
            calls += window.sweeps
            if window.z is None:
                # take the abandoned window's steps one by one
                resume, length, window = start + k, max(2, length // 2), None
        if window is not None:
            zs[size:size + k] = window.z
            times[size:size + k] = s0.time + np.arange(size, size + k) * dt
            evals[start:start + k], residuals[start:start + k] = window.sweeps, window.residuals
            size += k
            if size > steps:
                times[steps] = s0.time + T
            theta, length = None, min(_WINDOW, 2 * length)
        else:
            last = size == steps
            h = h_last if last else dt
            try:
                if midpoint:
                    # extrapolate only across samples spaced by h: T - (steps-1) dt
                    # misses dt by a few ulps on a last step that is not cut
                    guess = _extrapolate(zs, start) if start and abs(h - dt) <= eps else None
                    step = _midpoint_step(system, zs[start], h, guess,
                                          theta if start % _THETA_REFRESH else None)
                    theta = step.theta
                else:
                    step = _rk4_step(system, zs[start], h)
            except (AffineKitError, np.linalg.LinAlgError) as exc:
                # a per-step check would have stopped at a bad pending sample first
                bad, reason = _first_problem(system, zs[checked:size])
                size = checked + bad
                if not reason:
                    if not isinstance(exc, (SingularInput, np.linalg.LinAlgError)):
                        raise
                    # the step itself crossed the det floor: flag, keep the partial run
                    reason = f"step left GL+(n): {exc}"
                break
            zs[size], times[size] = step.z, s0.time + (T if last else size * dt)
            evals[start], residuals[start] = step.evals, step.residual
            calls += step.evals
            size += 1
        if size - checked >= _CHECK_CHUNK or size > steps:
            bad, reason = _first_problem(system, zs[checked:size])
            size = checked = checked + bad
    zs = zs[:size]
    return Trajectory(times[:size], zs, system.charges(zs), n, N, evals[:size - 1],
                      residuals[:size - 1], aborted=bool(reason), abort_reason=reason,
                      rhs_calls=calls)


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
