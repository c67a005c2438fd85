"""Named verification suites behind the ``affinekit check`` subcommand.

Each suite returns a report dict {"suite", "checks": [...], "passed"}; a
check is {"name", "max_error", "tolerance", "passed"}.  Checks run in
order on the calling thread.

The invariance, legendre and measures suites draw their samples as stacks,
each n's (S_n, ...) arrays item by item after all n values (so the reports
depend on the samplers' block schedule), and evaluate every relation once
per stack: (S, n, n) matrices for the kinematic functions and S bodies of
one system for the kinetic energies.  Rotations are drawn as Gaussian
matrices and each stack maps them with one ``orthogonal_from_normal``.  An
error is relative per sample, max|delta_s| / (1 + max|ref_s|), and a check
reports the worst sample.  The brackets suite evaluates all (a, b, c, d)
brackets of a drawn state and pairing of spins as one table.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from . import measures, qdesk
from .dynamics import (PhaseState, poisson_bracket, sigma_component,
                       sigma_hat_component)
from .kinematics import (SystemConfig, VelocityState, _T, affine_velocity,
                         deformation_tensors, invariants_K, invariants_M,
                         mutual_tensors)
from .kinetics import (INTERNAL_MODELS, TRANSLATIONAL_MODELS, InertiaParams,
                       KineticModel, MomentumState, compile_kinetics, kinetic_energy,
                       kinetic_hamiltonian, legendre)
from .matcore import det_inv, two_polar_decompose
from .potentials import (BinaryTerm, HarmonicFn, PotentialSpec, affine_distance,
                         compile_potential)
from .sampling import (orthogonal_from_normal, random_glplus, random_invertible,
                       rng_from_seed)

def _run_items(items) -> list:
    """Evaluate (name, tolerance, fn) items in order."""
    checks = []
    for name, tol, fn in items:
        err = fn()
        checks.append({"name": name, "max_error": float(err), "tolerance": tol,
                       "passed": bool(err <= tol)})
    return checks


def _report(suite: str, checks: list) -> dict:
    return {"suite": suite, "checks": checks,
            "passed": all(c["passed"] for c in checks)}


def _rel(delta: np.ndarray, ref) -> float:
    """Worst per-sample relative error over the leading sample axis:
    max_s max|delta_s| / (1 + max|ref_s|)."""
    err = np.abs(delta).reshape(len(delta), -1).max(axis=1)
    scale = 1.0 + np.abs(ref).reshape(len(ref), -1).max(axis=1)
    return float(np.max(err / scale))


def _matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A_s @ v_s over stacks A (S, n, n) and v (S, n)."""
    return (A @ v[..., None])[..., 0]


def _draw_by_n(samples: int, seed: int, draw) -> list:
    """Draw n = rng.integers(2, 4, samples), then for n = 2, 3 (if drawn)
    draw(rng, n, S_n): a tuple of (S_n, ...) arrays, one per item."""
    rng = rng_from_seed(seed)
    counts = np.bincount(rng.integers(2, 4, samples), minlength=4)
    return [draw(rng, n, int(counts[n])) for n in (2, 3) if counts[n]]


# ---------------------------------------------------------------------------
# legendre suite

def _model_params(n: int):
    """One representative parameter set per kinetic model combination."""
    rng = rng_from_seed(7)
    spd = lambda: (lambda m: m @ m.T + n * np.eye(n))(rng.uniform(-1, 1, (n, n)))
    big = rng.uniform(-0.3, 0.3, (n * n, n * n))
    bilinear = big @ big.T + n * np.eye(n * n)
    params = InertiaParams(M=1.7, J=spd(), I=2.0, A=1.0, B=1.0, H=spd(),
                           Lten=bilinear, Rten=bilinear)
    return [(KineticModel(translational=tr, internal=it), params)
            for tr, it in product(TRANSLATIONAL_MODELS, INTERNAL_MODELS)]


def legendre_roundtrip_error(samples: int = 1000, seed: int = 11) -> float:
    """Worst relative mismatch of T(v, xi) vs its Hamiltonian round trip, plus
    the velocity round trip, in one compiled KineticForm per model whose bodies
    are the samples; this covers the form, not the public wrappers around it."""
    worst = 0.0
    for n in (2, 3):
        combos = _model_params(n)
        rng = rng_from_seed(seed + n)
        per_combo = max(1, samples // len(combos))
        for model, params in combos:
            form = compile_kinetics(model, params, n, per_combo)
            phi = random_glplus(rng, n, size=per_combo)
            v, xi = rng.uniform(-1, 1, (per_combo, n)), rng.uniform(-1, 1, (per_combo, n, n))
            _, phi_inv = det_inv(phi)
            p, pi = form.momenta(phi_inv, v, xi)
            t_v = form.energy(phi_inv, v, xi)
            t_p = form.hamiltonian(phi, p, pi)
            back_v, back_xi = np.empty(p.shape), np.empty(pi.shape)
            form.velocity(phi, p, pi, back_v, back_xi)
            worst = max(worst,
                        float(np.max(np.abs(t_p - t_v) / np.maximum(1.0, np.abs(t_v)))),
                        _rel(back_v - v, v), _rel(back_xi - xi, xi))
    return worst


def legendre_suite(samples: int = 1000) -> dict:
    items = [("legendre_hamiltonian_roundtrip", 1e-10,
              lambda: legendre_roundtrip_error(samples))]
    return _report("legendre", _run_items(items))


# ---------------------------------------------------------------------------
# invariance suite: every family draws and checks each n's samples as stacks

def _deformation_transform_error(samples, seed):
    def draw(rng, n, S):
        return (random_glplus(rng, n, size=S), rng.standard_normal((S, n, n)),
                random_invertible(rng, n, size=S))

    worst = 0.0
    for phi, A, B in _draw_by_n(samples, seed, draw):
        A = orthogonal_from_normal(A, special=False)
        t = deformation_tensors(phi)
        Binv = np.linalg.inv(B)
        worst = max(worst,
                    _rel(deformation_tensors(A @ phi).G - t.G, t.G),
                    _rel(deformation_tensors(phi @ A).C - t.C, t.C),
                    _rel(deformation_tensors(phi @ B).G - _T(B) @ t.G @ B, t.G),
                    _rel(deformation_tensors(B @ phi).C - _T(Binv) @ t.C @ Binv, t.C))
    return worst


def _mutual_transform_error(samples, seed):
    def draw(rng, n, S):
        return (random_invertible(rng, n, size=S), random_invertible(rng, n, size=S),
                rng.standard_normal((S, n, n)), random_invertible(rng, n, size=S))

    worst = 0.0
    for psi, phi, A, B in _draw_by_n(samples, seed, draw):
        A = orthogonal_from_normal(A, special=False)
        m = mutual_tensors(psi, phi)
        Binv = np.linalg.inv(B)
        left = mutual_tensors(B @ psi, B @ phi)
        right = mutual_tensors(psi @ B, phi @ B)
        worst = max(worst,
                    _rel(mutual_tensors(A @ psi, A @ phi).Gm - m.Gm, m.Gm),
                    _rel(mutual_tensors(psi @ A, phi @ A).Cm - m.Cm, m.Cm),
                    _rel(right.Gm - _T(B) @ m.Gm @ B, m.Gm),
                    _rel(left.Cm - _T(Binv) @ m.Cm @ Binv, m.Cm),
                    _rel(left.Gamma - m.Gamma, m.Gamma),
                    _rel(left.SigmaM - B @ m.SigmaM @ Binv, m.SigmaM),
                    _rel(right.Gamma - Binv @ m.Gamma @ B, m.Gamma),
                    _rel(right.SigmaM - m.SigmaM, m.SigmaM))
    return worst


def _scalar_invariant_error(samples, seed):
    def draw(rng, n, S):
        return (random_invertible(rng, n, size=S), random_invertible(rng, n, size=S),
                rng.standard_normal((S, n, n)), rng.standard_normal((S, n, n)),
                random_invertible(rng, n, size=S), random_invertible(rng, n, size=S))

    worst = 0.0
    for psi, phi, A, B, Ag, Bg in _draw_by_n(samples, seed, draw):
        A, B = orthogonal_from_normal(np.stack([A, B]), special=False)
        k0 = invariants_K(psi, phi)
        m0 = invariants_M(psi, phi)
        worst = max(worst,
                    _rel(invariants_K(A @ psi @ B, A @ phi @ B) - k0, k0),
                    _rel(invariants_M(Ag @ psi @ Bg, Ag @ phi @ Bg) - m0, m0))
    return worst


def _velocity_transform_error(samples, seed):
    def draw(rng, n, S):
        return (random_glplus(rng, n, size=S), rng.uniform(-1, 1, (S, n, n)),
                rng.uniform(-1, 1, (S, n)), random_invertible(rng, n, size=S))

    worst = 0.0
    for phi, xi, v, A in _draw_by_n(samples, seed, draw):
        Ainv = np.linalg.inv(A)
        om, om_hat, _ = affine_velocity(phi, xi, v)
        om_l, om_hat_l, _ = affine_velocity(A @ phi, A @ xi, _matvec(A, v))
        om_r, om_hat_r, _ = affine_velocity(phi @ A, xi @ A, v)
        worst = max(worst,
                    _rel(om_l - A @ om @ Ainv, om),
                    _rel(om_hat_l - om_hat, om_hat),
                    _rel(om_r - om, om),
                    _rel(om_hat_r - Ainv @ om_hat @ A, om_hat))
    return worst


def _affine_distance_error(samples, seed):
    def draw(rng, n, S):
        return (rng.uniform(-1, 1, (S, n)), rng.uniform(-1, 1, (S, n)),
                random_glplus(rng, n, size=S), random_glplus(rng, n, size=S),
                random_invertible(rng, n, size=S))

    worst = 0.0
    for xk, xl, pk, pl, A in _draw_by_n(samples, seed, draw):
        d0 = affine_distance(xk, pk, xl, pl)
        d1 = affine_distance(_matvec(A, xk), A @ pk, _matvec(A, xl), A @ pl)
        worst = max(worst, _rel(d1 - d0, d0))
    return worst


def _kinetic_invariance_error(samples, seed):
    """Kinetic energies of each n group, evaluated as the bodies of one system."""
    params = InertiaParams(M=1.3, I=2.0, A=1.0, B=0.7)
    is_af = KineticModel("dalembert", "is-af")
    af_is = KineticModel("af-is", "af-is")
    af_af = KineticModel("dalembert", "af-af")

    def draw(rng, n, S):
        # GL+ transforms keep the configurations inside the working domain
        return (rng.uniform(-1, 1, (S, n)), random_glplus(rng, n, size=S),
                rng.uniform(-1, 1, (S, n)), rng.uniform(-1, 1, (S, n, n)),
                random_glplus(rng, n, size=S), rng.standard_normal((S, n, n)),
                random_glplus(rng, n, size=S))

    def moved(config, vel, mat, side):
        if side == "spatial":
            return (SystemConfig(x=(config.x[:, None] @ _T(mat))[:, 0], phi=mat @ config.phi),
                    VelocityState(v=(vel.v[:, None] @ _T(mat))[:, 0], xi=mat @ vel.xi))
        return (SystemConfig(x=config.x, phi=config.phi @ mat),
                VelocityState(v=vel.v, xi=vel.xi @ mat))

    def energy(model, cfg, vl):
        return kinetic_energy(model, params, cfg, vl, per_body=True)

    def hamiltonian(model, cfg, vl):
        return kinetic_hamiltonian(model, params, cfg, legendre(model, params, cfg, vl),
                                   per_body=True)

    worst = 0.0
    for x, phi, v, xi, B, O, A in _draw_by_n(samples, seed, draw):
        O = orthogonal_from_normal(O)
        config = SystemConfig(x=x, phi=phi)
        vel = VelocityState(v=v, xi=xi)
        # af-af is an internal-sector statement: drop translational velocity
        vel_int = VelocityState(v=np.zeros_like(v), xi=xi)
        t_is_af = energy(is_af, config, vel)
        t_af_is = energy(af_is, config, vel)
        h_af_is = hamiltonian(af_is, config, vel)
        t_af_af = energy(af_af, config, vel_int)
        worst = max(worst,
                    _rel(energy(is_af, *moved(config, vel, B, "material")) - t_is_af, t_is_af),
                    _rel(energy(is_af, *moved(config, vel, O, "spatial")) - t_is_af, t_is_af),
                    _rel(energy(af_is, *moved(config, vel, A, "spatial")) - t_af_is, t_af_is),
                    _rel(hamiltonian(af_is, *moved(config, vel, A, "spatial")) - h_af_is,
                         h_af_is),
                    _rel(energy(af_af, *moved(config, vel_int, A, "spatial")) - t_af_af,
                         t_af_af),
                    _rel(energy(af_af, *moved(config, vel_int, B, "material")) - t_af_af,
                         t_af_af))
    return worst


def _potential_invariance_error(samples, seed):
    """Two-body potentials of each n group, evaluated with a leading sample axis."""
    affine_spec = PotentialSpec(binary=(
        BinaryTerm(arg="Mbar:1", fn=HarmonicFn(stiffness=1.0, center=2.0)),
        BinaryTerm(arg="D", fn=HarmonicFn(stiffness=0.5, center=1.0)),
    ))
    generic_spec = PotentialSpec(binary=affine_spec.binary + (
        BinaryTerm(arg="r", fn=HarmonicFn(stiffness=0.3, center=1.0)),
        BinaryTerm(arg="K:1", fn=HarmonicFn(stiffness=0.2, center=2.0)),
    ))

    def draw(rng, n, S):
        x = rng.uniform(-1, 1, (S, 2, n)) + np.array([[0.0] * n, [2.0] + [0.0] * (n - 1)])
        phi = random_glplus(rng, n, size=2 * S).reshape(S, 2, n, n)
        return (x, phi, random_glplus(rng, n, size=S), rng.standard_normal((S, n, n)),
                rng.standard_normal((S, n, n)))

    def potential(spec, x, phi):
        det, phi_inv = det_inv(phi)
        return compile_potential(spec, x.shape[-1], 2).evaluate(
            x, phi, det, phi_inv, grad=False)[0]

    worst = 0.0
    for x, phi, A, O, Om in _draw_by_n(samples, seed, draw):
        O, Om = orthogonal_from_normal(np.stack([O, Om]))
        # x (S, 2, n) @ A.T (S, n, n); phi (S, 2, n, n) against (S, 1, n, n)
        v0 = potential(affine_spec, x, phi)
        v1 = potential(affine_spec, x @ _T(A), A[:, None] @ phi)
        g0 = potential(generic_spec, x, phi)
        g1 = potential(generic_spec, x @ _T(O), O[:, None] @ phi @ Om[:, None])
        worst = max(worst, _rel(v1 - v0, v0), _rel(g1 - g0, g0))
    return worst


def invariance_suite(samples: int = 200) -> dict:
    items = [
        ("deformation_tensor_transforms", 1e-10,
         lambda: _deformation_transform_error(samples, 21)),
        ("mutual_tensor_transforms", 1e-10,
         lambda: _mutual_transform_error(samples, 22)),
        ("scalar_invariants", 1e-10, lambda: _scalar_invariant_error(samples, 23)),
        ("gyration_transforms", 1e-10, lambda: _velocity_transform_error(samples, 24)),
        ("affine_distance_invariance", 1e-10, lambda: _affine_distance_error(samples, 25)),
        ("kinetic_energy_invariances", 1e-10, lambda: _kinetic_invariance_error(samples, 26)),
        ("potential_invariances", 1e-10, lambda: _potential_invariance_error(samples, 27)),
    ]
    return _report("invariance", _run_items(items))


# ---------------------------------------------------------------------------
# brackets suite

def _random_state(rng, n: int) -> PhaseState:
    return PhaseState(
        config=SystemConfig(x=rng.uniform(-1, 1, (1, n)), phi=random_glplus(rng, n)[None]),
        mom=MomentumState(p=rng.uniform(-1, 1, (1, n)), pi=rng.uniform(-1, 1, (1, n, n))))


def gl_structure_error(n: int) -> float:
    """{Sigma, Sigma} and {Sigma_hat, Sigma_hat} tables at three drawn states against
    the gl(n) structure constants fixed by direct differentiation of Sigma = phi pi."""
    rng = rng_from_seed(31)
    a, b, c, d = np.indices((n,) * 4)
    e = np.eye(n)
    worst = 0.0
    for _ in range(3):
        state = _random_state(rng, n)
        sig = state.config.phi[0] @ state.mom.pi[0]
        sig_hat = state.mom.pi[0] @ state.config.phi[0]
        num = poisson_bracket(sigma_component(0, a, b), sigma_component(0, c, d), state)
        exact = e[a, d] * sig[c, b] - e[c, b] * sig[a, d]
        worst = max(worst, float(np.max(np.abs(num - exact))))
        num = poisson_bracket(sigma_hat_component(0, a, b), sigma_hat_component(0, c, d),
                              state)
        exact = e[b, c] * sig_hat[a, d] - e[a, d] * sig_hat[c, b]
        worst = max(worst, float(np.max(np.abs(num - exact))))
    return worst


def sigma_sigma_hat_commute_error(n: int) -> float:
    """Largest |{Sigma[a, b], Sigma_hat[c, d]}| over the table at three drawn states."""
    rng = rng_from_seed(32)
    a, b, c, d = np.indices((n,) * 4)
    worst = 0.0
    for _ in range(3):
        table = poisson_bracket(sigma_component(0, a, b), sigma_hat_component(0, c, d),
                                _random_state(rng, n))
        worst = max(worst, float(np.max(np.abs(table))))
    return worst


def brackets_suite() -> dict:
    items = []
    for n in (2, 3):
        items.append((f"gl{n}_structure_constants", 1e-8,
                      lambda n=n: gl_structure_error(n)))
        items.append((f"sigma_sigma_hat_commute_n{n}", 1e-8,
                      lambda n=n: sigma_sigma_hat_commute_error(n)))
    return _report("brackets", _run_items(items))


# ---------------------------------------------------------------------------
# measures suite

def _haar_invariance_error(samples=50, seed=41):
    def draw(rng, n, S):
        return random_glplus(rng, n, size=S), random_glplus(rng, n, size=S)

    worst = 0.0
    for phi, A in _draw_by_n(samples, seed, draw):
        n = phi.shape[-1]
        left_phi = A @ phi
        det_a = np.linalg.det(A)
        det_a_n = measures.pow_each(det_a, n)
        dens = measures.haar_density(phi, "haar_lambda")
        left = measures.haar_density(left_phi, "haar_lambda") * det_a_n
        right = measures.haar_density(phi @ A, "haar_lambda") * det_a_n
        dens_a = measures.haar_density(phi, "haar_alpha")
        left_a = measures.haar_density(left_phi, "haar_alpha") * measures.pow_each(det_a, n + 1)
        for val, ref in ((left, dens), (right, dens), (left_a, dens_a)):
            worst = max(worst, float(np.max(np.abs(val - ref) / ref)))
    return worst


def _twopolar_ratio_error(samples=50, seed=42):
    worst = 0.0
    for (phi,) in _draw_by_n(samples, seed, lambda rng, n, S: (random_glplus(rng, n, size=S),)):
        haar, lebesgue = measures.twopolar_densities(two_polar_decompose(phi))
        keep = lebesgue != 0.0  # coincident q: both densities vanish
        expected = measures.pow_each(np.linalg.det(phi[keep]), -phi.shape[-1])
        err = np.abs(haar[keep] / lebesgue[keep] - expected) / expected
        worst = max(worst, float(err.max(initial=0.0)))
    return worst


def _oracle_match_error(points=40, seed=43):
    worst = 0.0
    for n in (2, 3):
        report = measures.measure_check_report(n, points=points, seed=seed)
        if report["exponent_e"] != 1:
            return np.inf
        worst = max(worst, report["max_rel_err"],
                    abs(report["constant_c"] / report["expected_constant"] - 1.0))
    return worst


def measures_suite() -> dict:
    items = [
        ("haar_translation_invariance", 1e-12, _haar_invariance_error),
        ("twopolar_haar_lebesgue_ratio", 1e-8, _twopolar_ratio_error),
        ("twopolar_jacobian_oracle", 1e-6, _oracle_match_error),
    ]
    return _report("measures", _run_items(items))


# ---------------------------------------------------------------------------
# qdesk suite

def _harmonic_levels_error():
    grid = qdesk.QGrid(q_min=-10.0, q_max=10.0, m=4000)
    op = qdesk.build_hamiltonian_1d(grid, lambda q: HarmonicFn(1.0).eval(q)[0])
    energies = qdesk._solve_tridiagonal(op, 5, eigvals_only=True)
    exact = np.arange(5) + 0.5
    return float(np.max(np.abs(energies - exact) / exact))


def _hermiticity_errors():
    grid = qdesk.QGrid(q_min=-8.0, q_max=8.0, m=2000)
    defects = [qdesk.hermiticity_check(grid, kind, measure)
               for kind, measure in qdesk.HERMITIAN_UNDER.items()]
    broken = qdesk.hermiticity_check(grid, "Sigma", "lebesgue")
    if broken < 1e-3:
        return np.inf  # the uncorrected generator must visibly fail
    return max(defects)


def _shift_identity_error():
    grid = qdesk.QGrid(q_min=-10.0, q_max=10.0, m=4000)
    psi = qdesk.gaussian_packet(grid, center=0.0, width=1.0)
    return max(qdesk.shift_action_check(0.3, psi),
               qdesk.shift_action_check(-0.45, psi))


def qdesk_suite() -> dict:
    items = [
        ("harmonic_spectrum", 1e-4, _harmonic_levels_error),
        ("generator_hermiticity", 1e-10, _hermiticity_errors),
        ("shift_operator_identity", 1e-6, _shift_identity_error),
    ]
    return _report("qdesk", _run_items(items))


SUITE_RUNNERS = {
    "invariance": invariance_suite,
    "brackets": brackets_suite,
    "measures": measures_suite,
    "legendre": legendre_suite,
    "qdesk": qdesk_suite,
}
SUITES = tuple(SUITE_RUNNERS)


def run_suite(name: str) -> dict:
    return SUITE_RUNNERS[name]()
