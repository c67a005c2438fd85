import numpy as np
import pytest

from affinekit.errors import NonDifferentiable, SingularInput
from affinekit.kinematics import BodyConfig, SystemConfig, act_material, act_spatial
from affinekit.potentials import (BinaryTerm, DilatationTerm, HarmonicFn,
                                  InvariantTerm, LennardJonesFn, LogHarmonicFn,
                                  PolyFn, PotentialSpec, TranslationalHarmonic,
                                  affine_distance, binary_potential,
                                  dilatation_stabilizer, potential_gradient,
                                  total_potential)


def pair_config(rng, n, separation=2.0):
    phi = np.stack([np.eye(n) + 0.35 * rng.uniform(-1, 1, (n, n)) for _ in range(2)])
    for K in range(2):
        while np.linalg.det(phi[K]) < 0.25:
            phi[K] = np.eye(n) + 0.35 * rng.uniform(-1, 1, (n, n))
    x = rng.uniform(-0.5, 0.5, (2, n))
    x[1, 0] += separation
    return SystemConfig(x=x, phi=phi)


MBAR_WELL = PotentialSpec(binary=(
    BinaryTerm(arg="Mbar:1", fn=HarmonicFn(stiffness=1.0, center=2.0)),
    BinaryTerm(arg="Mbar:2", fn=HarmonicFn(stiffness=1.0, center=2.0)),
))


# ---------------------------------------------------------------------------
# affine distance

def test_affine_distance_unit():
    assert abs(affine_distance(np.array([1.0, 0.0]), np.eye(2),
                               np.zeros(2), np.eye(2)) - 1.0) <= 1e-14


def test_affine_distance_scaled():
    d = affine_distance(np.array([1.0, 0.0]), 2.0 * np.eye(2),
                        np.zeros(2), 2.0 * np.eye(2))
    assert abs(d - 0.5) <= 1e-14


def test_affine_distance_spatial_invariance(rng, invertible):
    for _ in range(50):
        n = int(rng.integers(2, 4))
        cfg = pair_config(rng, n)
        A = invertible(n)
        d0 = affine_distance(cfg.x[0], cfg.phi[0], cfg.x[1], cfg.phi[1])
        d1 = affine_distance(A @ cfg.x[0], A @ cfg.phi[0], A @ cfg.x[1], A @ cfg.phi[1])
        assert abs(d1 - d0) <= 1e-10 * (1.0 + d0)


def test_affine_distance_label_symmetry(rng):
    cfg = pair_config(rng, 3)
    d01 = affine_distance(cfg.x[0], cfg.phi[0], cfg.x[1], cfg.phi[1])
    d10 = affine_distance(cfg.x[1], cfg.phi[1], cfg.x[0], cfg.phi[0])
    assert d01 == d10


# ---------------------------------------------------------------------------
# binary potential

def test_identical_bodies_zero_mbar_well():
    body = BodyConfig(x=np.zeros(2), phi=np.array([[1.1, 0.2], [0.0, 0.9]]))
    assert abs(binary_potential(MBAR_WELL, body, body)) <= 1e-14


def test_binary_swap_symmetry(rng):
    spec = PotentialSpec(binary=MBAR_WELL.binary + (
        BinaryTerm(arg="K:2", fn=HarmonicFn(stiffness=0.4, center=2.0)),
        BinaryTerm(arg="D", fn=PolyFn(coeffs=(0.0, 0.3, 0.1))),
        BinaryTerm(arg="r", fn=LennardJonesFn(epsilon=0.2, sigma=1.1)),
    ))
    for _ in range(20):
        cfg = pair_config(rng, 2)
        v01 = binary_potential(spec, cfg.body(0), cfg.body(1))
        v10 = binary_potential(spec, cfg.body(1), cfg.body(0))
        assert abs(v01 - v10) <= 1e-12 * (1.0 + abs(v01))


def test_binary_joint_orthogonal_invariance(rng, orthogonal):
    """Generic terms survive simultaneous spatial and material rotations."""
    spec = PotentialSpec(binary=MBAR_WELL.binary + (
        BinaryTerm(arg="K:1", fn=HarmonicFn(stiffness=0.4, center=2.0)),
        BinaryTerm(arg="r", fn=HarmonicFn(stiffness=0.2, center=1.0)),
        BinaryTerm(arg="D", fn=HarmonicFn(stiffness=0.2, center=1.0)),
    ))
    for _ in range(30):
        cfg = pair_config(rng, 3)
        v0 = binary_potential(spec, cfg.body(0), cfg.body(1))
        A, Bm = orthogonal(3), orthogonal(3)
        moved = act_material(Bm, act_spatial(A, cfg))
        v1 = binary_potential(spec, moved.body(0), moved.body(1))
        assert abs(v1 - v0) <= 1e-10 * (1.0 + abs(v0))


def test_purely_affine_binary_full_invariance(rng, glplus):
    """D and Mbar terms survive any spatial GL+ action; the Mbar channels are
    additionally invariant under arbitrary material actions (D is not: it
    carries each body's Cauchy tensor)."""
    affine_spec = PotentialSpec(binary=MBAR_WELL.binary + (
        BinaryTerm(arg="D", fn=HarmonicFn(stiffness=0.3, center=0.8)),
    ))
    for _ in range(30):
        cfg = pair_config(rng, 2)
        v0 = binary_potential(affine_spec, cfg.body(0), cfg.body(1))
        A = glplus(2)
        moved = act_spatial(A, cfg)
        v1 = binary_potential(affine_spec, moved.body(0), moved.body(1))
        assert abs(v1 - v0) <= 1e-10 * (1.0 + abs(v0))
        m0 = binary_potential(MBAR_WELL, cfg.body(0), cfg.body(1))
        Bm = glplus(2)
        moved = act_material(Bm, cfg)
        m2 = binary_potential(MBAR_WELL, moved.body(0), moved.body(1))
        assert abs(m2 - m0) <= 1e-10 * (1.0 + abs(m0))


def test_overlapping_centers_with_r_term_raise():
    spec = PotentialSpec(binary=(BinaryTerm(arg="r", fn=HarmonicFn(1.0, 1.0)),))
    body = BodyConfig(x=np.zeros(2), phi=np.eye(2))
    with pytest.raises(NonDifferentiable):
        binary_potential(spec, body, body)


# ---------------------------------------------------------------------------
# dilatation stabilizer

def test_dilatation_zero_at_reference():
    spec = PotentialSpec(dil=DilatationTerm(kappa=1.0, d_ref=1.0))
    assert dilatation_stabilizer(spec, np.eye(2)) == 0.0


def test_dilatation_value_at_det_e():
    spec = PotentialSpec(dil=DilatationTerm(kappa=1.0, d_ref=1.0))
    phi = np.diag([np.e, 1.0])
    assert abs(dilatation_stabilizer(spec, phi) - 0.5) <= 1e-12


def test_dilatation_gradient_finite_difference(rng):
    spec = PotentialSpec(dil=DilatationTerm(kappa=0.9, d_ref=1.2))
    cfg = pair_config(rng, 3)
    _, dphi = potential_gradient(spec, cfg)
    h = 1e-6
    for K in range(2):
        for i in range(3):
            for j in range(3):
                pp = cfg.phi.copy(); pp[K, i, j] += h
                pm = cfg.phi.copy(); pm[K, i, j] -= h
                fd = (total_potential(spec, SystemConfig(x=cfg.x, phi=pp))
                      - total_potential(spec, SystemConfig(x=cfg.x, phi=pm))) / (2 * h)
                assert abs(dphi[K, i, j] - fd) <= 1e-6


# ---------------------------------------------------------------------------
# total potential

def test_empty_spec_zero(rng):
    assert total_potential(PotentialSpec(), pair_config(rng, 2)) == 0.0


def test_pair_sum_collapses_to_single_evaluation(rng):
    cfg = pair_config(rng, 2)
    total = total_potential(MBAR_WELL, cfg)
    single = binary_potential(MBAR_WELL, cfg.body(0), cfg.body(1))
    assert abs(total - single) <= 1e-14 * (1.0 + abs(single))


def test_mutual_part_translation_invariant(rng):
    spec = PotentialSpec(binary=MBAR_WELL.binary + (
        BinaryTerm(arg="r", fn=HarmonicFn(stiffness=0.5, center=1.0)),
        BinaryTerm(arg="D", fn=HarmonicFn(stiffness=0.5, center=1.0)),
    ))
    cfg = pair_config(rng, 3)
    v0 = total_potential(spec, cfg)
    y = rng.uniform(-2, 2, 3)
    moved = SystemConfig(x=cfg.x + y, phi=cfg.phi)
    assert abs(total_potential(spec, moved) - v0) <= 1e-12 * (1.0 + abs(v0))


# ---------------------------------------------------------------------------
# gradients

def test_constant_term_zero_gradient(rng):
    spec = PotentialSpec(binary=(BinaryTerm(arg="Mbar:1", fn=PolyFn(coeffs=(3.0,))),))
    cfg = pair_config(rng, 2)
    gx, gphi = potential_gradient(spec, cfg)
    np.testing.assert_allclose(gx, 0.0, atol=1e-15)
    np.testing.assert_allclose(gphi, 0.0, atol=1e-15)


def test_dilatation_gradient_vanishes_at_minimum():
    spec = PotentialSpec(dil=DilatationTerm(kappa=1.0, d_ref=1.0))
    cfg = SystemConfig(x=np.zeros((1, 2)), phi=np.eye(2)[None])
    gx, gphi = potential_gradient(spec, cfg)
    np.testing.assert_allclose(gphi, 0.0, atol=1e-15)


def test_full_gradient_matches_finite_differences(rng):
    """Every channel and scalar kind, against central differences at 1e-6."""
    spec = PotentialSpec(
        one_body=(TranslationalHarmonic(stiffness=0.8, center=(0.1, -0.2)),
                  InvariantTerm(a=2, fn=HarmonicFn(stiffness=0.4, center=2.0)),
                  InvariantTerm(a=1, fn=PolyFn(coeffs=(0.0, 0.2, 0.05), shift=2.0))),
        binary=(BinaryTerm(arg="r", fn=LennardJonesFn(epsilon=0.15, sigma=1.4)),
                BinaryTerm(arg="D", fn=LogHarmonicFn(stiffness=0.5, ref=1.0)),
                BinaryTerm(arg="K:1", fn=HarmonicFn(stiffness=0.3, center=2.0)),
                BinaryTerm(arg="K:2", fn=HarmonicFn(stiffness=0.2, center=2.0)),
                BinaryTerm(arg="Mbar:1", fn=HarmonicFn(stiffness=0.7, center=2.0)),
                BinaryTerm(arg="Mbar:2", fn=PolyFn(coeffs=(0.0, 0.3), shift=2.0))),
        dil=DilatationTerm(kappa=0.6, d_ref=0.9))
    for trial in range(4):
        cfg = pair_config(rng, 2, separation=2.0 + 0.3 * trial)
        gx, gphi = potential_gradient(spec, cfg)
        h = 1e-6 * max(1.0, float(np.max(np.abs(cfg.x))), float(np.max(np.abs(cfg.phi))))
        for K in range(2):
            for i in range(2):
                xp = cfg.x.copy(); xp[K, i] += h
                xm = cfg.x.copy(); xm[K, i] -= h
                fd = (total_potential(spec, SystemConfig(x=xp, phi=cfg.phi))
                      - total_potential(spec, SystemConfig(x=xm, phi=cfg.phi))) / (2 * h)
                assert abs(gx[K, i] - fd) <= 1e-6
                for j in range(2):
                    pp = cfg.phi.copy(); pp[K, i, j] += h
                    pm = cfg.phi.copy(); pm[K, i, j] -= h
                    fd = (total_potential(spec, SystemConfig(x=cfg.x, phi=pp))
                          - total_potential(spec, SystemConfig(x=cfg.x, phi=pm))) / (2 * h)
                    assert abs(gphi[K, i, j] - fd) <= 1e-6


def test_third_power_channel_gradients(rng):
    """K:3 and Mbar:3 at n = 3, where the matrix-power chain rule is least
    forgiving, against central differences."""
    spec = PotentialSpec(binary=(
        BinaryTerm(arg="K:3", fn=HarmonicFn(stiffness=0.1, center=3.0)),
        BinaryTerm(arg="Mbar:3", fn=HarmonicFn(stiffness=0.1, center=3.0)),
    ))
    cfg = pair_config(rng, 3)
    gx, gphi = potential_gradient(spec, cfg)
    np.testing.assert_allclose(gx, 0.0, atol=1e-15)
    h = 1e-6
    for K in range(2):
        for i in range(3):
            for j in range(3):
                pp = cfg.phi.copy(); pp[K, i, j] += h
                pm = cfg.phi.copy(); pm[K, i, j] -= h
                fd = (total_potential(spec, SystemConfig(x=cfg.x, phi=pp))
                      - total_potential(spec, SystemConfig(x=cfg.x, phi=pm))) / (2 * h)
                assert abs(gphi[K, i, j] - fd) <= 1e-6


def test_gradient_orthogonal_to_symmetry_generators(rng):
    """The purely affine potential has zero directional derivative along any
    spatial GL generator flow d/de [exp(eX) x, exp(eX) phi]."""
    spec = PotentialSpec(binary=MBAR_WELL.binary + (
        BinaryTerm(arg="D", fn=HarmonicFn(stiffness=0.4, center=1.0)),
    ))
    for _ in range(10):
        cfg = pair_config(rng, 2)
        gx, gphi = potential_gradient(spec, cfg)
        X = rng.uniform(-1, 1, (2, 2))
        deriv = 0.0
        for K in range(2):
            deriv += gx[K] @ (X @ cfg.x[K])
            deriv += float(np.sum(gphi[K] * (X @ cfg.phi[K])))
        assert abs(deriv) <= 1e-8


def test_gradient_r_zero_raises():
    spec = PotentialSpec(binary=(BinaryTerm(arg="r", fn=LennardJonesFn(0.1, 1.0)),))
    cfg = SystemConfig(x=np.zeros((2, 2)), phi=np.stack([np.eye(2), np.eye(2)]))
    with pytest.raises(NonDifferentiable):
        potential_gradient(spec, cfg)


# ---------------------------------------------------------------------------
# batched pairs: several pairs per body

def lattice_config(rng, n, N, spacing=2.0):
    """N bodies near the identity, centers on a square lattice with jitter."""
    side = int(np.ceil(np.sqrt(N)))
    x = np.zeros((N, n))
    x[:, 0] = spacing * (np.arange(N) % side)
    x[:, 1] = spacing * (np.arange(N) // side)
    x += rng.uniform(-0.2, 0.2, (N, n))
    phi = np.stack([np.eye(n) + 0.3 * rng.uniform(-1, 1, (n, n)) for _ in range(N)])
    for K in range(N):
        while np.linalg.det(phi[K]) < 0.25:
            phi[K] = np.eye(n) + 0.3 * rng.uniform(-1, 1, (n, n))
    return SystemConfig(x=x, phi=phi)


EVERY_CHANNEL = PotentialSpec(
    one_body=(TranslationalHarmonic(stiffness=0.4, center=(0.5, 0.5, 0.0)),
              InvariantTerm(a=3, fn=HarmonicFn(stiffness=0.05, center=3.0))),
    binary=(BinaryTerm(arg="r", fn=LennardJonesFn(epsilon=0.15, sigma=1.4)),
            BinaryTerm(arg="D", fn=LogHarmonicFn(stiffness=0.5, ref=1.0)),
            BinaryTerm(arg="K:1", fn=HarmonicFn(stiffness=0.3, center=3.0)),
            BinaryTerm(arg="K:2", fn=PolyFn(coeffs=(0.0, 0.1, 0.02), shift=3.0)),
            BinaryTerm(arg="K:3", fn=LogHarmonicFn(stiffness=0.05, ref=3.0)),
            BinaryTerm(arg="Mbar:1", fn=HarmonicFn(stiffness=0.7, center=3.0)),
            BinaryTerm(arg="Mbar:2", fn=PolyFn(coeffs=(0.0, 0.3), shift=3.0)),
            BinaryTerm(arg="Mbar:3", fn=LennardJonesFn(epsilon=0.05, sigma=2.0))),
    dil=DilatationTerm(kappa=0.6, d_ref=0.9))


def test_every_channel_gradient_matches_finite_differences_n3_N4(rng):
    """Six pairs share each body, so a wrong pair-to-body scatter shows up here
    where a single pair cannot reveal it."""
    cfg = lattice_config(rng, 3, 4)
    gx, gphi = potential_gradient(EVERY_CHANNEL, cfg)
    h = 1e-6
    for K in range(4):
        for i in range(3):
            xp = cfg.x.copy(); xp[K, i] += h
            xm = cfg.x.copy(); xm[K, i] -= h
            fd = (total_potential(EVERY_CHANNEL, SystemConfig(x=xp, phi=cfg.phi))
                  - total_potential(EVERY_CHANNEL, SystemConfig(x=xm, phi=cfg.phi))) / (2 * h)
            assert abs(gx[K, i] - fd) <= 1e-6 * (1.0 + abs(fd))
            for j in range(3):
                pp = cfg.phi.copy(); pp[K, i, j] += h
                pm = cfg.phi.copy(); pm[K, i, j] -= h
                fd = (total_potential(EVERY_CHANNEL, SystemConfig(x=cfg.x, phi=pp))
                      - total_potential(EVERY_CHANNEL, SystemConfig(x=cfg.x, phi=pm))) / (2 * h)
                assert abs(gphi[K, i, j] - fd) <= 1e-6 * (1.0 + abs(fd))


def test_total_potential_is_the_sum_over_pairs(rng):
    cfg = lattice_config(rng, 3, 4)
    spec = PotentialSpec(binary=EVERY_CHANNEL.binary)
    pairs = sum(binary_potential(spec, cfg.body(K), cfg.body(L))
                for K in range(4) for L in range(K + 1, 4))
    total = total_potential(spec, cfg)
    assert abs(total - pairs) <= 1e-12 * (1.0 + abs(total))


@pytest.mark.parametrize("arg", ["r", "D"])
def test_coincident_centers_inside_a_batch_raise(arg, rng):
    """Bodies 2 and 3 of four share a center: the distance channels have no
    derivative there."""
    cfg = lattice_config(rng, 3, 4)
    x = cfg.x.copy()
    x[2] = x[1]
    spec = PotentialSpec(binary=(BinaryTerm(arg=arg, fn=HarmonicFn(1.0, 1.0)),))
    with pytest.raises(NonDifferentiable):
        potential_gradient(spec, SystemConfig(x=x, phi=cfg.phi))


def test_affine_distance_stack_equals_pair_loop(rng, glplus):
    """Stacks (7, n) and (7, n, n) give each pair's distance bit for bit;
    a singular phi is named by its sample and pair slot."""
    for n in (2, 3):
        xk, xl = rng.uniform(-1, 1, (7, n)), rng.uniform(-1, 1, (7, n))
        pk = np.stack([glplus(n) for _ in range(7)])
        pl = np.stack([glplus(n) for _ in range(7)])
        d = affine_distance(xk, pk, xl, pl)
        assert d.shape == (7,)
        for s in range(7):
            assert d[s] == affine_distance(xk[s], pk[s], xl[s], pl[s])
        bad = pl.copy()
        bad[4] = 0.0
        with pytest.raises(SingularInput, match=r"^phi\[4, 1\] is singular"):
            affine_distance(xk, pk, xl, bad)
