"""The seeded samplers draw exactly what a LAPACK-only accept test and a
per-matrix QR draw: the same matrices, and the generator left at the same
position."""

import numpy as np
import pytest

from affinekit import sampling
from affinekit.sampling import (orthogonal_from_normal, random_glplus, random_invertible,
                                random_orthogonal, rng_from_seed)


# reference samplers: np.linalg.det on every candidate, one QR per matrix

def lapack_invertible(rng, n, min_abs_det=0.1):
    while True:
        m = rng.uniform(-1.0, 1.0, size=(n, n))
        if abs(np.linalg.det(m)) > min_abs_det:
            return m


def lapack_glplus(rng, n, min_det=0.1):
    while True:
        m = rng.uniform(-1.0, 1.0, size=(n, n))
        if np.linalg.det(m) > min_det:
            return m


def per_matrix_orthogonal(rng, n, special=True):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if special and np.linalg.det(q) < 0:
        q = q.copy()
        q[:, 0] = -q[:, 0]
    return q


CASES = [(random_invertible, lapack_invertible, 0.1), (random_invertible, lapack_invertible, 0.5),
         (random_glplus, lapack_glplus, 0.1), (random_glplus, lapack_glplus, 0.5),
         (random_orthogonal, per_matrix_orthogonal, True),
         (random_orthogonal, per_matrix_orthogonal, False)]


@pytest.mark.parametrize("sampler, reference, arg", CASES)
def test_draws_and_stream_equal_the_reference_samplers(sampler, reference, arg):
    for seed in range(300):
        for n in (1, 2, 3, 4):
            rng, ref = rng_from_seed(seed), rng_from_seed(seed)
            got, want = sampler(rng, n, arg), reference(ref, n, arg)
            assert got.tobytes() == want.tobytes(), (seed, n)
            assert rng.random(4).tobytes() == ref.random(4).tobytes(), (seed, n)


class QueuedCandidates:
    """Stands in for a generator: ``uniform`` hands out queued matrices."""

    def __init__(self, *candidates):
        self.queue = list(candidates)

    def uniform(self, low, high, size):
        m = self.queue.pop(0)
        assert m.shape == size
        return m


def _closed_form_above_lapack(n, signed):
    """A [-1, 1] matrix whose closed-form det (or |det|) exceeds LAPACK's."""
    rng = rng_from_seed(99)
    while True:
        m = rng.uniform(-1.0, 1.0, size=(n, n))
        closed, lapack = sampling._closed_det(m.tolist()), np.linalg.det(m)
        if not signed:
            closed, lapack = abs(closed), abs(lapack)
        if lapack > 0.1 and closed > lapack:
            return m, float(lapack)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("sampler, signed", [(random_glplus, True), (random_invertible, False)])
def test_candidate_in_the_guard_band_takes_the_lapack_decision(sampler, signed, n):
    """With the floor at LAPACK's det of the candidate, LAPACK rejects it
    (det > floor fails) while the closed form, an ulp above, would accept
    it; the guard band hands the decision to LAPACK."""
    m, floor = _closed_form_above_lapack(n, signed)
    assert abs(sampling._closed_det(m.tolist())) - floor <= 1e-12
    fallback = 2.0 * np.eye(n)
    got = sampler(QueuedCandidates(m, fallback), n, floor)
    assert got is fallback


@pytest.mark.parametrize("sampler", [random_glplus, random_invertible])
def test_lapack_is_called_only_in_the_band_or_above_n3(sampler, monkeypatch):
    floor = 0.1
    calls = []
    lapack_det = np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda m: calls.append(m.shape) or lapack_det(m))
    rng = rng_from_seed(5)
    for n in (1, 2, 3):
        for _ in range(200):
            sampler(rng, n, floor)
    assert calls == []
    in_band = np.diag([floor + 5e-13, 1.0])
    sampler(QueuedCandidates(in_band), 2, floor)
    sampler(rng, 4, floor)
    assert calls[0] == (2, 2) and calls[1:] and set(calls[1:]) == {(4, 4)}


@pytest.mark.parametrize("special", [True, False])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_orthogonal_equals_per_matrix_draws(n, special):
    """One stacked QR gives each member bit for bit, also the members whose
    sign-fixed Q has det -1 and gets its first column flipped."""
    rng, ref = rng_from_seed(17 + n), rng_from_seed(17 + n)
    normals = np.stack([rng.standard_normal((n, n)) for _ in range(64)])
    stacked = orthogonal_from_normal(normals, special)
    singles = np.stack([random_orthogonal(ref, n, special) for _ in range(64)])
    assert stacked.tobytes() == singles.tobytes()
    assert rng.random(4).tobytes() == ref.random(4).tobytes()
    np.testing.assert_allclose(stacked @ stacked.swapaxes(-1, -2),
                               np.broadcast_to(np.eye(n), stacked.shape), atol=1e-14)
    q, r = np.linalg.qr(normals)
    unflipped = np.linalg.det(q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :])
    if n > 1:
        assert (unflipped < 0).sum() >= 16  # the flip is exercised
    if special:
        assert (np.linalg.det(stacked) > 0).all()
    else:
        np.testing.assert_array_equal(np.linalg.det(stacked), unflipped)
