"""Stacked draws: ``random_glplus`` / ``random_invertible`` with ``size=S``
keep, in draw order, the candidates a LAPACK-only accept test keeps from the
blocks they draw; the chart-angle samplers take and give stacks."""

import numpy as np
import pytest

from affinekit import sampling
from affinekit.errors import DegenerateSpectrum
from affinekit.measures import angles_from_rotation, rotation_from_angles
from affinekit.sampling import random_glplus, random_invertible, rng_from_seed


class RecordingGenerator:
    """Passes ``uniform`` through to a generator and keeps a copy of each draw."""

    def __init__(self, rng):
        self.rng, self.blocks = rng, []

    def uniform(self, low, high, size):
        m = self.rng.uniform(low, high, size)
        self.blocks.append(m.copy())
        return m


def _lapack_clears(m, floor, signed):
    d = np.linalg.det(m)
    return (d if signed else np.abs(d)) > floor


SAMPLERS = [(random_glplus, True), (random_invertible, False)]


@pytest.mark.parametrize("sampler, signed", SAMPLERS)
def test_stacked_draws_are_the_lapack_accepted_candidates_in_order(sampler, signed):
    floor = 0.1
    for seed in range(200):
        for n in (1, 2, 3, 4):
            for size in (1, 7, 64):
                rng = RecordingGenerator(rng_from_seed(seed))
                got = sampler(rng, n, floor, size=size)
                assert got.shape == (size, n, n)
                blocks = [b.reshape(-1, n, n) for b in rng.blocks]
                kept = [b[_lapack_clears(b, floor, signed)] for b in blocks]
                # no block is drawn once enough candidates are kept
                assert sum(map(len, kept[:-1])) < size <= sum(map(len, kept))
                want = np.concatenate(kept)[:size]
                assert got.tobytes() == want.tobytes(), (seed, n, size)
                assert _lapack_clears(got, floor, signed).all()


class QueuedBlocks:
    """Stands in for a generator: ``uniform`` hands out queued candidate blocks."""

    def __init__(self, *blocks):
        self.queue = list(blocks)

    def uniform(self, low, high, size):
        m = self.queue.pop(0)
        assert m.shape == size
        return m


def _closed_form_above_lapack(n, signed):
    """A [-1, 1] matrix whose closed-form det (or |det|) exceeds LAPACK's."""
    rng = rng_from_seed(99)
    while True:
        m = rng.uniform(-1.0, 1.0, size=(n, n))
        closed, lapack = sampling._closed_det(m), np.linalg.det(m)
        if not signed:
            closed, lapack = abs(closed), abs(lapack)
        if lapack > 0.1 and closed > lapack:
            return m, float(lapack)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("sampler, signed", SAMPLERS)
def test_stacked_candidate_in_the_guard_band_takes_the_lapack_decision(sampler, signed, n):
    """In a block, a candidate whose closed form is an ulp above the floor
    but whose LAPACK det is at it is rejected, as LAPACK alone would."""
    m, floor = _closed_form_above_lapack(n, signed)
    assert 0.0 < abs(sampling._closed_det(m)) - floor <= 1e-12
    block = np.stack([m, 2.0 * np.eye(n), m, 3.0 * np.eye(n)])
    got = sampler(QueuedBlocks(block), n, floor, size=1)
    np.testing.assert_array_equal(got, 2.0 * np.eye(n)[None])


@pytest.mark.parametrize("sampler, signed", SAMPLERS)
def test_single_draws_keep_the_per_candidate_stream(sampler, signed):
    """size=None draws one (n, n) candidate at a time: the matrices and the
    generator position are those of a LAPACK-only loop over single candidates."""
    for seed in range(20):
        for n in (1, 2, 3, 4):
            rng, ref = rng_from_seed(seed), rng_from_seed(seed)
            for _ in range(5):
                while not _lapack_clears(m := ref.uniform(-1.0, 1.0, (n, n)), 0.1, signed):
                    pass
                assert sampler(rng, n).tobytes() == m.tobytes()
            assert rng.random(4).tobytes() == ref.random(4).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_angles_from_a_rotation_stack_equal_the_per_member_angles(n):
    rng = rng_from_seed(3)
    angles = np.column_stack([rng.uniform(0.1, 3.0, (9, 1)), rng.uniform(0.2, 2.9, (9, 1)),
                              rng.uniform(0.1, 3.0, (9, 1))])[:, :n * (n - 1) // 2]
    stack = rotation_from_angles(n, angles).reshape(3, 3, n, n)
    got = angles_from_rotation(stack)
    assert got.shape == (3, 3, n * (n - 1) // 2)
    for i, j in np.ndindex(3, 3):
        np.testing.assert_array_equal(got[i, j], angles_from_rotation(stack[i, j]))
    np.testing.assert_allclose(got.reshape(angles.shape), angles, atol=1e-12)


def test_a_stack_member_on_the_chart_boundary_raises():
    stack = rotation_from_angles(3, np.array([[0.3, 1.0, 0.2], [0.3, 0.0, 0.2]]))
    angles_from_rotation(stack[:1])
    with pytest.raises(DegenerateSpectrum):
        angles_from_rotation(stack)
