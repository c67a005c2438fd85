"""Seeded matrix samplers shared by the verification suites and tests.

``random_invertible`` and ``random_glplus`` draw candidates with entries
uniform in [-1, 1] until one clears a determinant floor (|det| > 0.1 and
det > 0.1 by default), which keeps the matrices well enough conditioned for
1e-12-level identity checks.  The accept test takes det of each candidate
in closed form from ``m.tolist()`` at n <= 3, which costs about a
microsecond where ``np.linalg.det`` costs several.  At n > 3, and whenever
the closed form (or, for ``random_invertible``, its absolute value) lies
within ``ACCEPT_GUARD`` = 1e-12 of the floor, the test falls back to
``np.linalg.det``.  On [-1, 1] entries the two forms differ by at most
about 1e-15, so outside that band they reach the same decision: every
rejection loop takes the same candidates as a LAPACK-only test would and
leaves the generator at the same position.

``orthogonal_from_normal`` is Mezzadri's Haar sampler on O(n) (Mezzadri,
*How to generate random matrices from the classical compact groups*,
Notices AMS 2007): the Q factor of a Gaussian matrix with its columns
multiplied by the signs of diag R, and with ``special`` the first column of
each member of det -1 negated, which lands in SO(n).  It takes a stack
(..., n, n) and factors it with one stacked QR, bit-equal to factoring each
member alone.  ``random_orthogonal`` applies it to one
``rng.standard_normal((n, n))`` draw, its only generator call, so callers
can draw the Gaussian matrices in seed order and map them all at once.
"""

from __future__ import annotations

import numpy as np

ACCEPT_GUARD = 1e-12


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _closed_det(rows: list) -> float:
    """Determinant of a 1x1, 2x2 or 3x3 matrix given as nested lists."""
    if len(rows) == 1:
        return rows[0][0]
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _clears_floor(m: np.ndarray, floor: float, signed: bool) -> bool:
    """Whether det m (``signed``) or |det m| exceeds ``floor``, decided as
    ``np.linalg.det`` decides it: by the closed form at n <= 3 outside the
    guard band, by LAPACK otherwise."""
    if len(m) <= 3:
        d = _closed_det(m.tolist())
        d = d if signed else abs(d)
        if abs(d - floor) > ACCEPT_GUARD:
            return d > floor
    d = np.linalg.det(m)
    return (d if signed else abs(d)) > floor


def random_invertible(rng, n: int, min_abs_det: float = 0.1) -> np.ndarray:
    while True:
        m = rng.uniform(-1.0, 1.0, size=(n, n))
        if _clears_floor(m, min_abs_det, signed=False):
            return m


def random_glplus(rng, n: int, min_det: float = 0.1) -> np.ndarray:
    while True:
        m = rng.uniform(-1.0, 1.0, size=(n, n))
        if _clears_floor(m, min_det, signed=True):
            return m


def orthogonal_from_normal(g: np.ndarray, special: bool = True) -> np.ndarray:
    """Haar-distributed O(n) (or, with ``special``, SO(n)) matrices from
    Gaussian matrices g (..., n, n), one per member."""
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    if special:
        q[..., 0] *= np.sign(np.linalg.det(q))[..., None]  # det q is +-1
    return q


def random_orthogonal(rng, n: int, special: bool = True) -> np.ndarray:
    return orthogonal_from_normal(rng.standard_normal((n, n)), special)
