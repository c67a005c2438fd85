"""Seeded matrix samplers shared by the verification suites and tests.

``random_invertible`` and ``random_glplus`` draw candidates with entries
uniform in [-1, 1] and keep those that clear a determinant floor (|det| >
0.1 and det > 0.1 by default), which keeps the matrices well enough
conditioned for 1e-12-level identity checks.  ``size=None`` draws one (n, n)
candidate at a time and returns the first kept; ``size=S`` draws blocks of
_BLOCK x the matrices still missing and returns the first S kept, in draw
order.  The accept test takes det elementwise in closed form at n <= 3.  At
n > 3, and for a block with a closed form (or, for ``random_invertible``,
its absolute value) within ``ACCEPT_GUARD`` = 1e-12 of the floor,
``np.linalg.det`` decides.  On [-1, 1] entries the two forms differ by at
most about 1e-15, so outside that band they reach the same decision: every
draw keeps what a LAPACK-only test would keep from the same candidates.

``orthogonal_from_normal`` is Mezzadri's Haar sampler on O(n) (Mezzadri,
*How to generate random matrices from the classical compact groups*,
Notices AMS 2007): the Q factor of a Gaussian matrix with its columns
multiplied by the signs of diag R, and with ``special`` the first column of
each member of det -1 negated, which lands in SO(n).  It takes a stack
(..., n, n) and factors it with one stacked QR, bit-equal to factoring each
member alone.  ``random_orthogonal`` applies it to one
``rng.standard_normal((n, n))`` draw, its only generator call, so callers
can draw a block of Gaussian matrices and map them all at once.
"""

from __future__ import annotations

import numpy as np

ACCEPT_GUARD = 1e-12
_BLOCK = 4        # candidates drawn per matrix still missing


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _closed_det(m) -> np.ndarray:
    """Elementwise closed-form det of a 1x1, 2x2 or 3x3 m (n, n) or stack (S, n, n)."""
    x = np.reshape(m, np.shape(m)[:-2] + (-1,)).T   # entries row by row, members last
    if len(x) == 1:
        return x[0]
    if len(x) == 4:
        a, b, c, d = x
        return a * d - b * c
    a, b, c, d, e, f, g, h, i = x
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _clears_floor(m: np.ndarray, floor: float, signed: bool) -> np.ndarray:
    """Whether det (``signed``) or |det| of m (n, n), or of each member of a
    stack (S, n, n), exceeds ``floor``, decided as ``np.linalg.det`` decides it."""
    d = _closed_det(m) if m.shape[-1] <= 3 else None
    if d is None or (np.abs((d if signed else np.abs(d)) - floor) <= ACCEPT_GUARD).any():
        d = np.linalg.det(m)
    return (d if signed else np.abs(d)) > floor


def _draw_clearing(rng, n: int, size: int | None, floor: float, signed: bool) -> np.ndarray:
    """One matrix (``size=None``) or a (size, n, n) stack that clears the floor."""
    want = 1 if size is None else int(size)
    kept = [np.empty((0, n, n))]
    while (have := sum(map(len, kept))) < want:
        m = rng.uniform(-1.0, 1.0, size=(n, n) if size is None else (_BLOCK * (want - have), n, n))
        ok = _clears_floor(m, floor, signed)
        if size is None and ok:
            return m
        kept.append(m[ok])
    return np.concatenate(kept)[:want]


def random_invertible(rng, n: int, min_abs_det: float = 0.1, size=None) -> np.ndarray:
    return _draw_clearing(rng, n, size, min_abs_det, signed=False)


def random_glplus(rng, n: int, min_det: float = 0.1, size=None) -> np.ndarray:
    return _draw_clearing(rng, n, size, min_det, signed=True)


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
