import os

import numpy as np
import pytest

import affinekit
from affinekit.sampling import random_glplus, random_invertible, random_orthogonal


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(1234))


@pytest.fixture
def glplus(rng):
    def make(n, min_det=0.1):
        return random_glplus(rng, n, min_det)
    return make


@pytest.fixture
def invertible(rng):
    def make(n, min_abs_det=0.1):
        return random_invertible(rng, n, min_abs_det)
    return make


@pytest.fixture
def orthogonal(rng):
    def make(n, special=True):
        return random_orthogonal(rng, n, special)
    return make


@pytest.fixture
def child_env():
    """Environment for a child Python: PYTHONPATH starts with the directory
    this process imported ``affinekit`` from, so the child tests the same tree."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(affinekit.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env
