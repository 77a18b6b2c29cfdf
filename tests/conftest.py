import tracemalloc

import numpy as np
import pytest

from kicked_coupler import ModeDims, SystemParams


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture
def default_params():
    """The reference working point: chi_a = chi_b = 1, alpha = 1/25,
    epsilon = 1/100, T = 1, cutoffs 15 per mode."""
    return SystemParams()


@pytest.fixture
def small_dims():
    return ModeDims(2, 2)


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (m + m.conj().T)


def random_unit_vector(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


# one complex D x D matrix at the reference cutoffs 15/15 (D = 225), in bytes
MATRIX_BYTES = 225 * 225 * 16


def traced_peak(call):
    """The tracemalloc peak, in bytes, of call(), counted from its start."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
