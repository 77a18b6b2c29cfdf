import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kicked_coupler import ModeDims, SystemParams

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))

import run as bench_run  # noqa: E402


def blas_facts() -> str:
    """The numpy version, BLAS build and OpenBLAS thread count, as the
    benchmark records them (bench/run.py machine_facts)."""
    facts = bench_run.machine_facts()
    return (
        f"numpy {facts['numpy']} with BLAS {facts['blas']}, "
        f"{facts['blas_threads']} OpenBLAS threads"
    )


def pytest_report_header(config):
    return blas_facts()


def pytest_terminal_summary(terminalreporter, config):
    # -q drops the header; the facts then close the log instead
    if config.getoption("verbose") < 0:
        terminalreporter.write_line(blas_facts())


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
