import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest

from kicked_coupler import SystemParams, joint_index, propagation

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))

import run as bench_run  # noqa: E402


def blas_facts() -> str:
    """The Python and numpy versions, BLAS build and OpenBLAS thread count,
    as the benchmark records them (bench/run.py machine_facts)."""
    facts = bench_run.machine_facts()
    return (
        f"Python {facts['python']}, numpy {facts['numpy']} with BLAS {facts['blas']}, "
        f"{facts['blas_threads']} OpenBLAS threads"
    )


def machine_lines() -> list[str]:
    """The BLAS facts and the line count of src/, as the benchmark records
    them, and whether bytecode writing is off: then every fresh interpreter,
    the benchmark's setup_s runs included, compiles any module whose cached
    bytecode is missing or stale."""
    return [
        blas_facts(),
        f"src/ lines: {bench_run.machine_facts()['src_lines']}",
        f"bytecode writing off: {bool(sys.flags.dont_write_bytecode)}",
    ]


def pytest_report_header(config):
    return machine_lines()


def pytest_terminal_summary(terminalreporter, config):
    # -q drops the header; the facts then close the log instead
    if config.getoption("verbose") < 0:
        for line in machine_lines():
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture
def default_params():
    """The reference working point: chi_a = chi_b = 1, alpha = 1/25,
    epsilon = 1/100, T = 1, cutoffs 15 per mode."""
    return SystemParams()


def oracle_probabilities(ks, params, digits=40):
    """|c_mn|^2 at kicks ks, from the closed forms in the algebraically
    distinct form that divides by eps T and by omega2, evaluated in mpmath
    at the given digits from the doubles params holds.  At eps T = 0 the
    rows are the uncoupled ones, and at alpha = 0 the vacuum.  The form
    cancels about 2 log10(alpha / eps T) digits when alpha > eps T."""
    with mpmath.workdps(digits):
        eps = mpmath.mpf(abs(params.epsilon)) * mpmath.mpf(params.T)
        alpha = mpmath.mpf(abs(params.alpha))
        if eps == 0 or alpha == 0:
            return np.array([
                [float(mpmath.cos(k * alpha) ** 2), 0.0, float(mpmath.sin(k * alpha) ** 2), 0.0]
                for k in ks
            ])
        om = mpmath.sqrt(eps**2 + 4 * alpha**2)
        om1 = mpmath.sqrt(eps**2 + 2 * alpha**2 + eps * om)
        om2 = 2 * alpha**2 / om1
        sqrt2 = mpmath.sqrt(2)
        rows = []
        for k in ks:
            cos1, sin1 = mpmath.cos(k * om1 / sqrt2), mpmath.sin(k * om1 / sqrt2)
            cos2, sin2 = mpmath.cos(k * om2 / sqrt2), mpmath.sin(k * om2 / sqrt2)
            rows.append([
                ((2 * alpha**2 - om2**2) * cos1 - (2 * alpha**2 - om1**2) * cos2)
                / (2 * eps * om),
                (alpha / om) * (cos1 - cos2),
                (alpha / (sqrt2 * eps * om * om1 * om2))
                * ((om2**2 - 2 * (eps**2 + alpha**2)) * om2 * sin1 + eps * (eps - om) * om1 * sin2),
                (sqrt2 * alpha**2 / om) * (sin2 / om2 - sin1 / om1),
            ])
        return np.array([[float(c**2) for c in row] for row in rows])


# Dense single-mode operators, their lifts to the joint space and the
# per-state qubit projection: the references the package's entrywise
# operator builders and batched observables are checked against.
def annihilation_op(dim):
    """a|n> = sqrt(n)|n-1>; its adjoint annihilates the top level |dim-1>."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1).astype(complex)


def embed_mode_a(op, dims):
    """op (x) I_b."""
    return np.kron(op, np.eye(dims.dim_b, dtype=complex))


def embed_mode_b(op, dims):
    """I_a (x) op."""
    return np.kron(np.eye(dims.dim_a, dtype=complex), op)


def project_to_qubits(psi, dims):
    """The renormalized |00>, |01>, |10>, |11> amplitudes of one joint-basis
    state, and its leakage, with one np.vdot for the norm."""
    psi = np.asarray(psi, dtype=complex)
    raw = psi[[joint_index(m, n, dims) for m in (0, 1) for n in (0, 1)]]
    weight = float(np.sum(np.abs(raw) ** 2))
    leakage = float(np.vdot(psi, psi).real) - weight
    return raw / np.sqrt(weight), max(leakage, 0.0)


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


def off_norm_vacuum(monkeypatch, scale=1.001):
    """Start every run from now on at scale times the vacuum, so that its
    final squared norm is off from 1 by more than propagation.NORM_RTOL
    while its period matrix stays unitary: only the norm contract fails."""
    original = propagation.basis_state
    monkeypatch.setattr(
        propagation, "basis_state", lambda m, n, dims: scale * original(m, n, dims)
    )


def scaled_steps(monkeypatch, scale):
    """Multiply every step unitary built from now on by scale, so that the
    period matrix is not unitary unless scale is 1."""
    original = propagation.unitary_from_generator
    monkeypatch.setattr(
        propagation, "unitary_from_generator", lambda h, t: scale * original(h, t)
    )
