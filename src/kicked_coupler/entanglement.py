"""Qubit-subspace projection, concurrence, and Bell-state fidelities."""

from dataclasses import dataclass

import numpy as np

from .hamiltonians import ModeDims, joint_index
from .numerics import (
    ContractViolationError,
    hermitian_eigendecomposition,
    hermiticity_defect,
)

# sigma_y (x) sigma_y in basis order (|00>, |01>, |10>, |11>); real
_SY_SY = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=complex,
)

_PROJECTION_FLOOR = 1e-15


def bell_states() -> np.ndarray:
    """The four Bell states with +/- i relative phases, as the rows B1..B4
    of a new (4, 4) array in basis order (|00>, |01>, |10>, |11>):

    B1 = (|00> + i|11>)/sqrt2,  B2 = (|00> - i|11>)/sqrt2,
    B3 = (|01> + i|10>)/sqrt2,  B4 = (|01> - i|10>)/sqrt2.
    """
    s = 1.0 / np.sqrt(2.0)
    return s * np.array([[1, 0, 0, 1j], [1, 0, 0, -1j], [0, 1, 1j, 0], [0, 1, -1j, 0]])


@dataclass(frozen=True, eq=False)
class QubitObservables:
    """Per-kick observables of a trajectory, one row per recorded state.

    probs           : (K+1, 4) populations of |00>, |01>, |10>, |11>.
    leakage         : (K+1,) probability mass outside the qubit subspace; for
                      closed-form rows, the normalization defect 1 - sum(probs).
    concurrence     : (K+1,) concurrence of the renormalized qubit state.
    bell_fidelities : (K+1, 4) fidelities of that state with B1..B4.
    """

    probs: np.ndarray
    leakage: np.ndarray
    concurrence: np.ndarray
    bell_fidelities: np.ndarray


def density_from_pure(amps: np.ndarray) -> np.ndarray:
    """Rank-one density matrix |psi><psi| of four qubit amplitudes."""
    amps = np.asarray(amps, dtype=complex)
    return np.outer(amps, amps.conj())


def concurrence(rho: np.ndarray) -> float:
    """Two-qubit concurrence C = max(0, l1 - l2 - l3 - l4) of a 4x4 density
    matrix, after the shape, Hermiticity, trace and positivity checks.

    The l_i are the decreasing square roots of the eigenvalues of
    rho (sy x sy) rho* (sy x sy).  With rho = w w^+, they are the singular
    values of the complex-symmetric matrix w^T (sy x sy) w.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"two-qubit density must be 4x4, got {rho.shape}")
    if hermiticity_defect(rho) > 1e-12:
        raise ContractViolationError("density matrix is not Hermitian within 1e-12")
    if abs(np.trace(rho).real - 1.0) > 1e-12 or abs(np.trace(rho).imag) > 1e-12:
        raise ContractViolationError("density matrix trace differs from 1 beyond 1e-12")
    eigenvalues, eigenvectors = hermitian_eigendecomposition(rho)
    if np.min(eigenvalues) < -1e-10:
        raise ContractViolationError(
            f"density matrix has negative eigenvalue {np.min(eigenvalues):.3e}"
        )
    w = eigenvectors * np.sqrt(np.clip(eigenvalues, 0.0, None))
    lam = np.linalg.svd(w.T @ _SY_SY @ w, compute_uv=False)
    return float(max(0.0, lam[0] - lam[1:].sum()))


def concurrence_pure(amps: np.ndarray) -> np.ndarray:
    """Closed form for pure states, 2 |c00 c11 - c01 c10|, over the last
    axis of a (..., 4) amplitude array."""
    c00, c01, c10, c11 = np.moveaxis(np.asarray(amps, dtype=complex), -1, 0)
    # the determinant in real arithmetic, in the order of Python's complex
    # product, so each entry equals 2 * abs(c00 * c11 - c01 * c10) bit for bit
    det_re = c00.real * c11.real - c00.imag * c11.imag - (
        c01.real * c10.real - c01.imag * c10.imag
    )
    det_im = c00.real * c11.imag + c00.imag * c11.real - (
        c01.real * c10.imag + c01.imag * c10.real
    )
    return 2.0 * np.hypot(det_re, det_im)


def bell_fidelities(amps: np.ndarray) -> np.ndarray:
    """Squared overlaps |<Bi|psi>|^2 with B1..B4 over the last axis of a
    (..., 4) amplitude array."""
    return np.abs(np.asarray(amps, dtype=complex) @ bell_states().conj().T) ** 2


def annotate_trajectory(states: np.ndarray, dims: ModeDims) -> QubitObservables:
    """Probabilities, leakage, concurrence and Bell fidelities of every row
    of an (K+1, D) trajectory.  The leakage is the mass outside the qubit
    subspace, and the other observables are those of the renormalized
    qubit amplitudes.  Raises ValueError unless states is (K+1, dims.joint),
    and ContractViolationError if a row has no numerical support on the
    qubit subspace."""
    if states.ndim != 2 or states.shape[1] != dims.joint:
        raise ValueError(f"states have shape {states.shape}, expected (K+1, {dims.joint})")
    # the columns of |00>, |01>, |10>, |11>
    raw = states[:, [joint_index(m, n, dims) for m in (0, 1) for n in (0, 1)]]
    moduli = np.abs(raw)
    if np.any(np.all(moduli < _PROJECTION_FLOOR, axis=1)):
        raise ContractViolationError(
            "a state has no numerical support on the qubit subspace"
        )
    probs = moduli**2
    weight = np.sum(probs, axis=1)
    # <psi|psi> per row, the BLAS dot of np.vdot, so equal to it bit for bit
    # (tests/test_entanglement.py checks it)
    norms = np.vecdot(states, states).real
    q = raw / np.sqrt(weight)[:, None]
    return QubitObservables(
        probs=probs,
        leakage=np.maximum(norms - weight, 0.0),
        concurrence=concurrence_pure(q),
        bell_fidelities=bell_fidelities(q),
    )
