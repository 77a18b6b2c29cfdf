"""Hermitian eigendecomposition and unitary exponentials.

Unitaries are built by spectral decomposition, U = V exp(-i lambda t) V+,
rather than by a series method: the generators here are Hermitian and the
physics tests lean on the result being unitary to eigensolver accuracy.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolationError, DimensionMismatchError

HERMITICITY_RTOL = 1e-10
# Largest allowed max|lambda t| * 2^-52, the phase error that rounding the
# eigenvalues alone puts into exp(-i lambda t).  At the reference point it
# is 4e-14 (max|lambda T| = 182); past the bound the phases keep few or no
# significant digits, although the result is still unitary.
PHASE_ROUNDOFF_TOL = 1e-6


def hermiticity_defect(h: np.ndarray) -> float:
    """max |H - H+|, the absolute deviation from Hermiticity."""
    return float(np.max(np.abs(h - h.conj().T))) if h.size else 0.0


def hermitian_eigendecomposition(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full spectral decomposition of a Hermitian matrix, as np.linalg.eigh
    gives it: (eigenvalues, eigenvectors), the eigenvalues real and
    ascending, the eigenvectors the columns of a unitary matrix.

    Raises ContractViolationError if the input fails the Hermiticity
    tolerance, and propagates LinAlgError if the eigensolver does not
    converge.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {h.shape}")
    scale = float(np.max(np.abs(h))) if h.size else 0.0
    if scale > 0 and hermiticity_defect(h) > HERMITICITY_RTOL * scale:
        raise ContractViolationError(
            f"matrix is not Hermitian within {HERMITICITY_RTOL:g} relative tolerance "
            f"(defect {hermiticity_defect(h):.3e}, scale {scale:.3e})"
        )
    return np.linalg.eigh(h)


def unitary_from_generator(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) for Hermitian H, via the spectral decomposition.

    Raises ContractViolationError, besides the cases of
    hermitian_eigendecomposition, when max|lambda t| * 2^-52 exceeds
    PHASE_ROUNDOFF_TOL (or is not a number).
    """
    eigenvalues, eigenvectors = hermitian_eigendecomposition(h)
    max_phase = float(np.max(np.abs(eigenvalues), initial=0.0)) * abs(t)
    roundoff = max_phase * np.finfo(float).eps
    # written so that a NaN phase fails too
    if not roundoff <= PHASE_ROUNDOFF_TOL:
        raise ContractViolationError(
            f"phase roundoff max|lambda t| * 2^-52 = {roundoff:.3e} exceeds "
            f"{PHASE_ROUNDOFF_TOL:g} (max|lambda t| = {max_phase:.3e})"
        )
    phases = np.exp(-1j * eigenvalues * t)
    scaled = eigenvectors * phases
    # V V+ without a conjugated copy of V: conjugate it in place, then take
    # the transposed view, the operands and layout of V.conj().T
    np.conjugate(eigenvectors, out=eigenvectors)
    return scaled @ eigenvectors.T

