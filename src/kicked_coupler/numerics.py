"""Hermitian eigendecomposition and unitary exponentials.

Unitaries are built by spectral decomposition, U = V exp(-i lambda t) V+,
rather than by a series method: the generators here are Hermitian and the
physics tests lean on the result being unitary to eigensolver accuracy.

unitary_from_spectrum forms U from the decomposition alone: V, its
phase-scaled copy and the product, three D x D complex arrays.  A caller
that builds the generator only to decompose it (propagation._build_unitary)
lets it go when eigh returns, so the generator is not a fourth array at
the product.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolationError, DimensionMismatchError

HERMITICITY_RTOL = 1e-10
# Largest allowed max|phase| * 2^-52, the error that rounding a phase
# alone puts into exp(-i phase), for the eigenphases lambda t of a step
# unitary and the closed forms' k omega1 / sqrt2.  At the reference point
# it is 4e-14 for the unitaries (max|lambda T| = 182); past the bound the
# phases keep few or no significant digits, although a unitary stays
# unitary and closed-form probabilities still sum to 1.
PHASE_ROUNDOFF_TOL = 1e-6


def check_phase_roundoff(max_phase: float, name: str) -> None:
    """Raise ContractViolationError when max_phase, the largest phase a
    computation takes the sine or cosine of, has a roundoff
    max_phase * 2^-52 above PHASE_ROUNDOFF_TOL (or is not a number).
    name says in the message what the phase is."""
    roundoff = max_phase * np.finfo(float).eps
    # written so that a NaN phase fails too
    if not roundoff <= PHASE_ROUNDOFF_TOL:
        raise ContractViolationError(
            f"phase roundoff {name} * 2^-52 = {roundoff:.3e} exceeds "
            f"{PHASE_ROUNDOFF_TOL:g} ({name} = {max_phase:.3e})"
        )


def hermiticity_defect(h: np.ndarray) -> float:
    """max |H - H+|, the absolute deviation from Hermiticity.

    The difference is taken in place in one conjugated copy of H, so the
    call allocates 1.5 times the size of H: that copy and the moduli.
    """
    if not h.size:
        return 0.0
    # a ufunc always returns a new array; the method conj() of a real
    # array returns the array itself
    diff = np.conjugate(h.T)
    np.subtract(h, diff, out=diff)
    return float(np.max(np.abs(diff)))


def hermitian_eigendecomposition(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full spectral decomposition of a Hermitian matrix, as np.linalg.eigh
    gives it: (eigenvalues, eigenvectors), the eigenvalues real and
    ascending, the eigenvectors the columns of a unitary matrix.

    Raises ContractViolationError if an entry is not finite or the input
    fails the Hermiticity tolerance, and propagates LinAlgError if the
    eigensolver does not converge.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {h.shape}")
    scale = float(np.max(np.abs(h))) if h.size else 0.0
    # written so that a NaN scale fails too; an overflowed entry would
    # otherwise pass the Hermiticity test below as a NaN defect
    if not scale < np.inf:
        raise ContractViolationError(f"matrix has a non-finite entry (max |entry| = {scale})")
    defect = hermiticity_defect(h) if scale > 0 else 0.0
    if defect > HERMITICITY_RTOL * scale:
        raise ContractViolationError(
            f"matrix is not Hermitian within {HERMITICITY_RTOL:g} relative tolerance "
            f"(defect {defect:.3e}, scale {scale:.3e})"
        )
    return np.linalg.eigh(h)


def unitary_from_spectrum(
    eigenvalues: np.ndarray, eigenvectors: np.ndarray, t: float
) -> np.ndarray:
    """V exp(-i lambda t) V+ from the decomposition (lambda, V) that
    hermitian_eigendecomposition returns.  V is conjugated in place, so
    the caller must not use it afterwards.

    Raises ContractViolationError when max|lambda t| * 2^-52 exceeds
    PHASE_ROUNDOFF_TOL (or is not a number).
    """
    check_phase_roundoff(
        float(np.max(np.abs(eigenvalues), initial=0.0)) * abs(t), "max|lambda t|"
    )
    phases = np.exp(-1j * eigenvalues * t)
    scaled = eigenvectors * phases
    # V V+ without a conjugated copy of V: conjugate it in place, then take
    # the transposed view, the operands and layout of V.conj().T
    np.conjugate(eigenvectors, out=eigenvectors)
    return scaled @ eigenvectors.T
