"""Hermitian eigendecomposition and unitary exponentials.

Unitaries are built by spectral decomposition, U = V exp(-i lambda t) V+,
rather than by a series method: the generators here are Hermitian and the
physics tests lean on the result being unitary to eigensolver accuracy.

unitary_from_generator(h, t) is the one builder of exp(-i h t).  It drops
its reference to h once h is decomposed, so a generator the caller holds
nowhere else is freed before the product: V, its phase-scaled copy and the
product are the three D x D complex arrays it holds at its peak.
"""

import numpy as np


class ContractViolationError(RuntimeError):
    """A numerical precondition failed (non-Hermitian input, bad density matrix, ...)."""


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
    # a ufunc always returns a new array; the method conj() of a real
    # array returns the array itself
    diff = np.conjugate(h.T)
    np.subtract(h, diff, out=diff)
    return float(np.max(np.abs(diff), initial=0.0))


def hermitian_eigendecomposition(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full spectral decomposition of a Hermitian matrix, as np.linalg.eigh
    gives it: (eigenvalues, eigenvectors), the eigenvalues real and
    ascending, the eigenvectors the columns of a unitary matrix.

    Raises ContractViolationError if an entry is not finite or the input
    fails the Hermiticity tolerance, and propagates LinAlgError if the
    eigensolver does not converge.
    """
    scale = float(np.max(np.abs(h), initial=0.0))
    # written so that a NaN scale fails too; an overflowed entry would
    # otherwise pass the Hermiticity test below as a NaN defect
    if not scale < np.inf:
        raise ContractViolationError(f"matrix has a non-finite entry (max |entry| = {scale})")
    defect = hermiticity_defect(h)
    if defect > HERMITICITY_RTOL * scale:
        raise ContractViolationError(
            f"matrix is not Hermitian within {HERMITICITY_RTOL:g} relative tolerance "
            f"(defect {defect:.3e}, scale {scale:.3e})"
        )
    return np.linalg.eigh(h)


def unitary_from_generator(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) for a Hermitian h, as V exp(-i lambda t) V+ from its
    decomposition by hermitian_eigendecomposition, whose errors it raises.

    Raises ContractViolationError when max|lambda t| * 2^-52 exceeds
    PHASE_ROUNDOFF_TOL (or is not a number).
    """
    eigenvalues, eigenvectors = hermitian_eigendecomposition(h)
    # a call hands its arguments over, so this frees a generator that the
    # caller built only to pass it here
    del h
    check_phase_roundoff(
        float(np.max(np.abs(eigenvalues), initial=0.0)) * abs(t), "max|lambda t|"
    )
    phases = np.exp(-1j * eigenvalues * t)
    scaled = eigenvectors * phases
    # V V+ without a conjugated copy of V: conjugate it in place, then take
    # the transposed view, the operands and layout of V.conj().T
    np.conjugate(eigenvectors, out=eigenvectors)
    return scaled @ eigenvectors.T
