"""Bosonic mode operators and two-mode tensor structure in a finite Fock basis.

Operators are dense complex ``numpy`` arrays.  The joint basis of the two
modes is ordered mode-a major: the state |m>_a |n>_b sits at index
``I = m * dim_b + n``.  That single convention is used everywhere in the
package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError


@dataclass(frozen=True)
class ModeDims:
    """Fock-space truncation: number of levels kept per mode (vacuum included).

    Both dimensions must be at least 2 so that the qubit subspace
    {|0>, |1>} exists in each mode.
    """

    dim_a: int
    dim_b: int

    def __post_init__(self) -> None:
        if self.dim_a < 2 or self.dim_b < 2:
            raise ValueError(
                f"mode dimensions must be >= 2, got ({self.dim_a}, {self.dim_b})"
            )

    @property
    def joint(self) -> int:
        """Dimension of the joint two-mode space."""
        return self.dim_a * self.dim_b


def annihilation_op(dim: int) -> np.ndarray:
    """Truncated annihilation operator: a|n> = sqrt(n)|n-1>.

    The matrix has sqrt(n) on the first superdiagonal.  Its adjoint (the
    truncated creation operator) annihilates the top level |dim-1> instead
    of raising it; leakage monitoring quantifies the effect of that edge.
    """
    if dim < 2:
        raise ValueError(f"annihilation_op needs dim >= 2, got {dim}")
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1).astype(complex)


def creation_op(dim: int) -> np.ndarray:
    """Truncated creation operator, adjoint of :func:`annihilation_op`."""
    return annihilation_op(dim).conj().T


def number_op(dim: int) -> np.ndarray:
    """Photon-number operator diag(0, 1, ..., dim-1)."""
    if dim < 2:
        raise ValueError(f"number_op needs dim >= 2, got {dim}")
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


def embed_mode_a(op: np.ndarray, dims: ModeDims) -> np.ndarray:
    """Lift a single-mode operator on mode a to the joint space: op (x) I_b."""
    if op.shape != (dims.dim_a, dims.dim_a):
        raise DimensionMismatchError(
            f"operator shape {op.shape} does not match mode-a dimension {dims.dim_a}"
        )
    return np.kron(op, np.eye(dims.dim_b, dtype=complex))


def embed_mode_b(op: np.ndarray, dims: ModeDims) -> np.ndarray:
    """Lift a single-mode operator on mode b to the joint space: I_a (x) op."""
    if op.shape != (dims.dim_b, dims.dim_b):
        raise DimensionMismatchError(
            f"operator shape {op.shape} does not match mode-b dimension {dims.dim_b}"
        )
    return np.kron(np.eye(dims.dim_a, dtype=complex), op)


def joint_index(m: int, n: int, dims: ModeDims) -> int:
    """Index of |m>_a |n>_b in the joint basis."""
    if not (0 <= m < dims.dim_a and 0 <= n < dims.dim_b):
        raise IndexError(f"occupation ({m}, {n}) outside cutoffs {dims}")
    return m * dims.dim_b + n


def basis_state(m: int, n: int, dims: ModeDims) -> np.ndarray:
    """Unit vector for the joint Fock state |m>_a |n>_b."""
    psi = np.zeros(dims.joint, dtype=complex)
    psi[joint_index(m, n, dims)] = 1.0
    return psi
