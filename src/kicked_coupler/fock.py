"""The truncated two-mode Fock basis.

The joint basis of the two modes is ordered mode-a major: the state
|m>_a |n>_b sits at index ``I = m * dim_b + n``.  That single convention is
used everywhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
