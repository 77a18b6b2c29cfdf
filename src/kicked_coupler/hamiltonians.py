"""Kerr-coupler Hamiltonian and the per-pulse kick generator.

Units: hbar = 1 and energies are measured in units of the Kerr constant,
so the defaults use chi_a = chi_b = 1.  The default driving parameters
(alpha = 1/25, epsilon = 1/100, T = 1) put the system deep in the
quantum-scissors regime where only the lowest two levels of each mode
take part in the dynamics.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .fock import ModeDims, annihilation_op, embed_mode_a, embed_mode_b, number_op


@dataclass(frozen=True)
class SystemParams:
    """All physical parameters of the kicked coupler plus the Fock cutoffs.

    chi_a, chi_b : Kerr nonlinearities of the two modes.
    epsilon      : internal linear coupling strength (may be complex).
    alpha        : kick strength of the external drive on mode a (may be complex).
    T            : time between two subsequent pulses, T > 0.
    dims         : Fock-space truncation per mode.
    """

    chi_a: float = 1.0
    chi_b: float = 1.0
    epsilon: complex = 0.01
    alpha: complex = 0.04
    T: float = 1.0
    dims: ModeDims = field(default_factory=lambda: ModeDims(15, 15))

    def __post_init__(self) -> None:
        for name in ("chi_a", "chi_b", "epsilon", "alpha", "T"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.T <= 0:
            raise ValueError(f"pulse period T must be positive, got {self.T}")


def build_coupler_hamiltonian(params: SystemParams) -> np.ndarray:
    """Free Hamiltonian of the coupler on the joint basis.

    H = (chi_a/2) a+^2 a^2 + (chi_b/2) b+^2 b^2 + eps a+ b + eps* a b+

    The Kerr terms vanish on all 0- and 1-photon states, so the four
    qubit basis states are coupled only through the epsilon terms.
    """
    dims = params.dims
    a = embed_mode_a(annihilation_op(dims.dim_a), dims)
    b = embed_mode_b(annihilation_op(dims.dim_b), dims)
    ad, bd = a.conj().T, b.conj().T
    eps = complex(params.epsilon)
    h = 0.5 * params.chi_a * (ad @ ad @ a @ a)
    h += 0.5 * params.chi_b * (bd @ bd @ b @ b)
    h += eps * (ad @ b) + np.conj(eps) * (a @ bd)
    return h


def build_kick_generator(params: SystemParams) -> np.ndarray:
    """Hermitian generator of a single ultra-short pulse on mode a.

    G = alpha a+ + alpha* a, lifted to the joint basis.  One pulse of the
    periodic drive acts as exp(-i G); the delta-shaped pulse train is
    realized by applying that unitary once per period.
    """
    dims = params.dims
    a = embed_mode_a(annihilation_op(dims.dim_a), dims)
    alpha = complex(params.alpha)
    return alpha * a.conj().T + np.conj(alpha) * a


def total_number_op(dims: ModeDims) -> np.ndarray:
    """Total photon number N_a + N_b on the joint basis."""
    return embed_mode_a(number_op(dims.dim_a), dims) + embed_mode_b(
        number_op(dims.dim_b), dims
    )
