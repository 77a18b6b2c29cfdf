"""Closed-form four-state amplitudes of the kicked coupler.

For weak driving the dynamics stays inside the four states |00>, |01>,
|10>, |11> and admits closed-form amplitudes after k pulses, built from
three frequencies (Omega, Omega1, Omega2).  The formulas are exact for
the effective four-level dynamics with the pulse train replaced by its
zero-frequency component; against the discrete four-level kicked map
(truncated_map_states, which is propagation.evolve at cutoffs (2, 2)) they
agree to the stated tolerance under mid-pulse sampling (see
calibrate_sampling).

The formulas treat the coupling and drive strengths as real; complex
inputs are mapped to their magnitudes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolationError, SingularCouplingError
from .fock import ModeDims
from .hamiltonians import SystemParams
from .propagation import Ordering, evolve

SINGULAR_COUPLING_THRESHOLD = 1e-12

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class KickFrequencies:
    """The three frequencies governing the four-state amplitudes.

    omega  = sqrt(eps^2 T^2 + 4 alpha^2)
    omega1 = sqrt(eps^2 T^2 + 2 alpha^2 + eps T omega)
    omega2 = sqrt(eps^2 T^2 + 2 alpha^2 - eps T omega)

    The radicand of omega2 equals (eps^2 T^2 + 2 alpha^2)^2 - eps^2 T^2 omega^2
    = 4 alpha^4 >= 0 after squaring, so omega2 is always real.
    """

    omega: float
    omega1: float
    omega2: float


@dataclass(frozen=True)
class TruncatedState:
    """Amplitudes on the four-state (two-qubit) subspace."""

    c00: complex
    c01: complex
    c10: complex
    c11: complex

    def as_array(self) -> np.ndarray:
        """Amplitudes in basis order (|00>, |01>, |10>, |11>)."""
        return np.array([self.c00, self.c01, self.c10, self.c11], dtype=complex)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.as_array()) ** 2

    def norm(self) -> float:
        return float(np.linalg.norm(self.as_array()))

    @classmethod
    def from_array(cls, amps: np.ndarray) -> "TruncatedState":
        c00, c01, c10, c11 = (complex(x) for x in np.asarray(amps).ravel())
        return cls(c00, c01, c10, c11)


def kick_frequencies(params: SystemParams) -> KickFrequencies:
    """Evaluate the three characteristic frequencies at |epsilon|, |alpha|.

    Raises ContractViolationError if a frequency is not finite, which
    happens when |epsilon T| or |alpha| is so large that its square
    overflows.
    """
    eps_t = abs(params.epsilon) * params.T
    alpha = abs(params.alpha)
    try:
        omega = np.sqrt(eps_t**2 + 4 * alpha**2)
        omega1 = np.sqrt(eps_t**2 + 2 * alpha**2 + eps_t * omega)
        # radicand equals 4 alpha^4 / (eps_t^2 + 2 alpha^2 + eps_t * omega) >= 0;
        # clip to guard against roundoff at alpha = 0
        omega2 = np.sqrt(max(eps_t**2 + 2 * alpha**2 - eps_t * omega, 0.0))
    except OverflowError:  # Python float ** overflows by raising
        omega = omega1 = omega2 = np.inf
    if not all(map(math.isfinite, (omega, omega1, omega2))):
        raise ContractViolationError(
            f"kick frequencies are not finite at |epsilon T| = {eps_t:g}, "
            f"|alpha| = {alpha:g}"
        )
    return KickFrequencies(omega=float(omega), omega1=float(omega1), omega2=float(omega2))


def truncated_amplitudes(k: int, params: SystemParams) -> TruncatedState:
    """Four-state amplitudes after k pulses, starting from the vacuum.

    Raises SingularCouplingError when |epsilon T| is below the threshold at
    which the 1/(eps T) prefactors lose all precision; callers should use
    uncoupled_amplitudes in that regime.  Raises ContractViolationError
    when the frequencies or the amplitudes are not finite.
    """
    if k < 0:
        raise ValueError(f"kick count must be nonnegative, got {k}")
    eps_t = abs(params.epsilon) * params.T
    alpha = abs(params.alpha)
    if eps_t <= SINGULAR_COUPLING_THRESHOLD:
        raise SingularCouplingError(
            f"|epsilon*T| = {eps_t:.3e} is below {SINGULAR_COUPLING_THRESHOLD:g}; "
            "use uncoupled_amplitudes for the uncoupled regime"
        )
    if alpha < 1e-300:
        # no drive: the vacuum is stationary (the formulas hit 0/0 here)
        return TruncatedState(1.0 + 0j, 0j, 0j, 0j)
    fr = kick_frequencies(params)
    om, om1, om2 = fr.omega, fr.omega1, fr.omega2
    cos1 = np.cos(k * om1 / _SQRT2)
    cos2 = np.cos(k * om2 / _SQRT2)
    sin1 = np.sin(k * om1 / _SQRT2)
    sin2 = np.sin(k * om2 / _SQRT2)

    c00 = ((2 * alpha**2 - om2**2) * cos1 - (2 * alpha**2 - om1**2) * cos2) / (
        2 * eps_t * om
    )
    c01 = (alpha / om) * (cos1 - cos2)
    c10 = (1j * alpha / (_SQRT2 * eps_t * om * om1 * om2)) * (
        (om2**2 - 2 * (eps_t**2 + alpha**2)) * om2 * sin1
        + eps_t * (eps_t - om) * om1 * sin2
    )
    c11 = (1j * _SQRT2 * alpha**2 / om) * (sin2 / om2 - sin1 / om1)
    amps = (complex(c00), complex(c01), complex(c10), complex(c11))
    if not all(map(cmath.isfinite, amps)):
        raise ContractViolationError(
            f"closed-form amplitudes are not finite at k = {k}, "
            f"|epsilon T| = {eps_t:g}, |alpha| = {alpha:g}"
        )
    return TruncatedState(*amps)


def uncoupled_amplitudes(k: int, alpha: float) -> TruncatedState:
    """Amplitudes for zero inter-mode coupling: mode b stays in vacuum and
    mode a Rabi-oscillates between |0> and |1> with angle k*alpha."""
    if k < 0:
        raise ValueError(f"kick count must be nonnegative, got {k}")
    alpha = abs(alpha)
    return TruncatedState(
        c00=complex(np.cos(k * alpha)),
        c01=0j,
        c10=-1j * np.sin(k * alpha),
        c11=0j,
    )


def truncated_map_states(
    n_kicks: int,
    params: SystemParams,
    ordering: Ordering = Ordering.MID_PULSE,
) -> np.ndarray:
    """Numerically exact four-level kicked map, the independent reference for
    the closed-form amplitudes.

    This is `evolve` on 2x2-per-mode cutoffs.  Returns an (n_kicks + 1, 4)
    array of amplitudes, row k being the state after k periods under the
    requested ordering.
    """
    return evolve(replace(params, dims=ModeDims(2, 2)), n_kicks, ordering=ordering)


def calibrate_sampling(
    params: SystemParams, n_kicks: int = 50
) -> tuple[Ordering, dict[Ordering, float]]:
    """Pick the sampling convention that best matches the closed forms.

    Compares the four-level map under every ordering against
    truncated_amplitudes over k <= n_kicks and returns the winner together
    with the per-convention maximal amplitude deviation.
    """
    analytic = np.array(
        [truncated_amplitudes(k, params).as_array() for k in range(n_kicks + 1)]
    )
    deviations: dict[Ordering, float] = {}
    for ordering in Ordering:
        numeric = truncated_map_states(n_kicks, params, ordering)
        deviations[ordering] = float(np.max(np.abs(numeric - analytic)))
    best = min(deviations, key=deviations.get)
    return best, deviations
