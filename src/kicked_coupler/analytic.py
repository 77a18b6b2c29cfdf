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

import math
from dataclasses import replace

import numpy as np

from .errors import ContractViolationError
from .fock import ModeDims
from .hamiltonians import SystemParams
from .numerics import check_phase_roundoff
from .propagation import Ordering, evolve

SINGULAR_COUPLING_THRESHOLD = 1e-12
# Largest allowed |P00 + P01 + P10 + P11 - 1| of the closed forms.  Where
# they are valid the defect is roundoff (2e-15 at the reference point, 8e-9
# at epsilon = 1e-9); past it they are finite but wrong.
CLOSED_FORM_NORM_TOL = 1e-6
# Kicks over which calibrate_sampling compares the orderings.
CALIBRATION_KICKS = 50

_SQRT2 = np.sqrt(2.0)


def kick_frequencies(params: SystemParams) -> tuple[float, float, float]:
    """The three frequencies (omega, omega1, omega2) at |epsilon|, |alpha|.

    omega  = sqrt(eps^2 T^2 + 4 alpha^2)
    omega1 = sqrt(eps^2 T^2 + 2 alpha^2 + eps T omega)
    omega2 = sqrt(eps^2 T^2 + 2 alpha^2 - eps T omega)

    The radicand of omega2 equals (eps^2 T^2 + 2 alpha^2)^2 - eps^2 T^2 omega^2
    = 4 alpha^4 >= 0 after squaring, so omega2 is always real.

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
    return float(omega), float(omega1), float(omega2)


def uses_uncoupled_forms(params: SystemParams) -> bool:
    """Whether the closed forms use the uncoupled amplitudes at params."""
    return abs(params.epsilon) * params.T <= SINGULAR_COUPLING_THRESHOLD


def truncated_amplitudes(n_kicks: int, params: SystemParams) -> np.ndarray:
    """Four-state amplitudes after 0..n_kicks pulses, starting from the vacuum.

    Returns an (n_kicks + 1, 4) complex array, row k in basis order
    (|00>, |01>, |10>, |11>).  When |epsilon T| is at most
    SINGULAR_COUPLING_THRESHOLD, where the 1/(eps T) prefactors lose all
    precision, the uncoupled amplitudes are returned: mode b stays in vacuum
    and mode a Rabi-oscillates between |0> and |1> with angle k |alpha|.
    With no drive the vacuum is stationary.

    Raises ContractViolationError when a frequency or an amplitude is not
    finite, when omega2 cancels to 0 at nonzero drive, or when the
    probabilities of a row sum to 1 only within more than
    CLOSED_FORM_NORM_TOL.
    """
    if n_kicks < 0:
        raise ValueError(f"kick count must be nonnegative, got {n_kicks}")
    return amplitude_rows(0, n_kicks + 1, params)


def amplitude_rows(start: int, stop: int, params: SystemParams) -> np.ndarray:
    """Rows k = start..stop-1 of truncated_amplitudes, with its contracts
    checked on them.  Every entry depends on its own k only, so any split
    of a k range, such as propagation.kick_blocks, gives the same bits."""
    ks = np.arange(float(start), float(stop))
    eps_t = abs(params.epsilon) * params.T
    alpha = abs(params.alpha)
    amps = np.zeros((len(ks), 4), dtype=complex)
    if uses_uncoupled_forms(params):
        check_phase_roundoff((stop - 1) * alpha, f"{stop - 1} * |alpha|")
        amps[:, 0] = np.cos(ks * alpha)
        amps[:, 2] = -1j * np.sin(ks * alpha)
        return amps
    if alpha < 1e-300:
        # no drive: the vacuum is stationary (the formulas hit 0/0 here)
        amps[:, 0] = 1.0
        return amps
    om, om1, om2 = kick_frequencies(params)
    if om2 <= 0.0:
        raise ContractViolationError(
            f"omega2 cancels to 0 at |epsilon T| = {eps_t:g}, |alpha| = {alpha:g}"
        )
    # omega2 <= omega1: the largest phase is k * omega1 / sqrt2 at the last k
    check_phase_roundoff((stop - 1) * om1 / _SQRT2, f"{stop - 1} * omega1 / sqrt2")
    # an overflow or 0 * inf gives a non-finite entry, which the finiteness
    # contract below reports
    with np.errstate(over="ignore", invalid="ignore"):
        cos1 = np.cos(ks * om1 / _SQRT2)
        cos2 = np.cos(ks * om2 / _SQRT2)
        sin1 = np.sin(ks * om1 / _SQRT2)
        sin2 = np.sin(ks * om2 / _SQRT2)

        amps[:, 0] = (
            (2 * alpha**2 - om2**2) * cos1 - (2 * alpha**2 - om1**2) * cos2
        ) / (2 * eps_t * om)
        amps[:, 1] = (alpha / om) * (cos1 - cos2)
        amps[:, 2] = (1j * alpha / (_SQRT2 * eps_t * om * om1 * om2)) * (
            (om2**2 - 2 * (eps_t**2 + alpha**2)) * om2 * sin1
            + eps_t * (eps_t - om) * om1 * sin2
        )
        amps[:, 3] = (1j * _SQRT2 * alpha**2 / om) * (sin2 / om2 - sin1 / om1)
    finite = np.isfinite(amps).all(axis=1)
    if not finite.all():
        raise ContractViolationError(
            "closed-form amplitudes are not finite at "
            f"k = {start + np.argmin(finite)}, "
            f"|epsilon T| = {eps_t:g}, |alpha| = {alpha:g}"
        )
    defect = np.abs((np.abs(amps) ** 2).sum(axis=1) - 1.0)
    if defect.max() > CLOSED_FORM_NORM_TOL:
        raise ContractViolationError(
            f"closed-form probabilities sum to 1 only within {defect.max():.3e} "
            f"(tolerance {CLOSED_FORM_NORM_TOL:g}) at k = {start + np.argmax(defect)}, "
            f"|epsilon T| = {eps_t:g}, |alpha| = {alpha:g}"
        )
    return amps


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


def calibrate_sampling(params: SystemParams) -> tuple[Ordering, dict[Ordering, float]]:
    """Pick the sampling convention that best matches the closed forms.

    Compares the four-level map under every ordering against
    truncated_amplitudes over k <= CALIBRATION_KICKS and returns the winner
    together with the per-convention maximal amplitude deviation.
    """
    analytic = truncated_amplitudes(CALIBRATION_KICKS, params)
    deviations: dict[Ordering, float] = {}
    for ordering in Ordering:
        numeric = truncated_map_states(CALIBRATION_KICKS, params, ordering)
        deviations[ordering] = float(np.max(np.abs(numeric - analytic)))
    best = min(deviations, key=deviations.get)
    return best, deviations
