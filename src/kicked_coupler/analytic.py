"""Closed-form four-state amplitudes of the kicked coupler.

For weak driving the dynamics stays inside the four states |00>, |01>,
|10>, |11> and admits closed-form amplitudes after k pulses, built from
three frequencies (Omega, Omega1, Omega2).  The formulas are exact for
the effective four-level dynamics with the pulse train replaced by its
zero-frequency component; against the discrete four-level kicked map
(truncated_map_states, which is propagation.evolve at cutoffs (2, 2)) they
agree to the stated tolerance under mid-pulse sampling (see
calibrate_sampling).
"""

import cmath
import math
from dataclasses import replace

import numpy as np

from .hamiltonians import ModeDims, SystemParams
from .numerics import ContractViolationError, check_phase_roundoff
from .propagation import Ordering, evolve

# Largest allowed |P00 + P01 + P10 + P11 - 1| of the closed forms, a safety
# check: at every input tried the defect is roundoff (below 1e-15 over 2000
# kicks at the reference point, at epsilon = 0 and at |alpha| << |epsilon T|).
CLOSED_FORM_NORM_TOL = 1e-6
# Kicks over which calibrate_sampling compares the orderings.
CALIBRATION_KICKS = 50

_SQRT2 = np.sqrt(2.0)


def kick_frequencies(params: SystemParams) -> tuple[float, float, float]:
    """The three frequencies (omega, omega1, omega2) at |epsilon|, |alpha|.

    omega  = sqrt(eps^2 T^2 + 4 alpha^2)
    omega1 = sqrt(eps^2 T^2 + 2 alpha^2 + eps T omega)
    omega2 = sqrt(eps^2 T^2 + 2 alpha^2 - eps T omega) = 2 alpha^2 / omega1

    omega2 is taken in its second form, since omega1 omega2 = 2 alpha^2:
    the first cancels all its digits once alpha^2 << eps^2 T^2.  It is 0
    where omega1 is, which needs alpha^2 to underflow too.

    Raises ContractViolationError if a frequency is not finite, which
    happens when |epsilon T| or |alpha| is so large that a square or a sum
    of squares overflows.
    """
    eps_t = np.float64(abs(params.epsilon) * params.T)
    alpha = np.float64(abs(params.alpha))
    # an overflowed square gives inf, and inf / inf in omega2 NaN
    with np.errstate(over="ignore", invalid="ignore"):
        omega = np.sqrt(eps_t**2 + 4 * alpha**2)
        omega1 = np.sqrt(eps_t**2 + 2 * alpha**2 + eps_t * omega)
        omega2 = 2 * alpha**2 / omega1 if omega1 else 0.0
    if not all(map(math.isfinite, (omega, omega1, omega2))):
        raise ContractViolationError(
            f"kick frequencies are not finite at |epsilon T| = {eps_t:g}, "
            f"|alpha| = {alpha:g}"
        )
    return float(omega), float(omega1), float(omega2)


def truncated_amplitudes(n_kicks: int, params: SystemParams) -> np.ndarray:
    """Four-state amplitudes after 0..n_kicks pulses, starting from the vacuum.

    Returns an (n_kicks + 1, 4) complex array, row k in basis order
    (|00>, |01>, |10>, |11>).  No term of the formulas divides by eps T or
    by alpha, so one form holds at every epsilon: at epsilon = 0 mode b
    stays in vacuum and mode a Rabi-oscillates between |0> and |1> with
    angle k |alpha|.  Where omega underflows to 0 the rows are the vacuum.

    Raises ContractViolationError when a frequency or an amplitude is not
    finite, when the phases keep no significant digit, or when the
    probabilities of a row sum to 1 only within more than
    CLOSED_FORM_NORM_TOL.
    """
    if n_kicks < 0:
        raise ValueError(f"kick count must be nonnegative, got {n_kicks}")
    return amplitude_rows(0, n_kicks + 1, params)


def amplitude_rows(start: int, stop: int, params: SystemParams) -> np.ndarray:
    """Rows k = start..stop-1 of truncated_amplitudes, with its contracts
    checked on them.  Every entry depends on its own k only, so any split
    of a k range, such as propagation.kick_blocks, gives the same bits.

    The formulas hold at |alpha| and |epsilon|.  The gauge a -> a e^{i theta},
    b -> b e^{i phi}, with theta = arg alpha and phi = theta - arg epsilon,
    takes H and G to those magnitudes, so column |mn> carries the phase
    e^{i (m theta + n phi)}.  Positive real inputs give factors of exactly
    1 + 0j, so their rows keep their values."""
    ks = np.arange(float(start), float(stop))
    eps_t = abs(params.epsilon) * params.T
    alpha = abs(params.alpha)
    om, om1, om2 = kick_frequencies(params)
    # omega2 <= omega1: the largest phase is k * omega1 / sqrt2 at the last k
    check_phase_roundoff((stop - 1) * om1 / _SQRT2, f"{stop - 1} * omega1 / sqrt2")
    amps = np.zeros((len(ks), 4), dtype=complex)
    # no drive: the formulas hit 0/0, and the rows are the vacuum
    if om == 0.0:
        amps[:, 0] = 1.0
    else:
        # an overflow or 0 * inf gives a non-finite entry, which the finiteness
        # contract below reports
        with np.errstate(over="ignore", invalid="ignore"):
            phase1, phase2 = ks * om1 / _SQRT2, ks * om2 / _SQRT2
            cos1, sin1 = np.cos(phase1), np.sin(phase1)
            cos2, sin2 = np.cos(phase2), np.sin(phase2)

            amps[:, 0] = ((om - eps_t) * cos1 + (om + eps_t) * cos2) / (2 * om)
            amps[:, 1] = (alpha / om) * (cos1 - cos2)
            amps[:, 2] = (-1j * alpha / (_SQRT2 * om)) * (
                (eps_t + om) / om1 * sin1 + 2 * om1 / (eps_t + om) * sin2
            )
            amps[:, 3] = (1j / (_SQRT2 * om)) * (om1 * sin2 - om2 * sin1)
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
    theta = cmath.phase(complex(params.alpha))
    # at epsilon = 0 mode b is not coupled, and its columns |01> and |11> are
    # 0 to roundoff, so phi is moot there
    phi = theta - cmath.phase(complex(params.epsilon))
    amps *= np.exp(1j * np.array([0.0, phi, theta, theta + phi]))
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
