"""Stroboscopic propagation of the kicked coupler.

One drive period combines the single-pulse kick unitary U_K = exp(-i G)
with the free-evolution unitary U_NL = exp(-i H_NL T).  Where the state is
recorded within a period is an explicit choice (`Ordering`): after the
kick and the free flight in either order, or halfway through each pulse
(half kick - free flight - half kick), the convention under which the
closed-form four-state amplitudes are reproduced most accurately (see
analytic.calibrate_sampling).  `evolve` is the one map loop for all three.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ContractViolationError, DimensionMismatchError
from .hamiltonians import SystemParams, build_coupler_hamiltonian, build_kick_generator
from .numerics import unitary_from_generator


class Ordering(Enum):
    """Where within one drive period the state is recorded."""

    KICK_THEN_FREE = "kick_then_free"
    FREE_THEN_KICK = "free_then_kick"
    MID_PULSE = "mid_pulse"


DEFAULT_ORDERING = Ordering.FREE_THEN_KICK

# The step unitaries are exact to eigensolver accuracy; the norm drifts by
# about 1e-13 over 10 000 periods at D = 225.
NORM_RTOL = 1e-9


@dataclass(frozen=True)
class StepOperators:
    """The two unitaries of one drive period.

    u_free : exp(-i H_NL T), free evolution between pulses.
    u_kick : exp(-i G), the integrated effect of one ultra-short pulse.
    """

    u_free: np.ndarray
    u_kick: np.ndarray


# The parameters each step unitary's generator reads.  A cached unitary is
# reused while these are unchanged; every other field of SystemParams must
# leave its generator untouched.
UNITARY_INPUTS = {
    "free": ("chi_a", "chi_b", "epsilon", "T", "dims"),
    "kick": ("alpha", "dims"),
    "half": ("alpha", "dims"),
}


def _build_unitary(kind: str, params: SystemParams) -> np.ndarray:
    """exp(-i H_NL T) for "free", exp(-i G) for "kick", exp(-i G / 2) for
    "half"."""
    if kind == "free":
        return unitary_from_generator(build_coupler_hamiltonian(params), params.T)
    return unitary_from_generator(
        build_kick_generator(params), 1.0 if kind == "kick" else 0.5
    )


def _step_unitary(kind: str, params: SystemParams, cache: dict) -> np.ndarray:
    """The unitary of the given kind, taken from the cache while the
    parameters its generator reads are unchanged."""
    key = tuple(getattr(params, name) for name in UNITARY_INPUTS[kind])
    if kind in cache and cache[kind][0] == key:
        return cache[kind][1]
    # drop the stale unitary first, so at most one per kind is alive
    cache.pop(kind, None)
    u = _build_unitary(kind, params)
    cache[kind] = (key, u)
    return u


def build_step_operators(params: SystemParams) -> StepOperators:
    """Construct U_NL and U_K for the given parameters."""
    return StepOperators(
        u_free=_build_unitary("free", params), u_kick=_build_unitary("kick", params)
    )


def build_half_kick(params: SystemParams) -> np.ndarray:
    """exp(-i G / 2), half of a pulse; used for mid-pulse sampling."""
    return _build_unitary("half", params)


def _period_factors(
    params: SystemParams, ordering: Ordering, cache: dict
) -> tuple[np.ndarray, ...]:
    """The matrices one period applies to the state, first factor first."""
    u_free = _step_unitary("free", params, cache)
    if ordering is Ordering.MID_PULSE:
        u_half = _step_unitary("half", params, cache)
        return (u_half @ u_free @ u_half,)
    u_kick = _step_unitary("kick", params, cache)
    if ordering is Ordering.KICK_THEN_FREE:
        return (u_kick, u_free)
    return (u_free, u_kick)


def vacuum_state(params: SystemParams) -> np.ndarray:
    """|0>_a |0>_b on the joint basis."""
    psi = np.zeros(params.dims.joint, dtype=complex)
    psi[0] = 1.0
    return psi


def _check_initial(params: SystemParams, initial: np.ndarray | None) -> np.ndarray:
    if initial is None:
        return vacuum_state(params)
    initial = np.asarray(initial, dtype=complex)
    if initial.shape != (params.dims.joint,):
        raise DimensionMismatchError(
            f"initial state has shape {initial.shape}, expected ({params.dims.joint},)"
        )
    return initial


def evolve(
    params: SystemParams,
    n_kicks: int,
    initial: np.ndarray | None = None,
    ordering: Ordering = DEFAULT_ORDERING,
    cache: dict | None = None,
) -> np.ndarray:
    """Iterate the stroboscopic map and record the state after every period.

    Returns an (n_kicks + 1, D) complex array whose row k is the state after
    k applications of the one-period map under the given ordering.  The
    default initial state is the two-mode vacuum.

    ``cache`` is an optional dict owned by the caller.  Across calls that
    share it, each step unitary is rebuilt only when a parameter its
    generator reads (UNITARY_INPUTS) has changed; a parameter scan thus
    reuses the unitary its parameter does not enter.

    Raises ContractViolationError if the squared norm of the last state
    differs from that of the first by more than NORM_RTOL, relative.
    """
    if n_kicks < 0:
        raise ValueError(f"n_kicks must be nonnegative, got {n_kicks}")
    psi = _check_initial(params, initial)
    # the operators are built before the trajectory is allocated, so their
    # construction temporaries are freed before the largest array exists
    factors = _period_factors(params, ordering, {} if cache is None else cache)
    states = np.empty((n_kicks + 1, psi.size), dtype=complex)
    states[0] = psi
    for k in range(1, n_kicks + 1):
        psi = states[k - 1]
        for u in factors:
            psi = u @ psi
        states[k] = psi
    initial_norm = np.vdot(states[0], states[0]).real
    final_norm = np.vdot(states[-1], states[-1]).real
    if abs(final_norm - initial_norm) > NORM_RTOL * initial_norm:
        raise ContractViolationError(
            f"squared norm drifted from {initial_norm:.17g} to {final_norm:.17g} "
            f"over {n_kicks} periods (relative tolerance {NORM_RTOL:g})"
        )
    return states
