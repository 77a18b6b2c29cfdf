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

from .errors import DimensionMismatchError
from .hamiltonians import SystemParams, build_coupler_hamiltonian, build_kick_generator
from .numerics import unitary_from_generator


class Ordering(Enum):
    """Where within one drive period the state is recorded."""

    KICK_THEN_FREE = "kick_then_free"
    FREE_THEN_KICK = "free_then_kick"
    MID_PULSE = "mid_pulse"


DEFAULT_ORDERING = Ordering.FREE_THEN_KICK


@dataclass(frozen=True)
class StepOperators:
    """The two unitaries of one drive period.

    u_free : exp(-i H_NL T), free evolution between pulses.
    u_kick : exp(-i G), the integrated effect of one ultra-short pulse.
    """

    u_free: np.ndarray
    u_kick: np.ndarray


def build_step_operators(params: SystemParams) -> StepOperators:
    """Construct U_NL and U_K for the given parameters."""
    u_free = unitary_from_generator(build_coupler_hamiltonian(params), params.T)
    u_kick = unitary_from_generator(build_kick_generator(params), 1.0)
    return StepOperators(u_free=u_free, u_kick=u_kick)


def build_half_kick(params: SystemParams) -> np.ndarray:
    """exp(-i G / 2), half of a pulse; used for mid-pulse sampling."""
    return unitary_from_generator(build_kick_generator(params), 0.5)


def _period_factors(params: SystemParams, ordering: Ordering) -> tuple[np.ndarray, ...]:
    """The matrices one period applies to the state, first factor first."""
    if ordering is Ordering.MID_PULSE:
        u_free = unitary_from_generator(build_coupler_hamiltonian(params), params.T)
        u_half = build_half_kick(params)
        return (u_half @ u_free @ u_half,)
    ops = build_step_operators(params)
    if ordering is Ordering.KICK_THEN_FREE:
        return (ops.u_kick, ops.u_free)
    return (ops.u_free, ops.u_kick)


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
) -> np.ndarray:
    """Iterate the stroboscopic map and record the state after every period.

    Returns an (n_kicks + 1, D) complex array whose row k is the state after
    k applications of the one-period map under the given ordering.  The
    default initial state is the two-mode vacuum.
    """
    if n_kicks < 0:
        raise ValueError(f"n_kicks must be nonnegative, got {n_kicks}")
    psi = _check_initial(params, initial)
    # the operators are built before the trajectory is allocated, so their
    # construction temporaries are freed before the largest array exists
    factors = _period_factors(params, ordering)
    states = np.empty((n_kicks + 1, psi.size), dtype=complex)
    states[0] = psi
    for k in range(1, n_kicks + 1):
        psi = states[k - 1]
        for u in factors:
            psi = u @ psi
        states[k] = psi
    return states
