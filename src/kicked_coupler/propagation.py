"""Stroboscopic propagation of the kicked coupler.

One drive period combines the single-pulse kick unitary U_K = exp(-i G)
with the free-evolution unitary U_NL = exp(-i H_NL T).  Where the state is
recorded within a period is an explicit choice (`Ordering`): after the
kick and the free flight in either order, or halfway through each pulse
(half kick - free flight - half kick), the convention under which the
closed-form four-state amplitudes are reproduced most accurately (see
analytic.calibrate_sampling).  `evolve_blocks` is the one map loop for all
three; it yields the trajectory in fixed blocks of rows, and `evolve`
collects them into one array.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import numerics
from .errors import ContractViolationError, DimensionMismatchError
from .hamiltonians import SystemParams, build_coupler_hamiltonian, build_kick_generator


class Ordering(Enum):
    """Where within one drive period the state is recorded."""

    KICK_THEN_FREE = "kick_then_free"
    FREE_THEN_KICK = "free_then_kick"
    MID_PULSE = "mid_pulse"


DEFAULT_ORDERING = Ordering.FREE_THEN_KICK

# The step unitaries are exact to eigensolver accuracy; the norm drifts by
# about 1e-13 over 10 000 periods at D = 225.
NORM_RTOL = 1e-9

# Rows per block of a streamed trajectory (evolve_blocks).  A consumer
# still holds the previous block while the next one is filled, so a run
# holds its step unitaries (at most two) and two blocks.  At D = 225 a
# block of 128 states is 0.46 MB, 0.57 of a D x D complex matrix, so the
# run stays below the four matrices that building a step unitary needs.
BLOCK_KICKS = 128


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
        build, t = build_coupler_hamiltonian, params.T
    else:
        build, t = build_kick_generator, 1.0 if kind == "kick" else 0.5
    # the generator is only an argument of the decomposition, so it is
    # freed when eigh returns, before the product allocates its arrays
    return numerics.unitary_from_spectrum(
        *numerics.hermitian_eigendecomposition(build(params)), t
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


def evolve_blocks(
    params: SystemParams,
    n_kicks: int,
    initial: np.ndarray | None = None,
    ordering: Ordering = DEFAULT_ORDERING,
    cache: dict | None = None,
) -> Iterator[np.ndarray]:
    """The trajectory of `evolve`, as consecutive blocks of rows.

    The arguments are checked and the step operators built when this is
    called.  The returned iterator yields (rows, D) complex arrays of
    BLOCK_KICKS rows each, the last one possibly shorter, so a consumer
    that handles one block at a time holds O(BLOCK_KICKS * D) states
    whatever n_kicks is.  Each row is computed from the row before it
    through the same products in the same order as in `evolve`, so the
    concatenated blocks equal its array bit for bit.

    The norm contract is checked against row 0 after the last block has
    been yielded: ContractViolationError is raised where the iteration
    would end.
    """
    if n_kicks < 0:
        raise ValueError(f"n_kicks must be nonnegative, got {n_kicks}")
    psi = _check_initial(params, initial)
    factors = _period_factors(params, ordering, {} if cache is None else cache)
    return _blocks(psi, n_kicks, factors)


def _blocks(
    initial: np.ndarray, n_kicks: int, factors: tuple[np.ndarray, ...]
) -> Iterator[np.ndarray]:
    n_rows = n_kicks + 1
    psi = np.array(initial)  # a contiguous copy, as row 0 of a trajectory
    initial_norm = np.vdot(psi, psi).real
    for start in range(0, n_rows, BLOCK_KICKS):
        block = np.empty((min(BLOCK_KICKS, n_rows - start), psi.size), dtype=complex)
        # row 0 of the trajectory is the initial state itself
        first = 0 if start else 1
        block[:first] = psi
        for k in range(first, len(block)):
            for u in factors:
                psi = u @ psi
            block[k] = psi
        yield block
    final_norm = np.vdot(psi, psi).real
    # written so that a NaN norm fails too
    if not abs(final_norm - initial_norm) <= NORM_RTOL * initial_norm:
        raise ContractViolationError(
            f"squared norm drifted from {initial_norm:.17g} to {final_norm:.17g} "
            f"over {n_kicks} periods (relative tolerance {NORM_RTOL:g})"
        )


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
    default initial state is the two-mode vacuum.  The rows are collected
    from `evolve_blocks`; a caller that needs one block at a time should
    iterate that instead.

    ``cache`` is an optional dict owned by the caller.  Across calls that
    share it, each step unitary is rebuilt only when a parameter its
    generator reads (UNITARY_INPUTS) has changed; a parameter scan thus
    reuses the unitary its parameter does not enter.

    Raises ContractViolationError if the squared norm of the last state
    differs from that of the first by more than NORM_RTOL, relative.
    """
    blocks = evolve_blocks(params, n_kicks, initial, ordering, cache)
    # the operators are built before the trajectory is allocated, so their
    # construction temporaries are freed before the largest array exists
    states = np.empty((n_kicks + 1, params.dims.joint), dtype=complex)
    start = 0
    for block in blocks:
        states[start : start + len(block)] = block
        start += len(block)
    return states
