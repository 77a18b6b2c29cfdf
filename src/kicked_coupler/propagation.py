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
from enum import Enum

import numpy as np

from . import numerics
from .errors import ContractViolationError
from .fock import ModeDims, basis_state
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
    # freed when eigh returns, before the product allocates its arrays.  An
    # entry that overflows is reported by the decomposition's finiteness
    # contract, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        spectrum = numerics.hermitian_eigendecomposition(build(params))
    return numerics.unitary_from_spectrum(*spectrum, t)


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


def evolve_blocks(
    params: SystemParams,
    n_kicks: int,
    ordering: Ordering = DEFAULT_ORDERING,
    cache: dict | None = None,
) -> Iterator[np.ndarray]:
    """The trajectory of `evolve`, as consecutive blocks of rows.

    The arguments are checked and the step operators built when this is
    called.  The returned iterator yields the rows of each kick_blocks
    range, so a consumer that handles one block at a time holds
    O(BLOCK_KICKS * D) states whatever n_kicks is.  Each row is computed
    from the row before it through the same products in the same order as
    in `evolve`, so the concatenated blocks equal its array bit for bit.

    ``cache``, a dict the caller owns, keeps each step unitary across the
    calls that share it until a parameter its generator reads
    (UNITARY_INPUTS) changes: a scan reuses the one its parameter skips.

    The norm contract is checked against row 0 once the last block is
    filled, before it is yielded: ContractViolationError is raised in place
    of the last block, so a consumer that stops after it cannot skip the
    check.
    """
    if n_kicks < 0:
        raise ValueError(f"n_kicks must be nonnegative, got {n_kicks}")
    factors = _period_factors(params, ordering, {} if cache is None else cache)
    return _blocks(params.dims, n_kicks, factors)


def kick_blocks(n_kicks: int) -> Iterator[tuple[int, int]]:
    """The (start, stop) row range of each block of an n_kicks trajectory:
    BLOCK_KICKS rows each, the last one possibly shorter.  Every mode cuts
    its rows, full-basis or closed-form, at these ranges."""
    n_rows = n_kicks + 1
    for start in range(0, n_rows, BLOCK_KICKS):
        yield start, min(start + BLOCK_KICKS, n_rows)


def _blocks(
    dims: ModeDims, n_kicks: int, factors: tuple[np.ndarray, ...]
) -> Iterator[np.ndarray]:
    psi = basis_state(0, 0, dims)
    initial_norm = np.vdot(psi, psi).real
    for start, stop in kick_blocks(n_kicks):
        block = np.empty((stop - start, psi.size), dtype=complex)
        # row 0 of the trajectory is the vacuum itself
        first = 0 if start else 1
        block[:first] = psi
        for k in range(first, len(block)):
            for u in factors:
                psi = u @ psi
            block[k] = psi
        if stop == n_kicks + 1:
            final_norm = np.vdot(psi, psi).real
            # written so that a NaN norm fails too
            if not abs(final_norm - initial_norm) <= NORM_RTOL * initial_norm:
                raise ContractViolationError(
                    f"squared norm drifted from {initial_norm:.17g} to "
                    f"{final_norm:.17g} over {n_kicks} periods "
                    f"(relative tolerance {NORM_RTOL:g})"
                )
        yield block


def evolve(
    params: SystemParams, n_kicks: int, ordering: Ordering = DEFAULT_ORDERING
) -> np.ndarray:
    """Iterate the stroboscopic map from the two-mode vacuum and record the
    state after every period.

    Returns an (n_kicks + 1, D) complex array whose row k is the state after
    k applications of the one-period map under the given ordering; row 0
    is the vacuum |0, 0>.  The rows are collected from `evolve_blocks`; a
    caller that needs one block at a time should iterate that instead.

    Raises ContractViolationError if the squared norm of the last state
    differs from that of the first by more than NORM_RTOL, relative.
    """
    blocks = evolve_blocks(params, n_kicks, ordering)
    # the operators are built before the trajectory is allocated, so their
    # construction temporaries are freed before the largest array exists
    states = np.empty((n_kicks + 1, params.dims.joint), dtype=complex)
    start = 0
    for block in blocks:
        states[start : start + len(block)] = block
        start += len(block)
    return states
