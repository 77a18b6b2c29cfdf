"""Stroboscopic propagation of the kicked coupler.

One drive period combines the single-pulse kick unitary U_K = exp(-i G)
with the free-evolution unitary U_NL = exp(-i H_NL T).  Where the state is
recorded within a period is an explicit choice (`Ordering`): after the
kick and the free flight in either order, or halfway through each pulse
(half kick - free flight - half kick), the convention under which the
closed-form four-state amplitudes are reproduced most accurately (see
analytic.calibrate_sampling).  `evolve_blocks` is the one map loop for all
three: one unitary period matrix, one matrix-vector product per kick.  It
yields the trajectory in fixed blocks of rows, and `evolve` collects them.
"""

import dataclasses
import functools
from collections.abc import Iterator
from enum import StrEnum

import numpy as np

from .hamiltonians import (
    ModeDims,
    SystemParams,
    basis_state,
    build_coupler_hamiltonian,
    build_kick_generator,
)
from .numerics import ContractViolationError, unitary_from_generator


class Ordering(StrEnum):
    """Where within one drive period the state is recorded."""

    KICK_THEN_FREE = "kick_then_free"
    FREE_THEN_KICK = "free_then_kick"
    MID_PULSE = "mid_pulse"


DEFAULT_ORDERING = Ordering.FREE_THEN_KICK

# The step unitaries are exact to eigensolver accuracy; the norm drifts by
# about 1e-13 over 10 000 periods at D = 225.
NORM_RTOL = 1e-9

# Rows per block of a streamed trajectory (evolve_blocks).  The loop keeps
# no reference to a block once it is yielded, and every CLI mode drops it
# once its observables are taken, so a run holds its period matrix, the
# step unitaries its caller caches (a scan keeps one) and one block.  At
# D = 225 a block of 384 states is 1.71 D x D complex matrices, and a scan's
# loop holds about 3.94, below the four that building a step unitary needs.
BLOCK_KICKS = 384

# Largest allowed max |P^+ P v - v| of the period matrix P over the unit
# vectors v_j[n] = exp(i j n) / sqrt(D), j = 1..4, which weigh every basis
# state alike (evolve_blocks); criterion 6 bounds U^+ U - I by 1e-10 too.
UNITARITY_TOL = 1e-10


# The parameters each step unitary's generator reads.  A cached unitary is
# reused while these are unchanged; every other field of SystemParams must
# leave its generator untouched.
UNITARY_INPUTS = {
    "free": ("chi_a", "chi_b", "epsilon", "T", "dims"),
    "kick": ("alpha", "dims"),
    "half": ("alpha", "dims"),
}

# The names evolve_blocks takes as ``scanned``; formed once, since a set
# built per call keeps a scan's allocation peak 2 kB higher
_PARAM_FIELDS = frozenset(f.name for f in dataclasses.fields(SystemParams))


def _step_unitary(kind: str, params: SystemParams, cache: dict) -> np.ndarray:
    """exp(-i H_NL T) for "free", exp(-i G) for "kick", exp(-i G / 2) for
    "half", taken from the cache while the parameters its generator reads
    are unchanged."""
    key = tuple(getattr(params, name) for name in UNITARY_INPUTS[kind])
    if kind in cache and cache[kind][0] == key:
        return cache[kind][1]
    # drop the stale unitary first, so at most one per kind is alive
    cache.pop(kind, None)
    if kind == "free":
        build, t = build_coupler_hamiltonian, params.T
    else:
        build, t = build_kick_generator, 1.0 if kind == "kick" else 0.5
    # the generator is only an argument, so it is freed once decomposed,
    # before the product allocates its arrays.  An entry that overflows is
    # reported by the decomposition's finiteness contract, not as a numpy
    # warning
    with np.errstate(over="ignore", invalid="ignore"):
        u = unitary_from_generator(build(params), t)
    cache[kind] = (key, u)
    return u


# The step unitaries one period applies to the state, first applied first
_PERIOD_STEPS = {
    Ordering.KICK_THEN_FREE: ("kick", "free"),
    Ordering.FREE_THEN_KICK: ("free", "kick"),
    Ordering.MID_PULSE: ("half", "free", "half"),
}


def _period_factors(params: SystemParams, ordering: Ordering, cache: dict) -> list:
    """The step unitaries of the _PERIOD_STEPS row that an Ordering or its
    value selects; anything else raises ValueError before one is built."""
    return [_step_unitary(kind, params, cache) for kind in _PERIOD_STEPS[Ordering(ordering)]]


def evolve_blocks(
    params: SystemParams,
    n_kicks: int,
    ordering: Ordering = DEFAULT_ORDERING,
    cache: dict | None = None,
    scanned: str | None = None,
) -> Iterator[tuple[int, np.ndarray]]:
    """The trajectory of `evolve`, as consecutive blocks of rows.

    The arguments are checked and the period matrix, the step unitaries
    multiplied last one leftmost (u_half @ u_free @ u_half for mid-pulse),
    built and probed for unitarity (UNITARITY_TOL) when this is called.  The
    returned iterator yields (start, block) for each kick_blocks range: the
    kick number of the block's first row and the rows of the range.  The
    iterator drops its reference to a block once it is yielded, so a
    consumer that drops each block before asking for the next holds one
    block, BLOCK_KICKS * D states, whatever n_kicks is.  Each row is the
    period matrix times the row before it, as in `evolve`, bit for bit.

    ``cache``, a dict the caller owns, keeps each step unitary across the
    calls that share it until a parameter its generator reads
    (UNITARY_INPUTS) changes: a scan reuses the one its parameter skips.
    ``scanned``, the SystemParams field a scan varies, names the unitaries
    no later point reuses: they leave the cache once the period matrix is
    formed, before the probe and the first block; a name that is not a
    SystemParams field raises ValueError before a generator is built.

    The norm contract is checked against 1, the vacuum's squared norm, once
    the last block is filled, before it is yielded: ContractViolationError
    is raised in place of the last block, so a consumer that stops after it
    cannot skip the check.
    """
    if n_kicks < 0:
        raise ValueError(f"n_kicks must be nonnegative, got {n_kicks}")
    if scanned is not None and scanned not in _PARAM_FIELDS:
        raise ValueError(f"scanned is not a SystemParams field: {scanned!r}")
    cache = {} if cache is None else cache
    period = functools.reduce(np.matmul, reversed(_period_factors(params, ordering, cache)))
    for kind, inputs in UNITARY_INPUTS.items():
        if scanned in inputs:
            cache.pop(kind, None)
    probe = np.exp(1j * np.outer(np.arange(len(period)), np.arange(1, 5))) / len(period) ** 0.5
    # P^+ P v as conj(P^T conj(P v)), without a conjugated copy of P;
    # written so that a NaN defect fails too
    defect = np.max(np.abs(np.conj(period.T @ np.conj(period @ probe)) - probe))
    if not defect <= UNITARITY_TOL:
        raise ContractViolationError(
            f"period matrix is not unitary: max |P^+ P v - v| = {defect:.3e} > {UNITARITY_TOL:g}"
        )
    return _blocks(params.dims, n_kicks, period)


def kick_blocks(n_kicks: int) -> Iterator[tuple[int, int]]:
    """The (start, stop) row range of each block of an n_kicks trajectory:
    BLOCK_KICKS rows each, the last one possibly shorter.  Every mode cuts
    its rows, full-basis or closed-form, at these ranges."""
    n_rows = n_kicks + 1
    for start in range(0, n_rows, BLOCK_KICKS):
        yield start, min(start + BLOCK_KICKS, n_rows)


def _blocks(dims: ModeDims, n_kicks: int, period: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    psi = basis_state(0, 0, dims)
    for start, stop in kick_blocks(n_kicks):
        block = np.empty((stop - start, psi.size), dtype=complex)
        # row 0 of the trajectory is the vacuum itself
        first = 0 if start else 1
        block[:first] = psi
        for k in range(first, len(block)):
            # the BLAS matvec `period @ psi`, straight into the block's row
            psi = np.dot(period, psi, out=block[k])
        # a copy, not a view, so that the next block does not keep this one
        psi = block[-1].copy()
        if stop == n_kicks + 1:
            final_norm = np.vdot(psi, psi).real
            # the vacuum has squared norm 1; written so that a NaN norm fails too
            if not abs(final_norm - 1.0) <= NORM_RTOL:
                raise ContractViolationError(
                    "squared norm drifted from 1 to "
                    f"{final_norm:.17g} over {n_kicks} periods "
                    f"(relative tolerance {NORM_RTOL:g})"
                )
        yield start, block
        del block


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
    differs from that of the vacuum, 1, by more than NORM_RTOL.
    """
    blocks = evolve_blocks(params, n_kicks, ordering)
    # the operators are built before the trajectory is allocated, so their
    # construction temporaries are freed before the largest array exists
    states = np.empty((n_kicks + 1, params.dims.joint), dtype=complex)
    for start, block in blocks:
        states[start : start + len(block)] = block
    return states
