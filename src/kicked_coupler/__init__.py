"""Kicked nonlinear coupler: two Kerr modes driven by periodic ultra-short
pulses, evolving as an effective qubit-qubit system that repeatedly visits
maximally entangled Bell states."""

from .analytic import (
    calibrate_sampling,
    kick_frequencies,
    truncated_amplitudes,
    truncated_map_states,
)
from .entanglement import (
    QubitObservables,
    annotate_trajectory,
    bell_fidelities,
    bell_states,
    concurrence,
    concurrence_pure,
    density_from_pure,
)
from .hamiltonians import ModeDims, SystemParams, build_coupler_hamiltonian, joint_index
from .numerics import ContractViolationError
from .propagation import DEFAULT_ORDERING, Ordering, evolve, evolve_blocks

__all__ = [
    "ContractViolationError",
    "DEFAULT_ORDERING",
    "ModeDims",
    "Ordering",
    "QubitObservables",
    "SystemParams",
    "annotate_trajectory",
    "bell_fidelities",
    "bell_states",
    "build_coupler_hamiltonian",
    "calibrate_sampling",
    "concurrence",
    "concurrence_pure",
    "density_from_pure",
    "evolve",
    "evolve_blocks",
    "joint_index",
    "kick_frequencies",
    "truncated_amplitudes",
    "truncated_map_states",
]

__version__ = "0.3.0"
