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
    BellState,
    QubitObservables,
    annotate_trajectory,
    bell_fidelities,
    bell_states,
    concurrence,
    concurrence_pure,
    density_from_pure,
    project_to_qubits,
)
from .errors import (
    ConfigError,
    ContractViolationError,
    DegenerateProjectionError,
    DimensionMismatchError,
)
from .fock import (
    ModeDims,
    annihilation_op,
    basis_state,
    creation_op,
    embed_mode_a,
    embed_mode_b,
    joint_index,
    number_op,
)
from .hamiltonians import (
    SystemParams,
    build_coupler_hamiltonian,
    build_kick_generator,
    total_number_op,
)
from .numerics import (
    hermitian_eigendecomposition,
    hermiticity_defect,
    unitary_from_generator,
)
from .propagation import (
    DEFAULT_ORDERING,
    Ordering,
    StepOperators,
    build_half_kick,
    build_step_operators,
    evolve,
    evolve_blocks,
    vacuum_state,
)

__all__ = [
    "BellState",
    "ConfigError",
    "ContractViolationError",
    "DEFAULT_ORDERING",
    "DegenerateProjectionError",
    "DimensionMismatchError",
    "ModeDims",
    "Ordering",
    "QubitObservables",
    "StepOperators",
    "SystemParams",
    "annihilation_op",
    "annotate_trajectory",
    "basis_state",
    "bell_fidelities",
    "bell_states",
    "build_coupler_hamiltonian",
    "build_half_kick",
    "build_kick_generator",
    "build_step_operators",
    "calibrate_sampling",
    "concurrence",
    "concurrence_pure",
    "creation_op",
    "density_from_pure",
    "embed_mode_a",
    "embed_mode_b",
    "evolve",
    "evolve_blocks",
    "hermitian_eigendecomposition",
    "hermiticity_defect",
    "joint_index",
    "kick_frequencies",
    "number_op",
    "project_to_qubits",
    "total_number_op",
    "truncated_amplitudes",
    "truncated_map_states",
    "unitary_from_generator",
    "vacuum_state",
]

__version__ = "0.1.0"
