"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Operands have incompatible matrix/vector dimensions."""


class ContractViolationError(RuntimeError):
    """A numerical precondition failed (non-Hermitian input, bad density matrix, ...)."""


class DegenerateProjectionError(RuntimeError):
    """State has (numerically) no support on the two-qubit subspace."""


class ConfigError(ValueError):
    """Invalid run configuration (unknown key, bad value, violated invariant)."""
