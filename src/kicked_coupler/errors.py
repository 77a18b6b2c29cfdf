"""Exception types shared across the package, one per exit code of the CLI."""


class ContractViolationError(RuntimeError):
    """A numerical precondition failed (non-Hermitian input, bad density matrix, ...)."""


class ConfigError(ValueError):
    """Invalid run configuration (unknown key, bad value, violated invariant)."""
