"""The truncated two-mode Fock basis, the Kerr-coupler Hamiltonian and the
per-pulse kick generator.

The joint basis is ordered mode-a major: |m>_a |n>_b sits at index
``I = m * dim_b + n``.  No other module knows that order.

Units: hbar = 1 and energies are measured in units of the Kerr constant,
so the defaults use chi_a = chi_b = 1.  The default driving parameters
(alpha = 1/25, epsilon = 1/100, T = 1) put the system deep in the
quantum-scissors regime where only the lowest two levels of each mode
take part in the dynamics.
"""

import cmath
from dataclasses import dataclass, field
from numbers import Integral, Number, Real

import numpy as np


class ConfigError(ValueError):
    """Invalid run configuration (unknown key, bad value, violated invariant)."""


def quoted(value, form=repr, width: int = 50) -> str:
    """form(value) for a refusal's text, cut to width characters and '...', or its type
    where form raises (str() of an int past sys.get_int_max_str_digits())."""
    try:
        text = form(value)
    except Exception:
        return f"<{type(value).__name__} that {form.__name__}() cannot write>"
    return text if len(text) <= width else text[:width] + "..."


@dataclass(frozen=True)
class ModeDims:
    """Fock-space truncation: number of levels kept per mode (vacuum included).

    Both dimensions must be at least 2 so that the qubit subspace
    {|0>, |1>} exists in each mode.
    """

    dim_a: int
    dim_b: int

    def __post_init__(self) -> None:
        if not (isinstance(self.dim_a, Integral) and isinstance(self.dim_b, Integral)):
            dims = f"({quoted(self.dim_a)}, {quoted(self.dim_b)})"
            raise ConfigError(f"mode dimensions must be integers, got {dims}")
        if self.dim_a < 2 or self.dim_b < 2:
            dims = f"({quoted(self.dim_a, str)}, {quoted(self.dim_b, str)})"
            raise ConfigError(f"mode dimensions must be >= 2, got {dims}")

    @property
    def joint(self) -> int:
        """Dimension of the joint two-mode space."""
        return self.dim_a * self.dim_b


def joint_index(m: int, n: int, dims: ModeDims) -> int:
    """Index of |m>_a |n>_b in the joint basis."""
    if not (0 <= m < dims.dim_a and 0 <= n < dims.dim_b):
        raise IndexError(f"occupation ({m}, {n}) outside cutoffs {dims}")
    return m * dims.dim_b + n


def edge_populations(states: np.ndarray, dims: ModeDims) -> np.ndarray:
    """The population at level dim - 1 of mode a and of mode b, the
    truncation edges, in each row of (K, D) states: a (K, 2) array."""
    cube = states.reshape(len(states), dims.dim_a, dims.dim_b)
    return np.column_stack([np.vecdot(edge, edge).real for edge in (cube[:, -1], cube[:, :, -1])])


def basis_state(m: int, n: int, dims: ModeDims) -> np.ndarray:
    """Unit vector for the joint Fock state |m>_a |n>_b."""
    psi = np.zeros(dims.joint, dtype=complex)
    psi[joint_index(m, n, dims)] = 1.0
    return psi


@dataclass(frozen=True)
class SystemParams:
    """All physical parameters of the kicked coupler plus the Fock cutoffs.

    chi_a, chi_b : Kerr nonlinearities of the two modes.
    epsilon      : internal linear coupling strength (may be complex).
    alpha        : kick strength of the external drive on mode a (may be complex).
    T            : time between two subsequent pulses, T > 0.
    dims         : Fock-space truncation per mode.
    """

    chi_a: float = 1.0
    chi_b: float = 1.0
    epsilon: complex = 0.01
    alpha: complex = 0.04
    T: float = 1.0
    dims: ModeDims = field(default_factory=lambda: ModeDims(15, 15))

    def __post_init__(self) -> None:
        if not isinstance(self.dims, ModeDims):
            raise ConfigError(f"dims must be a ModeDims, got {quoted(self.dims)}")
        for name in ("chi_a", "chi_b", "epsilon", "alpha", "T"):
            value = getattr(self, name)
            real = name not in ("epsilon", "alpha")
            if not isinstance(value, Real if real else Number):
                raise ConfigError(f"{name} must be a {'real ' * real}number, got {quoted(value)}")
            try:
                if not cmath.isfinite(value):
                    raise ConfigError(f"{name} must be finite, got {quoted(value, str)}")
            except OverflowError:  # an int too large for a float, and too long to show
                raise ConfigError(f"{name} must be finite, got a number too large for a float")
        if self.T <= 0:
            raise ConfigError(f"pulse period T must be positive, got {quoted(self.T, str)}")


def _occupations(dims: ModeDims) -> tuple[np.ndarray, np.ndarray]:
    """Photon numbers (m, n) of every joint basis state |m>_a |n>_b."""
    return np.divmod(np.arange(dims.joint), dims.dim_b)


def _kerr_diagonal(occupation: np.ndarray) -> np.ndarray:
    """<m| a+^2 a^2 |m> = m (m - 1), as ((s_m s_{m-1}) s_{m-1}) s_m with
    s_m = sqrt(m): the factors in the order the dense product a+ a+ a a
    multiplies them, so the result equals that product bit for bit."""
    s = np.sqrt(occupation)
    s_below = np.sqrt(np.maximum(occupation - 1, 0))
    return ((s * s_below) * s_below) * s


def build_coupler_hamiltonian(params: SystemParams) -> np.ndarray:
    """Free Hamiltonian of the coupler on the joint basis.

    H = (chi_a/2) a+^2 a^2 + (chi_b/2) b+^2 b^2 + eps a+ b + eps* a b+

    The Kerr terms vanish on all 0- and 1-photon states, so the four
    qubit basis states are coupled only through the epsilon terms.

    H is written from its diagonal and its hopping entries: beyond zeroing
    the D x D array the work is O(D).  Its nonzero entries have the bits of
    the dense operator expression; only zero parts of those entries may
    differ in sign, and no step unitary reads them.
    """
    dims = params.dims
    eps = complex(params.epsilon)
    # the D x D array first: a size that does not fit fails at once
    h = np.zeros((dims.joint, dims.joint), dtype=complex)
    m, n = _occupations(dims)
    diag = np.arange(dims.joint)
    h[diag, diag] = 0.5 * params.chi_a * _kerr_diagonal(m) + 0.5 * params.chi_b * _kerr_diagonal(n)
    # a+ b takes |m, n> to sqrt(m+1) sqrt(n) |m+1, n-1>; a b+ is its transpose
    src = np.flatnonzero((n > 0) & (m < dims.dim_a - 1))
    dst = src + dims.dim_b - 1
    hop = np.sqrt(m[src] + 1.0) * np.sqrt(n[src])
    h[dst, src] = eps * hop
    h[src, dst] = np.conj(eps) * hop
    return h


def build_kick_generator(params: SystemParams) -> np.ndarray:
    """Hermitian generator of a single ultra-short pulse on mode a.

    G = alpha a+ + alpha* a, lifted to the joint basis.  One pulse of the
    periodic drive acts as exp(-i G); the delta-shaped pulse train is
    realized by applying that unitary once per period.  Unlike H, G keeps
    the dense expression's zero signs: the eigensolver reads them, and a
    plain G moves about one kick unitary in five by up to 1e-14.
    """
    dims = params.dims
    alpha = complex(params.alpha)

    def entries(a_ij, a_ji):
        # the entry (i, j) of G given a[i, j] and a[j, i]; (a+)[i, j] is
        # conj(a[j, i]), which carries a negative zero imaginary part
        return alpha * np.conj(a_ji) + np.conj(alpha) * a_ij

    zero = np.zeros(1, dtype=complex)
    g = np.full((dims.joint, dims.joint), entries(zero, zero)[0])
    m, _ = _occupations(dims)
    # a+ takes |m, n> to sqrt(m+1) |m+1, n>
    src = np.flatnonzero(m < dims.dim_a - 1)
    dst = src + dims.dim_b
    raise_amp = np.sqrt(m[src] + 1.0).astype(complex)
    g[dst, src] = entries(zero, raise_amp)
    g[src, dst] = entries(raise_amp, zero)
    return g
