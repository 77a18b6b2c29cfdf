"""The joint Fock basis, the coupler Hamiltonian and the kick generator,
checked against the dense ladder-operator references of conftest.py."""

import itertools

import numpy as np
import pytest

from kicked_coupler import ModeDims, SystemParams, build_coupler_hamiltonian, cli, joint_index
from kicked_coupler.hamiltonians import (
    ConfigError,
    basis_state,
    build_kick_generator,
    edge_populations,
)
from kicked_coupler.numerics import hermiticity_defect, unitary_from_generator
from conftest import annihilation_op, embed_mode_a, embed_mode_b


class TestModeDims:
    def test_joint_dimension(self):
        assert ModeDims(3, 5).joint == 15

    @pytest.mark.parametrize("dims", [(1, 2), (2, 1), (0, 4), (2, -3)])
    def test_rejects_sub_qubit_dimensions(self, dims):
        with pytest.raises(ValueError):
            ModeDims(*dims)

    @pytest.mark.parametrize("dims", [(3.0, 3), (3, 2.5), ("3", 3), (None, 3)])
    def test_rejects_non_integer_dimensions(self, dims):
        # before numpy sees one: a float cutoff ended in a TypeError there
        with pytest.raises(ValueError, match="must be integers"):
            ModeDims(*dims)

    def test_accepts_numpy_integers(self):
        assert ModeDims(np.int64(3), np.int32(2)).joint == 6


class TestRefusalType:
    """ModeDims and SystemParams refuse with the ConfigError the CLI maps to
    exit 2; it is defined here, once, and is still a ValueError."""

    def test_one_config_error(self):
        assert cli.ConfigError is ConfigError
        assert issubclass(ConfigError, ValueError)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ModeDims(1, 3), "mode dimensions must be >= 2, got (1, 3)"),
            (lambda: ModeDims(3.0, 3), "mode dimensions must be integers, got (3.0, 3)"),
            (lambda: SystemParams(T=0), "pulse period T must be positive, got 0"),
            (lambda: SystemParams(alpha=float("inf")), "alpha must be finite, got inf"),
            (lambda: SystemParams(alpha="0.04"), "alpha must be a number, got '0.04'"),
            (lambda: SystemParams(dims=(3, 3)), "dims must be a ModeDims, got (3, 3)"),
        ],
    )
    def test_every_refusal_is_a_config_error(self, build, message):
        with pytest.raises(ConfigError) as info:
            build()
        assert str(info.value) == message


class TestAnnihilation:
    def test_action_on_two_photon_state(self):
        a = annihilation_op(3)
        ket2 = np.array([0, 0, 1], dtype=complex)
        np.testing.assert_allclose(a @ ket2, [0, np.sqrt(2), 0], atol=1e-15)

    def test_vacuum_annihilation(self):
        a = annihilation_op(2)
        np.testing.assert_allclose(a @ np.array([1, 0], dtype=complex), 0, atol=1e-15)

    def test_number_operator_identity(self):
        a = annihilation_op(4)
        np.testing.assert_allclose(a.conj().T @ a, np.diag([0, 1, 2, 3]), atol=1e-14)

    def test_creation_action_and_truncation_edge(self):
        dim = 6
        ad = annihilation_op(dim).conj().T
        for n in range(dim - 1):
            ket = np.zeros(dim, dtype=complex)
            ket[n] = 1
            expected = np.zeros(dim, dtype=complex)
            expected[n + 1] = np.sqrt(n + 1)
            np.testing.assert_allclose(ad @ ket, expected, atol=1e-14)
        top = np.zeros(dim, dtype=complex)
        top[dim - 1] = 1
        np.testing.assert_allclose(ad @ top, 0, atol=1e-15)

    def test_commutator_on_interior(self):
        dim = 7
        a = annihilation_op(dim)
        comm = a @ a.conj().T - a.conj().T @ a
        interior = np.s_[: dim - 1, : dim - 1]
        np.testing.assert_allclose(comm[interior], np.eye(dim - 1), atol=1e-14)


class TestTensorProduct:
    """The joint space is the Kronecker product of the modes, mode a major."""

    def test_identity_kron_identity(self):
        dims = ModeDims(2, 3)
        np.testing.assert_allclose(embed_mode_a(np.eye(2), dims), np.eye(6), atol=0)
        np.testing.assert_allclose(embed_mode_b(np.eye(3), dims), np.eye(6), atol=0)

    def test_acts_per_factor(self):
        dims = ModeDims(3, 3)
        a = annihilation_op(3)
        lifted = embed_mode_a(a, dims)
        np.testing.assert_allclose(
            lifted @ basis_state(1, 2, dims), basis_state(0, 2, dims), atol=1e-15
        )

    def test_mixed_product_property(self, rng):
        # (A x B)(C x D) = (AC) x (BD), with A x B = (A x I)(I x B)
        dims = ModeDims(2, 3)
        a, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2))
        b, d = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2))

        def kron(x, y):
            return embed_mode_a(x, dims) @ embed_mode_b(y, dims)

        np.testing.assert_allclose(kron(a, b), np.kron(a, b), atol=1e-13)
        np.testing.assert_allclose(kron(a, b) @ kron(c, d), kron(a @ c, b @ d), atol=1e-13)


class TestEmbedding:
    def test_embed_a_annihilates_photon(self):
        dims = ModeDims(2, 2)
        a = annihilation_op(2)
        np.testing.assert_allclose(
            embed_mode_a(a, dims) @ basis_state(1, 0, dims),
            basis_state(0, 0, dims),
            atol=1e-15,
        )

    def test_embed_b_creates_photon(self):
        dims = ModeDims(2, 2)
        bd = annihilation_op(2).conj().T
        np.testing.assert_allclose(
            embed_mode_b(bd, dims) @ basis_state(0, 0, dims),
            basis_state(0, 1, dims),
            atol=1e-15,
        )

    def test_distinct_modes_commute(self):
        dims = ModeDims(3, 3)
        a = embed_mode_a(annihilation_op(3), dims)
        b = embed_mode_b(annihilation_op(3), dims)
        np.testing.assert_allclose(a @ b - b @ a, 0, atol=1e-14)


class TestJointIndex:
    def test_round_trip(self):
        dims = ModeDims(4, 7)
        for m in range(4):
            for n in range(7):
                assert joint_index(m, n, dims) == m * dims.dim_b + n

    def test_mode_a_major_ordering(self):
        dims = ModeDims(3, 5)
        assert joint_index(2, 3, dims) == 2 * 5 + 3

    def test_out_of_range(self):
        dims = ModeDims(2, 2)
        with pytest.raises(IndexError):
            joint_index(2, 0, dims)
        with pytest.raises(IndexError):
            joint_index(0, 2, dims)


class TestEdgePopulations:
    def test_sums_each_modes_last_level(self):
        # unequal cutoffs, so a swapped axis cannot pass
        dims = ModeDims(5, 3)
        rng = np.random.default_rng(7)
        states = rng.normal(size=(6, dims.joint)) + 1j * rng.normal(size=(6, dims.joint))
        probs = np.abs(states) ** 2
        last_a = [joint_index(dims.dim_a - 1, n, dims) for n in range(dims.dim_b)]
        last_b = [joint_index(m, dims.dim_b - 1, dims) for m in range(dims.dim_a)]
        expected = np.column_stack([probs[:, last_a].sum(axis=1), probs[:, last_b].sum(axis=1)])
        np.testing.assert_allclose(edge_populations(states, dims), expected, rtol=1e-14)

    def test_basis_states(self):
        dims = ModeDims(4, 3)
        states = np.array([basis_state(m, n, dims) for m, n in [(0, 0), (3, 0), (1, 2), (3, 2)]])
        assert edge_populations(states, dims).tolist() == [[0, 0], [1, 0], [0, 1], [1, 1]]


def elem(h, bra, ket, dims):
    return h[joint_index(*bra, dims), joint_index(*ket, dims)]


# The operators as dense products of the embedded ladder operators: the
# references the entrywise builders must reproduce (G byte for byte, H in
# every value and in every zero the band leaves).
def dense_coupler_hamiltonian(params):
    dims = params.dims
    a = embed_mode_a(annihilation_op(dims.dim_a), dims)
    b = embed_mode_b(annihilation_op(dims.dim_b), dims)
    ad, bd = a.conj().T, b.conj().T
    eps = complex(params.epsilon)
    h = 0.5 * params.chi_a * (ad @ ad @ a @ a)
    h += 0.5 * params.chi_b * (bd @ bd @ b @ b)
    h += eps * (ad @ b) + np.conj(eps) * (a @ bd)
    return h


def dense_kick_generator(params):
    dims = params.dims
    a = embed_mode_a(annihilation_op(dims.dim_a), dims)
    alpha = complex(params.alpha)
    return alpha * a.conj().T + np.conj(alpha) * a


def coupler_band(dims):
    """Mask of the entries H can make nonzero: the Kerr diagonal and the
    a+ b and a b+ hops |m, n> <-> |m+1, n-1>."""
    band = np.eye(dims.joint, dtype=bool)
    for m in range(dims.dim_a - 1):
        for n in range(1, dims.dim_b):
            i, j = joint_index(m + 1, n - 1, dims), joint_index(m, n, dims)
            band[i, j] = band[j, i] = True
    return band


CUTOFFS = [(15, 15), (15, 12), (6, 9), (2, 2)]


class TestMatchesDenseProducts:
    @pytest.mark.parametrize("cutoffs", CUTOFFS)
    @pytest.mark.parametrize(
        "chi_a, chi_b, epsilon",
        [
            (1.0, 1.0, 0.01),
            (1.7, 0.4, 0.03 + 0.01j),
            (-1.3, 0.0, -0.02 - 0.005j),
            (0.5, -0.0, 0.0),
            (1.0, 2.0, complex(-0.0, 0.04)),
            (1.0, 1.0, complex(-0.0, -0.0)),
        ],
    )
    def test_coupler_hamiltonian(self, cutoffs, chi_a, chi_b, epsilon):
        params = SystemParams(
            chi_a=chi_a, chi_b=chi_b, epsilon=epsilon, dims=ModeDims(*cutoffs)
        )
        h, dense = build_coupler_hamiltonian(params), dense_coupler_hamiltonian(params)
        assert np.array_equal(h, dense)
        # off the band every entry is the dense expression's +0+0j
        off = ~coupler_band(params.dims)
        assert h[off].tobytes() == dense[off].tobytes()
        # a zero sign the band entries may differ in is not read by the
        # free unitary: equal bytes
        assert (
            unitary_from_generator(h, params.T).tobytes()
            == unitary_from_generator(dense, params.T).tobytes()
        )

    @pytest.mark.parametrize("cutoffs", [(4, 2), (7, 2), (3, 3), (5, 3)])
    @pytest.mark.parametrize("chi_a, chi_b", [(-1.3, -0.7), (-0.0, -1.3), (0.0, 1.0)])
    @pytest.mark.parametrize(
        "epsilon",
        [complex(-0.0, 0.03), complex(-0.02, 0.0), complex(-0.0, -0.0), complex(-0.03, -0.0)],
    )
    def test_free_unitary_with_band_zero_signs(self, cutoffs, chi_a, chi_b, epsilon):
        # in each case some zero part of a band entry of H has the other
        # sign than in the dense expression; the unitary keeps every value
        # (in a few such cases its own zero parts differ in sign)
        params = SystemParams(
            chi_a=chi_a, chi_b=chi_b, epsilon=epsilon, T=0.7, dims=ModeDims(*cutoffs)
        )
        h, dense = build_coupler_hamiltonian(params), dense_coupler_hamiltonian(params)
        assert np.array_equal(
            unitary_from_generator(h, params.T), unitary_from_generator(dense, params.T)
        )

    def test_dense_off_band_entries_are_positive_zero(self):
        # why H may start from np.zeros: for every sign of every input, the
        # dense expression leaves +0+0j off the band
        dims = ModeDims(3, 3)
        off = ~coupler_band(dims)
        positive_zero = np.zeros(off.sum(), dtype=complex).tobytes()
        for chi_a, chi_b, re, im in itertools.product([1.5, -1.5, 0.0, -0.0], repeat=4):
            params = SystemParams(chi_a=chi_a, chi_b=chi_b, epsilon=complex(re, im), dims=dims)
            assert dense_coupler_hamiltonian(params)[off].tobytes() == positive_zero

    @pytest.mark.parametrize("cutoffs", CUTOFFS)
    @pytest.mark.parametrize(
        "alpha",
        [0.04, 0.0, -0.0, 0.03 - 0.02j, complex(-0.01, 0.05), 0.05j, complex(-0.0, -0.0)],
    )
    def test_kick_generator(self, cutoffs, alpha):
        params = SystemParams(alpha=alpha, dims=ModeDims(*cutoffs))
        assert (
            build_kick_generator(params).tobytes()
            == dense_kick_generator(params).tobytes()
        )


class TestCouplerHamiltonian:
    def test_qubit_states_have_zero_kerr_energy(self):
        params = SystemParams(chi_a=1.7, chi_b=0.4, epsilon=0.03 + 0.01j)
        h = build_coupler_hamiltonian(params)
        dims = params.dims
        for state in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            assert abs(elem(h, state, state, dims)) < 1e-14

    def test_coupling_matrix_elements(self):
        eps = 0.02 + 0.005j
        params = SystemParams(epsilon=eps)
        h = build_coupler_hamiltonian(params)
        dims = params.dims
        assert elem(h, (1, 0), (0, 1), dims) == pytest.approx(eps)
        assert elem(h, (0, 1), (1, 0), dims) == pytest.approx(np.conj(eps))

    def test_kerr_eigenvalue_at_two_photons(self):
        params = SystemParams(chi_a=1.0)
        h = build_coupler_hamiltonian(params)
        assert elem(h, (2, 0), (2, 0), params.dims) == pytest.approx(1.0)

    def test_hermiticity_random_draws(self, rng):
        for _ in range(5):
            params = SystemParams(
                chi_a=rng.uniform(0.1, 3),
                chi_b=rng.uniform(0.1, 3),
                epsilon=complex(rng.normal(), rng.normal()) * 0.05,
                alpha=complex(rng.normal(), rng.normal()) * 0.05,
                T=rng.uniform(0.5, 2),
                dims=ModeDims(6, 5),
            )
            h = build_coupler_hamiltonian(params)
            assert hermiticity_defect(h) <= 1e-12 * np.max(np.abs(h))

    def test_commutes_with_total_photon_number(self, rng):
        params = SystemParams(epsilon=0.04 + 0.02j, dims=ModeDims(8, 8))
        h = build_coupler_hamiltonian(params)
        dims = params.dims
        n = embed_mode_a(np.diag(np.arange(dims.dim_a)), dims) + embed_mode_b(
            np.diag(np.arange(dims.dim_b)), dims
        )
        comm = h @ n - n @ h
        assert np.max(np.abs(comm)) <= 1e-12 * np.max(np.abs(h))

    def test_diagonal_when_uncoupled(self):
        params = SystemParams(chi_a=1.3, chi_b=0.7, epsilon=0.0, dims=ModeDims(5, 4))
        h = build_coupler_hamiltonian(params)
        dims = params.dims
        expected = np.diag(
            [
                1.3 * m * (m - 1) / 2 + 0.7 * n * (n - 1) / 2
                for m in range(dims.dim_a)
                for n in range(dims.dim_b)
            ]
        )
        np.testing.assert_allclose(h, expected, atol=1e-13)

    def test_rejects_nonpositive_period(self):
        with pytest.raises(ValueError):
            SystemParams(T=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("chi_a", float("nan")),
            ("chi_b", float("inf")),
            ("T", float("inf")),
            ("alpha", complex("nan")),
            ("alpha", complex(0.04, float("inf"))),
            ("epsilon", complex(float("-inf"), 0.0)),
            ("epsilon", complex(0.01, float("nan"))),
        ],
    )
    def test_rejects_non_finite_parameters(self, field, value):
        with pytest.raises(ValueError, match=field):
            SystemParams(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("alpha", "0.04"), ("T", None), ("epsilon", [0.01]), ("dims", (3, 3)), ("dims", None)],
    )
    def test_rejects_parameters_of_another_type(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a "):
            SystemParams(**{field: value})

    def test_accepts_ints_bools_and_numpy_numbers(self):
        params = SystemParams(chi_a=1, chi_b=True, alpha=np.float32(0.25), epsilon=np.complex64(0))
        assert (params.chi_a, params.chi_b, params.alpha, params.epsilon) == (1, 1, 0.25, 0)

    @pytest.mark.parametrize("field", ["chi_a", "chi_b", "T"])
    @pytest.mark.parametrize("value", [1j, 1 + 0j, np.complex128(2)])
    def test_rejects_a_complex_real_parameter(self, field, value):
        # T = 1j ended in a TypeError at T <= 0, and chi_a = 1j constructed
        with pytest.raises(ConfigError) as info:
            SystemParams(**{field: value})
        assert str(info.value) == f"{field} must be a real number, got {value!r}"

    @pytest.mark.parametrize("value", [2, True, np.int64(2), np.float32(1.5), np.float64(0.5)])
    def test_real_parameters_accept_ints_bools_and_numpy_reals(self, value):
        params = SystemParams(chi_a=value, chi_b=value, T=value)
        assert (params.chi_a, params.chi_b, params.T) == (value,) * 3


class TestKickGenerator:
    def test_drive_matrix_elements(self):
        alpha = 0.03 + 0.01j
        params = SystemParams(alpha=alpha)
        g = build_kick_generator(params)
        dims = params.dims
        assert elem(g, (1, 0), (0, 0), dims) == pytest.approx(alpha)
        assert elem(g, (0, 0), (1, 0), dims) == pytest.approx(np.conj(alpha))

    def test_zero_drive(self):
        g = build_kick_generator(SystemParams(alpha=0.0))
        np.testing.assert_allclose(g, 0, atol=0)

    def test_acts_only_on_mode_a(self):
        params = SystemParams()
        g = build_kick_generator(params)
        dims = params.dims
        for m in range(dims.dim_a):
            for mp in range(dims.dim_a):
                assert abs(elem(g, (m, 1), (mp, 0), dims)) < 1e-15

    def test_hermitian(self):
        g = build_kick_generator(SystemParams(alpha=0.1 + 0.2j))
        assert hermiticity_defect(g) <= 1e-12 * np.max(np.abs(g))
