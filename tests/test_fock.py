"""The joint Fock basis, and the dense ladder-operator references of
conftest.py that the entrywise builders are checked against."""

import numpy as np
import pytest

from kicked_coupler import ModeDims, joint_index
from kicked_coupler.hamiltonians import basis_state
from conftest import annihilation_op, embed_mode_a, embed_mode_b, number_op


class TestModeDims:
    def test_joint_dimension(self):
        assert ModeDims(3, 5).joint == 15

    @pytest.mark.parametrize("dims", [(1, 2), (2, 1), (0, 4), (2, -3)])
    def test_rejects_sub_qubit_dimensions(self, dims):
        with pytest.raises(ValueError):
            ModeDims(*dims)


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

    def test_number_op(self):
        np.testing.assert_allclose(number_op(4), np.diag([0, 1, 2, 3]), atol=0)


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
