import tracemalloc

import numpy as np
import pytest

from kicked_coupler import (
    ContractViolationError,
    SystemParams,
    build_coupler_hamiltonian,
)
from kicked_coupler.hamiltonians import build_kick_generator
from kicked_coupler.numerics import (
    PHASE_ROUNDOFF_TOL,
    hermitian_eigendecomposition,
    hermiticity_defect,
    unitary_from_generator,
)
from conftest import MATRIX_BYTES, random_hermitian, random_unit_vector, traced_peak


class TestEigendecomposition:
    def test_diagonal_matrix(self):
        values, vectors = hermitian_eigendecomposition(
            np.diag([0.0, 1.0, 3.0]).astype(complex)
        )
        np.testing.assert_allclose(values, [0, 1, 3], atol=1e-14)
        # eigenvectors are a permutation of identity columns up to phase
        np.testing.assert_allclose(np.abs(vectors), np.eye(3), atol=1e-12)

    def test_pauli_x_scaling(self):
        alpha = 0.7
        values, _ = hermitian_eigendecomposition(
            np.array([[0, alpha], [alpha, 0]], dtype=complex)
        )
        np.testing.assert_allclose(values, [-alpha, alpha], atol=1e-14)

    def test_reconstruction_oracle(self, rng):
        # the empty and the zero matrix have no scale to test Hermiticity against
        for h in (random_hermitian(rng, 50), np.zeros((0, 0)), np.zeros((3, 3))):
            values, vectors = hermitian_eigendecomposition(h)
            assert vectors.shape == h.shape
            rebuilt = (vectors * values) @ vectors.conj().T
            scale = np.max(np.abs(h), initial=0.0)
            assert np.max(np.abs(rebuilt - h), initial=0.0) <= 1e-10 * scale

    def test_orthonormality_invariant(self, rng):
        _, v = hermitian_eigendecomposition(random_hermitian(rng, 30))
        assert np.max(np.abs(v.conj().T @ v - np.eye(30))) <= 1e-10

    def test_rejects_non_hermitian(self, rng):
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        with pytest.raises(ContractViolationError):
            hermitian_eigendecomposition(m)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_rejects_non_finite_entry(self, value):
        # Hermitian in form, but the defect of an inf entry is inf - inf
        h = np.eye(3, dtype=complex)
        h[1, 1] = value
        with pytest.raises(ContractViolationError, match="non-finite"):
            hermitian_eigendecomposition(h)


class TestHermiticityDefect:
    def test_equals_the_written_out_defect(self, rng):
        m = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
        cases = [m, random_hermitian(rng, 30), m.real, np.zeros((0, 0))]
        for h in cases:
            before = h.copy()
            expected = float(np.max(np.abs(h - h.conj().T))) if h.size else 0.0
            assert hermiticity_defect(h) == expected
            # the difference is taken in a copy, also for a real h, whose
            # conj() method returns h itself
            assert np.array_equal(h, before)

    def test_peak_memory_is_one_and_a_half_matrices(self):
        # one conjugated copy of h and the float moduli of the difference
        h = build_coupler_hamiltonian(SystemParams())
        assert h.nbytes == MATRIX_BYTES
        peak = traced_peak(lambda: hermiticity_defect(h))
        assert peak <= 1.5 * MATRIX_BYTES + 64 * 1024, peak / MATRIX_BYTES


class TestUnitaryFromGenerator:
    def test_zero_generator(self):
        np.testing.assert_allclose(
            unitary_from_generator(np.zeros((4, 4)), 2.3), np.eye(4), atol=1e-14
        )

    def test_scalar_phase(self):
        u = unitary_from_generator(np.diag([0.0, 1.0]).astype(complex), np.pi)
        np.testing.assert_allclose(u, np.diag([1.0, -1.0]), atol=1e-14)

    def test_semigroup_oracle(self, rng):
        h = random_hermitian(rng, 10)
        t1, t2 = 0.37, 1.21
        lhs = unitary_from_generator(h, t1) @ unitary_from_generator(h, t2)
        rhs = unitary_from_generator(h, t1 + t2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * np.max(np.abs(rhs))

    def test_unitarity(self, rng):
        for dim in (3, 12, 40):
            u = unitary_from_generator(random_hermitian(rng, dim), 0.9)
            assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= 1e-10

    def test_norm_preservation(self, rng):
        u = unitary_from_generator(random_hermitian(rng, 20), 1.5)
        psi = random_unit_vector(rng, 20)
        assert abs(np.linalg.norm(u @ psi) - 1.0) <= 1e-10

    def test_leaves_the_generator_unchanged(self, rng):
        # the eigenvectors are conjugated in place, the generator is not
        h = random_hermitian(rng, 12)
        before = h.copy()
        unitary_from_generator(h, 0.7)
        assert np.array_equal(h, before)

    def test_equals_the_spectral_formula(self, rng):
        # bit for bit V exp(-i lambda t) V+ with V+ taken as V.conj().T
        params = SystemParams(alpha=0.05 + 0.01j, epsilon=0.02)
        cases = [
            (random_hermitian(rng, 40), 0.9),
            (build_coupler_hamiltonian(params), params.T),
            (build_kick_generator(params), 1.0),
            (build_kick_generator(params), 0.5),
        ]
        for h, t in cases:
            values, vectors = hermitian_eigendecomposition(h)
            expected = (vectors * np.exp(-1j * values * t)) @ vectors.conj().T
            assert np.array_equal(unitary_from_generator(h, t), expected)

    def test_phase_roundoff_contract(self):
        h = np.diag([0.0, -1.0, 2.0]).astype(complex)
        # max|lambda t| at which the phase roundoff reaches the tolerance
        limit = PHASE_ROUNDOFF_TOL / np.finfo(float).eps / 2.0
        unitary_from_generator(h, 0.99 * limit)
        for t in (1.01 * limit, -1.01 * limit, 1e300, np.nan):
            with pytest.raises(ContractViolationError, match="phase roundoff"):
                unitary_from_generator(h, t)

    def test_peak_memory_is_three_matrices(self):
        # the eigenvectors, their scaled copy and the product; no
        # conjugated copy of the eigenvectors
        h = build_coupler_hamiltonian(SystemParams())
        d = h.shape[0]
        assert d == 225
        tracemalloc.start()
        try:
            unitary_from_generator(h, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * d * d * 16 + 64 * 1024, peak / (d * d * 16)
