import numpy as np
import pytest

from kicked_coupler import (
    ContractViolationError,
    ModeDims,
    SystemParams,
    annotate_trajectory,
    bell_fidelities,
    bell_states,
    concurrence,
    concurrence_pure,
    density_from_pure,
    evolve,
    joint_index,
)
from kicked_coupler import entanglement, propagation
from kicked_coupler.hamiltonians import basis_state
from conftest import project_to_qubits, random_unit_vector, traced_peak


def random_qubit_state(rng):
    return random_unit_vector(rng, 4)


class TestProjection:
    def test_vacuum(self):
        dims = ModeDims(4, 4)
        state, leakage = project_to_qubits(basis_state(0, 0, dims), dims)
        np.testing.assert_allclose(state, [1, 0, 0, 0], atol=0)
        assert leakage == 0.0

    def test_half_leaked_superposition(self):
        dims = ModeDims(4, 4)
        psi = (basis_state(0, 0, dims) + basis_state(2, 0, dims)) / np.sqrt(2)
        state, leakage = project_to_qubits(psi, dims)
        np.testing.assert_allclose(state, [1, 0, 0, 0], atol=1e-15)
        assert leakage == pytest.approx(0.5, abs=1e-15)


class TestBellStates:
    def test_unit_norm(self):
        for b in bell_states():
            assert np.linalg.norm(b) == pytest.approx(1.0, abs=1e-15)

    def test_pairwise_orthogonal(self):
        states = bell_states()
        for i in range(4):
            for j in range(4):
                overlap = abs(np.vdot(states[i], states[j]))
                assert overlap == pytest.approx(1.0 if i == j else 0.0, abs=1e-15)

    def test_maximally_entangled(self):
        for b in bell_states():
            assert concurrence_pure(b) == pytest.approx(1.0, abs=1e-15)

    def test_rows_are_b1_to_b4(self):
        # the order of the CSV columns F_B1..F_B4
        s = 1 / np.sqrt(2)
        expected = [
            [s, 0, 0, 1j * s],  # B1 = (|00> + i|11>)/sqrt2
            [s, 0, 0, -1j * s],  # B2 = (|00> - i|11>)/sqrt2
            [0, s, 1j * s, 0],  # B3 = (|01> + i|10>)/sqrt2
            [0, s, -1j * s, 0],  # B4 = (|01> - i|10>)/sqrt2
        ]
        bell = bell_states()
        assert bell.shape == (4, 4) and bell.dtype == complex
        np.testing.assert_array_equal(bell, expected)

    def test_each_call_returns_a_new_array(self):
        first = bell_states()
        first[:] = 0
        np.testing.assert_allclose(np.linalg.norm(bell_states(), axis=1), 1.0, atol=1e-15)


class TestConcurrence:
    def test_bell_density(self):
        for b in bell_states():
            rho = density_from_pure(b)
            assert concurrence(rho) == pytest.approx(1.0, abs=1e-10)

    def test_product_state(self):
        rho = density_from_pure(np.array([1.0, 0j, 0j, 0j]))
        assert concurrence(rho) == pytest.approx(0.0, abs=1e-10)

    def test_known_pure_state(self):
        # 2*sqrt(0.5*0.2) = 2*sqrt(0.1*0.6) ... direct closed form gives
        # 2|c00 c11 - c01 c10| = 2*sqrt(0.06)
        state = np.array([np.sqrt(0.5), np.sqrt(0.3), 1j * np.sqrt(0.2), 0j])
        expected = 2 * np.sqrt(0.06)
        assert concurrence_pure(state) == pytest.approx(expected, abs=1e-12)
        assert concurrence(density_from_pure(state)) == pytest.approx(
            expected, abs=1e-10
        )

    def test_cross_oracle_equivalence(self, rng):
        for _ in range(100):
            state = random_qubit_state(rng)
            c_eig = concurrence(density_from_pure(state))
            c_pure = concurrence_pure(state)
            assert abs(c_eig - c_pure) <= 1e-10

    def test_bounds_on_mixtures(self, rng):
        for _ in range(20):
            weights = rng.dirichlet(np.ones(3))
            rho = sum(
                w * density_from_pure(random_qubit_state(rng)) for w in weights
            )
            c = concurrence(rho)
            assert 0.0 <= c <= 1.0 + 1e-12

    def test_phase_invariance(self, rng):
        for _ in range(20):
            state = random_qubit_state(rng)
            phi, chi = rng.uniform(0, 2 * np.pi, size=2)
            rotated = state * np.exp(1j * np.array([0, phi, chi, phi + chi]))
            assert abs(
                concurrence_pure(rotated) - concurrence_pure(state)
            ) <= 1e-10

    def test_rejects_non_hermitian(self):
        rho = np.diag([1.0, 0, 0, 0]).astype(complex)
        rho[0, 1] = 0.5
        with pytest.raises(ContractViolationError):
            concurrence(rho)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ContractViolationError, match="trace"):
            concurrence(np.diag([0.5, 0.2, 0.1, 0.1]).astype(complex))
        with pytest.raises(ContractViolationError, match="trace"):
            concurrence(np.eye(4) / 2)

    def test_rejects_a_negative_eigenvalue(self):
        # Hermitian and of trace 1, so only the positivity check refuses it
        with pytest.raises(ContractViolationError, match="negative eigenvalue -5.000e-01"):
            concurrence(np.diag([1.5, -0.5, 0, 0]).astype(complex))

    @pytest.mark.parametrize("shape", [(2, 2), (4,), (4, 4, 1), (8, 8)])
    def test_rejects_a_non_4x4_array(self, shape):
        with pytest.raises(ValueError, match="must be 4x4"):
            concurrence(np.zeros(shape))

    @pytest.mark.parametrize(
        "weights",
        [
            (0.6, 0.4 - 1e-8, 1e-8, 0.0),
            (0.7, 0.2, 0.1 - 1e-9, 1e-9),
            (0.6, 0.4 - 1e-6, 1e-6, 0.0),
        ]
        # Werner states F |B1><B1| + (1 - F)/3 (1 - |B1><B1|)
        + [(f,) + 3 * ((1 - f) / 3,) for f in (0.2, 1 / 3, 0.34, 0.5, 0.9)],
    )
    def test_exact_on_bell_diagonal_states(self, weights):
        # sum p_i |Bi><Bi| has concurrence max(0, 2 max p - 1) exactly
        rho = sum(p * density_from_pure(b) for p, b in zip(weights, bell_states()))
        assert abs(concurrence(rho) - max(0.0, 2 * max(weights) - 1)) <= 1e-14

    def test_one_eigendecomposition_per_call(self, rng, monkeypatch):
        # of rho, shared by the positivity check and the factor w
        calls = []
        decompose = entanglement.hermitian_eigendecomposition

        def counting(h):
            calls.append(h)
            return decompose(h)

        monkeypatch.setattr(entanglement, "hermitian_eigendecomposition", counting)
        rho = density_from_pure(random_qubit_state(rng))
        concurrence(rho)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], rho)


class TestBellFidelities:
    def test_fidelity_with_self(self):
        b1 = bell_states()[0]
        np.testing.assert_allclose(bell_fidelities(b1), [1, 0, 0, 0], atol=1e-14)

    def test_vacuum_splits_between_first_pair(self):
        fids = bell_fidelities(np.array([1.0, 0j, 0j, 0j]))
        np.testing.assert_allclose(fids, [0.5, 0.5, 0, 0], atol=1e-14)

    def test_fidelities_sum_to_one(self, rng):
        for _ in range(100):
            fids = bell_fidelities(random_qubit_state(rng))
            assert sum(fids) == pytest.approx(1.0, abs=1e-10)


class TestBatchedAmplitudes:
    """concurrence_pure and bell_fidelities act on the last axis of a
    (..., 4) array, as on each of its rows."""

    def test_rows_match_single_states(self, rng):
        amps = np.array([random_qubit_state(rng) for _ in range(12)]).reshape(3, 4, 4)
        conc = concurrence_pure(amps)
        fids = bell_fidelities(amps)
        assert conc.shape == (3, 4) and fids.shape == (3, 4, 4)
        for index in np.ndindex(3, 4):
            assert conc[index] == concurrence_pure(amps[index])
            # one overlap per Bell state; the four-term sums differ from the
            # matrix product only by float64 roundoff
            overlaps = [
                abs(np.vdot(b, amps[index])) ** 2 for b in bell_states()
            ]
            np.testing.assert_allclose(fids[index], overlaps, rtol=0, atol=1e-14)

    def test_concurrence_matches_complex_arithmetic(self, rng):
        for _ in range(100):
            c00, c01, c10, c11 = (complex(c) for c in random_qubit_state(rng))
            state = np.array([c00, c01, c10, c11])
            assert concurrence_pure(state) == 2.0 * abs(c00 * c11 - c01 * c10)


class TestAnnotateTrajectory:
    def test_initial_record(self):
        params = SystemParams(dims=ModeDims(4, 4))
        obs = annotate_trajectory(evolve(params, 3), params.dims)
        np.testing.assert_allclose(obs.probs[0], [1, 0, 0, 0], atol=0)
        assert obs.leakage[0] == 0.0
        assert obs.concurrence[0] == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(obs.bell_fidelities[0], [0.5, 0.5, 0, 0], atol=1e-14)

    def test_shapes(self):
        params = SystemParams(dims=ModeDims(4, 3))
        obs = annotate_trajectory(evolve(params, 9), params.dims)
        assert obs.probs.shape == obs.bell_fidelities.shape == (10, 4)
        assert obs.leakage.shape == obs.concurrence.shape == (10,)

    def test_partition_of_unity(self):
        params = SystemParams(dims=ModeDims(6, 6))
        obs = annotate_trajectory(evolve(params, 100), params.dims)
        np.testing.assert_allclose(
            obs.probs.sum(axis=1) + obs.leakage, 1.0, rtol=0, atol=1e-9
        )

    def test_matches_per_row_reference(self):
        # float64 roundoff on four-component sums stays far below 1e-14
        params = SystemParams(alpha=0.3, epsilon=0.05 + 0.02j, dims=ModeDims(5, 4))
        states = evolve(params, 200)
        obs = annotate_trajectory(states, params.dims)
        for k, psi in enumerate(states):
            state, leakage = project_to_qubits(psi, params.dims)
            raw = np.array(
                [psi[joint_index(m, n, params.dims)] for m in (0, 1) for n in (0, 1)]
            )
            np.testing.assert_allclose(obs.probs[k], np.abs(raw) ** 2, rtol=0, atol=1e-14)
            assert abs(obs.leakage[k] - leakage) <= 1e-14
            assert abs(obs.concurrence[k] - concurrence_pure(state)) <= 1e-14
            np.testing.assert_allclose(
                obs.bell_fidelities[k], bell_fidelities(state), rtol=0, atol=1e-14
            )
        # the trajectory leaves the qubit subspace, so leakage is exercised
        assert obs.leakage.max() > 1e-3

    @pytest.mark.parametrize(
        "layout",
        [lambda s: s, np.asfortranarray, lambda s: s[::2]],
        ids=["C", "F", "every-other-row"],
    )
    @pytest.mark.parametrize(
        "params, kicks",
        [
            (SystemParams(), 600),
            (SystemParams(alpha=0.3, epsilon=0.05 + 0.02j, dims=ModeDims(5, 4)), 200),
        ],
        ids=["D225", "D20"],
    )
    def test_norms_equal_per_row_vdot(self, params, kicks, layout):
        # the batched row norms equal one np.vdot per row bit for bit, so
        # the leakage equals project_to_qubits' exactly, also where the rows
        # are strided (a Fortran-ordered copy, every other row)
        states = layout(evolve(params, kicks))
        obs = annotate_trajectory(states, params.dims)
        leakage = [project_to_qubits(psi, params.dims)[1] for psi in states]
        assert np.array_equal(obs.leakage, leakage)
        assert obs.leakage.max() > 0.0

    def test_peak_memory_stays_below_a_quarter_block(self):
        # the row norms take no conjugated copy of the block; what remains
        # are the (K+1, 4) and (K+1,) observable arrays
        params = SystemParams()
        block = evolve(params, propagation.BLOCK_KICKS - 1)
        assert block.shape == (propagation.BLOCK_KICKS, 225)
        peak = traced_peak(lambda: annotate_trajectory(block, params.dims))
        assert peak < 0.25 * block.nbytes, peak / block.nbytes

    def test_rejects_states_of_other_dimension(self):
        params = SystemParams(dims=ModeDims(4, 4))
        with pytest.raises(ValueError, match=r"states have shape \(3, 16\), expected \(K\+1, 12\)"):
            annotate_trajectory(evolve(params, 2), ModeDims(4, 3))

    def test_degenerate_row(self):
        dims = ModeDims(4, 4)
        states = np.array(
            [basis_state(0, 0, dims), basis_state(3, 3, dims), basis_state(1, 1, dims)]
        )
        with pytest.raises(ContractViolationError, match="no numerical support"):
            annotate_trajectory(states, dims)
