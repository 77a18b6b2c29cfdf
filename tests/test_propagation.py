from dataclasses import fields, replace

import numpy as np
import pytest

from kicked_coupler import (
    ContractViolationError,
    ModeDims,
    Ordering,
    SystemParams,
    build_coupler_hamiltonian,
    evolve,
    evolve_blocks,
    joint_index,
    truncated_amplitudes,
)
from kicked_coupler import numerics, propagation
from kicked_coupler.fock import basis_state
from kicked_coupler.hamiltonians import build_kick_generator
from kicked_coupler.propagation import UNITARY_INPUTS
from conftest import MATRIX_BYTES, traced_peak


def step_unitaries(params):
    """(u_free, u_kick): exp(-i H_NL T) and exp(-i G), as evolve builds them."""
    return propagation._period_factors(params, Ordering.FREE_THEN_KICK, {})


class TestStepOperators:
    def test_zero_drive_gives_identity_kick(self):
        _, u_kick = step_unitaries(SystemParams(alpha=0.0))
        np.testing.assert_allclose(u_kick, np.eye(u_kick.shape[0]), atol=1e-13)

    def test_free_unitary_trivial_on_qubit_states_without_kerr_and_coupling(self):
        params = SystemParams(chi_a=0.0, chi_b=0.0, epsilon=0.0)
        u_free, _ = step_unitaries(params)
        dims = params.dims
        for m, n in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            ket = basis_state(m, n, dims)
            np.testing.assert_allclose(u_free @ ket, ket, atol=1e-12)

    def test_kick_restricted_to_two_levels_is_nearly_a_rotation(self):
        params = SystemParams()
        _, u_kick = step_unitaries(params)
        dims = params.dims
        alpha = abs(params.alpha)
        rotation = np.array(
            [
                [np.cos(alpha), -1j * np.sin(alpha)],
                [-1j * np.sin(alpha), np.cos(alpha)],
            ]
        )
        i00, i10 = joint_index(0, 0, dims), joint_index(1, 0, dims)
        block = u_kick[np.ix_([i00, i10], [i00, i10])]
        # corrections enter through level 2 at order alpha^2
        assert np.max(np.abs(block - rotation)) < 3 * alpha**2

    def test_unitarity(self):
        for u in step_unitaries(SystemParams(dims=ModeDims(8, 8))):
            assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= 1e-10


def loop_reference(params, n_kicks, ordering):
    """The map loop written out step by step: the reference for evolve."""
    u_free, u_kick = step_unitaries(params)
    if ordering is Ordering.MID_PULSE:
        half = propagation._build_unitary("half", params)
        factors = [half @ u_free @ half]
    elif ordering is Ordering.KICK_THEN_FREE:
        factors = [u_kick, u_free]
    else:
        factors = [u_free, u_kick]
    psi = basis_state(0, 0, params.dims)
    states = [psi]
    for _ in range(n_kicks):
        for u in factors:
            psi = u @ psi
        states.append(psi)
    return np.array(states)


class TestMapStep:
    def test_vacuum_stationary_without_drive(self):
        params = SystemParams(alpha=0.0)
        psi = basis_state(0, 0, params.dims)
        for ordering in Ordering:
            states = evolve(params, 20, ordering=ordering)
            np.testing.assert_allclose(states[-1], psi, atol=1e-12)

    def test_uncoupled_rabi_oscillation(self):
        # with epsilon = 0 mode b stays empty and mode a rotates by alpha
        # per kick, up to truncation corrections from higher Fock levels
        params = SystemParams(epsilon=0.0)
        dims = params.dims
        alpha = abs(params.alpha)
        states = evolve(params, 50, ordering=Ordering.KICK_THEN_FREE)
        grids = states.reshape(-1, dims.dim_a, dims.dim_b)
        # exact phase convention visible at k = 1
        assert abs(grids[1, 0, 0] - np.cos(alpha)) < 1e-3
        assert abs(grids[1, 1, 0] - (-1j) * np.sin(alpha)) < 1e-3
        # over longer windows second-order corrections from the virtual |2>
        # excursions accumulate; the occupation probabilities still follow
        # the two-level rotation closely
        for k in range(2, 51):
            grid = grids[k]
            assert abs(abs(grid[0, 0]) ** 2 - np.cos(k * alpha) ** 2) < 1e-2
            assert abs(abs(grid[1, 0]) ** 2 - np.sin(k * alpha) ** 2) < 1e-2
            assert np.sum(np.abs(grid[:, 1:]) ** 2) < 1e-20

    def test_single_step_matches_closed_form(self):
        params = SystemParams()
        psi = evolve(params, 1, ordering=Ordering.KICK_THEN_FREE)[1]
        dims = params.dims
        numeric = np.array(
            [psi[joint_index(m, n, dims)] for m in (0, 1) for n in (0, 1)]
        )
        analytic = truncated_amplitudes(1, params)[1]
        assert np.max(np.abs(numeric - analytic)) < 1e-3


class TestEvolve:
    def test_zero_kicks(self):
        params = SystemParams(dims=ModeDims(4, 4))
        states = evolve(params, 0)
        assert states.shape == (1, 16)
        np.testing.assert_allclose(states[0], basis_state(0, 0, params.dims), atol=0)

    def test_record_count_and_norms(self):
        params = SystemParams(dims=ModeDims(6, 6))
        states = evolve(params, 200)
        assert states.shape == (201, 36)
        assert np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)) <= 1e-9

    @pytest.mark.parametrize("ordering", list(Ordering))
    def test_matches_loop_reference(self, ordering):
        # the same arithmetic as the written-out loop, so equal bit for bit
        params = SystemParams(alpha=0.05 + 0.01j, epsilon=0.02, dims=ModeDims(5, 4))
        assert np.array_equal(
            evolve(params, 60, ordering=ordering),
            loop_reference(params, 60, ordering),
        )

    def test_determinism(self):
        params = SystemParams(dims=ModeDims(5, 5))
        assert np.array_equal(evolve(params, 40), evolve(params, 40))

    def test_energy_conserved_between_kicks(self):
        params = SystemParams(dims=ModeDims(8, 8))
        h = build_coupler_hamiltonian(params)
        u_free, _ = step_unitaries(params)
        # put some excitation in first
        psi = evolve(params, 10, ordering=Ordering.KICK_THEN_FREE)[-1]
        before = np.vdot(psi, h @ psi).real
        after = np.vdot(u_free @ psi, h @ (u_free @ psi)).real
        assert abs(after - before) <= 1e-9 * np.max(np.abs(h))

    def test_rejects_negative_kicks(self):
        with pytest.raises(ValueError):
            evolve(SystemParams(dims=ModeDims(3, 3)), -1)

    def test_midpulse_record_count(self):
        states = evolve(SystemParams(dims=ModeDims(4, 4)), 7, ordering=Ordering.MID_PULSE)
        assert states.shape == (8, 16)
        assert np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)) <= 1e-10


B = propagation.BLOCK_KICKS


def drifting_norm(monkeypatch):
    original = numerics.unitary_from_spectrum
    monkeypatch.setattr(
        numerics,
        "unitary_from_spectrum",
        lambda values, vectors, t: 1.001 * original(values, vectors, t),
    )


class TestEvolveBlocks:
    PARAMS = SystemParams(alpha=0.05 + 0.01j, epsilon=0.02, dims=ModeDims(4, 3))

    @pytest.mark.parametrize("ordering", list(Ordering))
    @pytest.mark.parametrize("shared_cache", [False, True])
    def test_blocks_concatenate_to_evolve(self, ordering, shared_cache):
        cache = {} if shared_cache else None
        for n in (0, 1, B - 1, B, B + 1, 3 * B + 5):
            blocks = list(evolve_blocks(self.PARAMS, n, ordering=ordering, cache=cache))
            assert np.array_equal(
                np.concatenate(blocks), evolve(self.PARAMS, n, ordering=ordering)
            ), n

    def test_block_shapes(self):
        for n in (0, B - 1, B, 3 * B + 5):
            sizes = [len(block) for block in evolve_blocks(self.PARAMS, n)]
            assert sum(sizes) == n + 1
            assert all(size == B for size in sizes[:-1])
            assert 1 <= sizes[-1] <= B
            assert len(sizes) == n // B + 1

    def test_block_size_is_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(propagation, "BLOCK_KICKS", 7)
        blocks = list(evolve_blocks(self.PARAMS, 20))
        assert [len(block) for block in blocks] == [7, 7, 7]
        assert np.array_equal(np.concatenate(blocks), evolve(self.PARAMS, 20))

    def test_arguments_are_checked_at_call(self):
        # before any block is requested
        with pytest.raises(ValueError):
            evolve_blocks(self.PARAMS, -1)

    def test_norm_contract_before_the_last_block(self, monkeypatch):
        drifting_norm(monkeypatch)
        blocks = evolve_blocks(self.PARAMS, 2 * B + 3)
        assert [len(next(blocks)) for _ in range(2)] == [B, B]
        with pytest.raises(ContractViolationError, match="norm"):
            next(blocks)

    def test_consumer_that_stops_at_the_last_block_sees_the_violation(self, monkeypatch):
        # zip stops once range is exhausted, without asking for a fourth block
        drifting_norm(monkeypatch)
        with pytest.raises(ContractViolationError, match="norm"):
            list(zip(range(3), evolve_blocks(self.PARAMS, 2 * B + 3)))


class TestBuildPeakMemory:
    @pytest.mark.parametrize("ordering", list(Ordering))
    def test_period_factors_peak_is_four_matrices(self, ordering):
        # the generator is freed when eigh returns, so the unitary built
        # first, V, its phase-scaled copy and the product are the peak; the
        # mid-pulse product u_half @ u_free @ u_half needs four as well
        params = SystemParams()
        assert params.dims.joint ** 2 * 16 == MATRIX_BYTES
        peak = traced_peak(lambda: propagation._period_factors(params, ordering, {}))
        assert peak <= 4 * MATRIX_BYTES + 64 * 1024, peak / MATRIX_BYTES


def evolve_cached(params, n_kicks, cache, **kwargs):
    """evolve's array, with the step unitaries taken from a shared cache."""
    return np.concatenate(list(evolve_blocks(params, n_kicks, cache=cache, **kwargs)))


class TestUnitaryCache:
    BASE = SystemParams(alpha=0.05 + 0.01j, epsilon=0.02, dims=ModeDims(5, 4))
    # a scan of each parameter, then a change of both generators at once
    SEQUENCE = [
        BASE,
        replace(BASE, alpha=0.03),
        replace(BASE, alpha=0.07),
        replace(BASE, alpha=0.07, epsilon=0.01),
        replace(BASE, alpha=0.07, epsilon=-0.015j),
        replace(BASE, alpha=0.07, epsilon=-0.015j, T=1.7),
        replace(BASE, chi_a=0.3),
        replace(BASE, dims=ModeDims(4, 4)),
        BASE,
    ]

    @pytest.mark.parametrize("ordering", list(Ordering))
    def test_shared_cache_gives_the_uncached_states(self, ordering):
        cache = {}
        for params in self.SEQUENCE:
            assert np.array_equal(
                evolve_cached(params, 30, cache, ordering=ordering),
                evolve(params, 30, ordering=ordering),
            )

    @pytest.mark.parametrize("ordering", list(Ordering))
    def test_at_most_one_unitary_per_kind(self, ordering):
        cache = {}
        for params in self.SEQUENCE:
            evolve_cached(params, 3, cache, ordering=ordering)
            assert set(cache) <= set(UNITARY_INPUTS)
            for kind, (key, u) in cache.items():
                assert key == tuple(getattr(params, f) for f in UNITARY_INPUTS[kind])
                assert u.shape == (params.dims.joint, params.dims.joint)

    def test_rebuilds_only_the_generator_a_change_enters(self, monkeypatch):
        built = []
        for name in ("build_coupler_hamiltonian", "build_kick_generator"):
            original = getattr(propagation, name)

            def counted(params, _name=name, _original=original):
                built.append(_name)
                return _original(params)

            monkeypatch.setattr(propagation, name, counted)
        cache = {}
        evolve_cached(self.BASE, 2, cache)
        assert sorted(built) == ["build_coupler_hamiltonian", "build_kick_generator"]
        for change, rebuilt in [
            ({"alpha": 0.02}, ["build_kick_generator"]),
            ({"epsilon": 0.03}, ["build_coupler_hamiltonian"]),
            ({"T": 0.8}, ["build_coupler_hamiltonian"]),
            ({}, []),
        ]:
            built.clear()
            evolve_cached(replace(self.BASE, **change), 2, cache)
            assert built == rebuilt
            evolve_cached(self.BASE, 2, cache)

    @pytest.mark.parametrize(
        "kind, build",
        [("free", build_coupler_hamiltonian), ("kick", build_kick_generator)],
    )
    def test_fields_outside_the_key_leave_the_generator_unchanged(self, kind, build):
        # every field of SystemParams, so that a new field must either enter
        # the key or leave the generator alone
        params = SystemParams(dims=ModeDims(4, 3))
        reference = build(params).tobytes()
        outside = [f.name for f in fields(SystemParams) if f.name not in UNITARY_INPUTS[kind]]
        assert outside
        for name in outside:
            changed = replace(params, **{name: 2 * getattr(params, name) + 0.5})
            assert build(changed).tobytes() == reference, name


class TestNormContract:
    def test_drifting_norm_raises(self, monkeypatch):
        drifting_norm(monkeypatch)
        for ordering in Ordering:
            with pytest.raises(ContractViolationError, match="norm"):
                evolve(SystemParams(dims=ModeDims(3, 3)), 5, ordering=ordering)

    def test_nan_norm_raises(self, monkeypatch):
        original = numerics.unitary_from_spectrum

        def nan_unitary(values, vectors, t):
            u = original(values, vectors, t)
            u[1, 0] = np.nan
            return u

        monkeypatch.setattr(numerics, "unitary_from_spectrum", nan_unitary)
        with pytest.raises(ContractViolationError, match="norm"):
            evolve(SystemParams(dims=ModeDims(3, 3)), 2)
