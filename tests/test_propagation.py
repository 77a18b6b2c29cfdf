import functools
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from kicked_coupler import (
    ContractViolationError,
    ModeDims,
    Ordering,
    SystemParams,
    annotate_trajectory,
    build_coupler_hamiltonian,
    evolve,
    evolve_blocks,
    joint_index,
    truncated_amplitudes,
    truncated_map_states,
)
from kicked_coupler import propagation
from kicked_coupler.hamiltonians import basis_state, build_kick_generator
from kicked_coupler.propagation import UNITARY_INPUTS, kick_blocks, scan_blocks
from conftest import MATRIX_BYTES, off_norm_vacuum, scaled_steps, traced_peak


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


def period_matrix(params, ordering):
    """One period's matrix, the step applied last leftmost, written out."""
    u_free, u_kick = step_unitaries(params)
    if ordering is Ordering.MID_PULSE:
        half = propagation._step_unitary("half", params, {})
        return half @ u_free @ half
    if ordering is Ordering.KICK_THEN_FREE:
        return u_free @ u_kick
    return u_kick @ u_free


def iterate(factors, params, n_kicks):
    """The states from the vacuum on, each factor applied in turn per kick."""
    psi = basis_state(0, 0, params.dims)
    states = [psi]
    for _ in range(n_kicks):
        for u in factors:
            psi = u @ psi
        states.append(psi)
    return np.array(states)


def loop_reference(params, n_kicks, ordering):
    """The map loop written out, one period matrix per kick: the reference
    for evolve."""
    return iterate([period_matrix(params, ordering)], params, n_kicks)


def two_factor_loop(params, n_kicks, ordering):
    """A plain ordering's map with its kick and free flight applied one
    after the other, not multiplied into one matrix."""
    u_free, u_kick = step_unitaries(params)
    first_kick = ordering is Ordering.KICK_THEN_FREE
    return iterate([u_kick, u_free] if first_kick else [u_free, u_kick], params, n_kicks)


class TestMapStep:
    def test_fraction_period_gives_the_float_period_rows(self):
        # the free step runs for float(T), as the closed forms do
        dims = ModeDims(4, 3)
        rows = evolve(SystemParams(T=Fraction(1, 2), dims=dims), 3)
        assert rows.tobytes() == evolve(SystemParams(T=0.5, dims=dims), 3).tobytes()

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

    @pytest.mark.parametrize("ordering", list(Ordering))
    @pytest.mark.parametrize("block", [7, propagation.BLOCK_KICKS])
    def test_matches_loop_reference_across_block_edges(self, monkeypatch, ordering, block):
        # the state carried from one block into the next is the loop's
        monkeypatch.setattr(propagation, "BLOCK_KICKS", block)
        params = SystemParams(alpha=0.05 + 0.01j, epsilon=0.02, dims=ModeDims(5, 4))
        n = 2 * block + 5
        assert np.array_equal(
            evolve(params, n, ordering=ordering), loop_reference(params, n, ordering)
        )

    @pytest.mark.parametrize("ordering", [Ordering.KICK_THEN_FREE, Ordering.FREE_THEN_KICK])
    def test_period_matrix_keeps_the_two_factor_observables(self, ordering):
        # one product per period instead of two matvecs moves only roundoff
        # (1.6e-14 over 2000 kicks); a product taken in the wrong order
        # moves the observables far more
        params = SystemParams()
        n = 2000
        fast = annotate_trajectory(evolve(params, n, ordering=ordering), params.dims)
        slow = annotate_trajectory(two_factor_loop(params, n, ordering), params.dims)
        for field in fields(fast):
            name = field.name
            assert np.max(np.abs(getattr(fast, name) - getattr(slow, name))) <= 1e-13, name

    @pytest.mark.parametrize("ordering", list(Ordering))
    def test_one_matvec_per_kick(self, monkeypatch, ordering):
        calls = []
        original = np.dot

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return original(*args, **kwargs)

        monkeypatch.setattr(np, "dot", counted)
        list(evolve_blocks(SystemParams(dims=ModeDims(5, 4)), 50, ordering=ordering))
        assert calls == [(20, 20)] * 50

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

    @pytest.mark.parametrize("n_kicks", [2.5, 3.0, np.float64(3), "3", None])
    @pytest.mark.parametrize("call", [evolve, evolve_blocks])
    def test_rejects_a_kick_count_that_is_not_an_integer(self, monkeypatch, call, n_kicks):
        # 2.5 built the period matrix, then failed in numpy with a TypeError
        def no_build(params):
            raise AssertionError("a generator was built")

        monkeypatch.setattr(propagation, "build_coupler_hamiltonian", no_build)
        monkeypatch.setattr(propagation, "build_kick_generator", no_build)
        with pytest.raises(ValueError, match="^n_kicks must be a nonnegative integer, got "):
            call(SystemParams(dims=ModeDims(3, 3)), n_kicks)

    @pytest.mark.parametrize("n_kicks, rows", [(np.int64(3), 4), (True, 2)])
    def test_accepts_numpy_integers_and_bools(self, n_kicks, rows):
        params = SystemParams(dims=ModeDims(3, 3))
        assert evolve(params, n_kicks).tobytes() == evolve(params, rows - 1).tobytes()

    def test_midpulse_record_count(self):
        states = evolve(SystemParams(dims=ModeDims(4, 4)), 7, ordering=Ordering.MID_PULSE)
        assert states.shape == (8, 16)
        assert np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)) <= 1e-10


class TestOrderingTable:
    """An Ordering or its value selects the row of propagation._PERIOD_STEPS;
    anything else is refused before a generator is built."""

    @pytest.mark.parametrize("ordering", list(Ordering), ids=lambda o: o.value)
    def test_value_selects_its_member(self, ordering):
        params = SystemParams()
        by_value = evolve(params, 50, ordering=ordering.value)
        assert type(ordering.value) is str
        assert by_value.tobytes() == evolve(params, 50, ordering=ordering).tobytes()

    @pytest.mark.parametrize("ordering", ["nonsense", None])
    @pytest.mark.parametrize(
        "call",
        [
            lambda params, ordering: evolve(params, 5, ordering=ordering),
            lambda params, ordering: evolve_blocks(params, 5, ordering=ordering),
            lambda params, ordering: truncated_map_states(5, params, ordering),
        ],
        ids=["evolve", "evolve_blocks", "truncated_map_states"],
    )
    def test_anything_else_is_refused_before_a_build(self, monkeypatch, call, ordering):
        def no_build(params):
            raise AssertionError("a generator was built")

        monkeypatch.setattr(propagation, "build_coupler_hamiltonian", no_build)
        monkeypatch.setattr(propagation, "build_kick_generator", no_build)
        with pytest.raises(ValueError, match="is not a valid Ordering"):
            call(SystemParams(dims=ModeDims(3, 3)), ordering)

    def test_one_row_per_member_and_one_half_kick(self):
        assert set(propagation._PERIOD_STEPS) == set(Ordering)
        factors = propagation._period_factors(SystemParams(), Ordering.MID_PULSE, {})
        assert len(factors) == 3 and factors[0] is factors[-1]


B = propagation.BLOCK_KICKS


def concatenated(blocks):
    """The rows of the (start, block) pairs evolve_blocks yields, as one
    array."""
    return np.concatenate([block for _, block in blocks])


class TestEvolveBlocks:
    PARAMS = SystemParams(alpha=0.05 + 0.01j, epsilon=0.02, dims=ModeDims(4, 3))

    @pytest.mark.parametrize("ordering", list(Ordering))
    @pytest.mark.parametrize("scanned", [False, True])
    def test_blocks_concatenate_to_evolve(self, ordering, scanned):
        for n in (0, 1, B - 1, B, B + 1, 3 * B + 5):
            if scanned:
                # a one-point scan yields the blocks of that point
                [(_, blocks)] = scan_blocks(self.PARAMS, "alpha", [self.PARAMS.alpha], n, ordering)
            else:
                blocks = evolve_blocks(self.PARAMS, n, ordering=ordering)
            blocks = list(blocks)
            # each block's start is the first kick of its kick_blocks range
            assert [start for start, _ in blocks] == [start for start, _ in kick_blocks(n)]
            assert np.array_equal(
                concatenated(blocks), evolve(self.PARAMS, n, ordering=ordering)
            ), n

    def test_block_shapes(self):
        for n in (0, B - 1, B, 3 * B + 5):
            sizes = [len(block) for _, block in evolve_blocks(self.PARAMS, n)]
            assert sum(sizes) == n + 1
            assert all(size == B for size in sizes[:-1])
            assert 1 <= sizes[-1] <= B
            assert len(sizes) == n // B + 1

    def test_block_size_is_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(propagation, "BLOCK_KICKS", 7)
        blocks = list(evolve_blocks(self.PARAMS, 20))
        assert [(start, len(block)) for start, block in blocks] == [(0, 7), (7, 7), (14, 7)]
        assert np.array_equal(concatenated(blocks), evolve(self.PARAMS, 20))

    def test_arguments_are_checked_at_call(self):
        # before any block is requested
        with pytest.raises(ValueError):
            evolve_blocks(self.PARAMS, -1)

    def test_norm_contract_before_the_last_block(self, monkeypatch):
        off_norm_vacuum(monkeypatch)
        blocks = evolve_blocks(self.PARAMS, 2 * B + 3)
        assert [len(next(blocks)[1]) for _ in range(2)] == [B, B]
        with pytest.raises(ContractViolationError, match="norm"):
            next(blocks)

    def test_consumer_that_stops_at_the_last_block_sees_the_violation(self, monkeypatch):
        # zip stops once range is exhausted, without asking for a fourth block
        off_norm_vacuum(monkeypatch)
        with pytest.raises(ContractViolationError, match="norm"):
            list(zip(range(3), evolve_blocks(self.PARAMS, 2 * B + 3)))


class TestBuildPeakMemory:
    @pytest.mark.parametrize("ordering", list(Ordering))
    def test_period_factors_peak_is_four_matrices(self, ordering):
        # the generator is freed when eigh returns, so the unitary built
        # first, V, its phase-scaled copy and the product are the peak
        params = SystemParams()
        assert params.dims.joint ** 2 * 16 == MATRIX_BYTES
        peak = traced_peak(lambda: propagation._period_factors(params, ordering, {}))
        assert peak <= 4 * MATRIX_BYTES + 64 * 1024, peak / MATRIX_BYTES

    @pytest.mark.parametrize("ordering", list(Ordering))
    def test_period_matrix_peak_is_four_matrices(self, ordering):
        # the factors and their product: three matrices for the plain
        # orderings, four with mid-pulse's intermediate u_half @ u_free
        params = SystemParams()
        peak = traced_peak(lambda: evolve_blocks(params, 1, ordering=ordering))
        assert peak <= 4 * MATRIX_BYTES + 64 * 1024, peak / MATRIX_BYTES


class TestLoopPeakMemory:
    def test_a_consumer_that_drops_each_block_holds_one(self):
        # the step unitaries are built by the call, before tracing starts;
        # the loop then holds one block, its scratch vector and the
        # observables' temporaries, as the CLI's simulate mode does
        params = SystemParams()
        blocks = evolve_blocks(params, 3 * B)
        block_bytes = B * params.dims.joint * 16

        def consume():
            for _, block in blocks:
                obs = annotate_trajectory(block, params.dims)
                del block
            return obs

        peak = traced_peak(consume)
        assert peak < 1.5 * block_bytes, peak / block_bytes

    @pytest.mark.parametrize(
        "field, values", [("alpha", (0.03, 0.04, 0.05)), ("epsilon", (0.0, 0.01, -0.02j)),
                          ("T", (0.5, 1.0, 1.5))]
    )
    def test_a_scan_loop_holds_below_four_matrices(self, field, values):
        # each point's loop holds the reused step unitary, the period matrix
        # and one block (3.72 matrices at 384 rows); the varied unitary of
        # the point, were it kept for a later point, would add one more (4.71)
        peaks = []

        def scan():
            for _, blocks in scan_blocks(SystemParams(), field, values, 2 * B + 1):
                tracemalloc.reset_peak()
                for _, block in blocks:
                    del block
                peaks.append(tracemalloc.get_traced_memory()[1])

        traced_peak(scan)
        assert len(peaks) == 3
        assert max(peaks) <= 4 * MATRIX_BYTES, [peak / MATRIX_BYTES for peak in peaks]


# Hashes the blocks of a 2 B + 1 kick loop from the vacuum under each
# period matrix saved at the paths it is given, one line per matrix
BLOCK_HASHES = """
import hashlib, sys
import numpy as np
from kicked_coupler import SystemParams, propagation
for path in sys.argv[1:]:
    digest = hashlib.sha256()
    n_kicks = 2 * propagation.BLOCK_KICKS + 1
    for _, block in propagation._blocks(SystemParams().dims, n_kicks, np.load(path)):
        digest.update(block.tobytes())
    print(digest.hexdigest())
"""


class TestBlasThreads:
    def test_loop_bits_do_not_depend_on_the_thread_count(self, tmp_path):
        # the period matrices are built once and loaded by both runs: their
        # builds (eigh, zgemm) change bits with the thread count, the loop's
        # matrix-vector products must not
        paths = []
        for ordering in Ordering:
            factors = propagation._period_factors(SystemParams(), ordering, {})
            paths.append(tmp_path / f"{ordering.value}.npy")
            np.save(paths[-1], functools.reduce(np.matmul, reversed(factors)))
        src = Path(__file__).resolve().parent.parent / "src"
        hashes = []
        for threads in ("1", "2"):
            done = subprocess.run(
                [sys.executable, "-c", BLOCK_HASHES, *map(str, paths)],
                env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads},
                capture_output=True,
                text=True,
            )
            assert done.returncode == 0, done.stderr
            hashes.append(done.stdout.split())
        assert len(hashes[0]) == len(Ordering)
        assert hashes[0] == hashes[1]


def counted_builds(monkeypatch):
    """The names of the generators built from now on, in build order."""
    built = []
    for name in ("build_coupler_hamiltonian", "build_kick_generator"):
        original = getattr(propagation, name)

        def counted(params, _name=name, _original=original):
            built.append(_name)
            return _original(params)

        monkeypatch.setattr(propagation, name, counted)
    return built


class TestScanBlocks:
    BASE = SystemParams(alpha=0.05 + 0.01j, epsilon=0.02, dims=ModeDims(5, 4))
    # three values of each field a scan may vary
    SCANS = {
        "alpha": (0.05 + 0.01j, 0.03, 0.07),
        "epsilon": (0.02, -0.015j, 0.01),
        "T": (1.0, 1.7, 0.4),
        "chi_a": (1.0, 0.3, 0.0),
        "chi_b": (1.0, 0.3, 2.0),
        "dims": (ModeDims(5, 4), ModeDims(4, 4), ModeDims(3, 5)),
    }

    @pytest.mark.parametrize("ordering", list(Ordering))
    @pytest.mark.parametrize("field", list(SCANS))
    def test_every_point_gives_the_uncached_states(self, ordering, field):
        values = self.SCANS[field]
        points = list(scan_blocks(self.BASE, field, values, 30, ordering))
        assert [value for value, _ in points] == list(values)
        for value, blocks in points:
            params = replace(self.BASE, **{field: value})
            assert np.array_equal(concatenated(blocks), evolve(params, 30, ordering=ordering))

    @pytest.mark.parametrize("ordering", list(Ordering))
    @pytest.mark.parametrize(
        "field, reused",
        [("alpha", "build_coupler_hamiltonian"), ("epsilon", "build_kick_generator"),
         ("T", "build_kick_generator"), ("dims", None)],
    )
    def test_builds_the_generator_a_field_skips_once(self, monkeypatch, ordering, field, reused):
        # an alpha scan builds H once and G once per point (the half kick
        # once per mid-pulse period), an epsilon or T scan the reverse
        built = counted_builds(monkeypatch)
        points = scan_blocks(self.BASE, field, self.SCANS[field], 2, ordering)
        assert built == []  # a pair is formed only when it is asked for
        per_point = []
        for _, blocks in points:
            per_point.append(sorted(built))
            built.clear()
            list(blocks)
        both = ["build_coupler_hamiltonian", "build_kick_generator"]
        varied = [name for name in both if name != reused]
        assert per_point == [both] + [varied] * (len(self.SCANS[field]) - 1)

    @pytest.mark.parametrize("field", ["Alpha", "eps", "", "kick"])
    def test_field_must_name_a_field(self, monkeypatch, field):
        # a misspelt field is refused before a generator is built
        built = counted_builds(monkeypatch)
        with pytest.raises(TypeError, match=f"unexpected keyword argument {field!r}"):
            next(scan_blocks(self.BASE, field, [0.03], 3))
        assert built == []
        # the generators read no field beyond those UNITARY_INPUTS lists
        # (below), and every field is listed in some row
        listed = set().union(*UNITARY_INPUTS.values())
        assert listed == {f.name for f in fields(SystemParams)}

    def test_values_are_drawn_as_pairs_are_asked_for(self):
        drawn = []

        def values():
            for value in (0.03, 0.05, 0.07):
                drawn.append(value)
                yield value

        points = scan_blocks(self.BASE, "alpha", values(), 3)
        assert drawn == []
        assert next(points)[0] == 0.03
        assert drawn == [0.03]


class TestUnitaryCache:
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
        off_norm_vacuum(monkeypatch)
        for ordering in Ordering:
            with pytest.raises(ContractViolationError, match="squared norm drifted from 1 to "):
                evolve(SystemParams(dims=ModeDims(3, 3)), 5, ordering=ordering)

    def test_nan_norm_raises(self, monkeypatch):
        off_norm_vacuum(monkeypatch, np.nan)
        with pytest.raises(ContractViolationError, match="squared norm drifted from 1 to nan"):
            evolve(SystemParams(dims=ModeDims(3, 3)), 2)


class TestUnitarityContract:
    @pytest.mark.parametrize("ordering", list(Ordering))
    @pytest.mark.parametrize("scale", [1.001, 1 + 1e-9, np.nan])
    def test_non_unitary_period_is_refused_before_any_block(self, monkeypatch, ordering, scale):
        # P^+ P is scale^4 (plain orderings) or scale^6 (mid-pulse) times
        # the identity: at 1 + 1e-9 a defect of 4e-9 / sqrt(D) or more,
        # 9e-10 at D = 20
        scaled_steps(monkeypatch, scale)
        with pytest.raises(ContractViolationError, match=r"period matrix is not unitary: max "):
            evolve_blocks(SystemParams(dims=ModeDims(5, 4)), 10, ordering=ordering)

    @pytest.mark.parametrize("ordering", list(Ordering))
    def test_roundoff_passes(self, monkeypatch, ordering):
        # a defect of 4e-13 / sqrt(D), a thousandth of the bound, passes
        params = SystemParams(dims=ModeDims(5, 4))
        expected = evolve(params, 10, ordering=ordering)
        scaled_steps(monkeypatch, 1 + 1e-13)
        assert np.allclose(evolve(params, 10, ordering=ordering), expected, rtol=1e-11)

    def test_probe_sees_a_defect_in_any_column(self, monkeypatch):
        # every probe vector has support on every basis state
        params = SystemParams(dims=ModeDims(5, 4))
        original = propagation.unitary_from_generator
        for column in range(params.dims.joint):

            def broken(h, t, _column=column):
                u = original(h, t)
                u[:, _column] *= 1 + 1e-8
                return u

            monkeypatch.setattr(propagation, "unitary_from_generator", broken)
            with pytest.raises(ContractViolationError, match="not unitary"):
                evolve_blocks(params, 1)
