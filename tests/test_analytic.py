from dataclasses import replace

import numpy as np
import pytest

from kicked_coupler import (
    ContractViolationError,
    ModeDims,
    Ordering,
    SystemParams,
    calibrate_sampling,
    evolve_blocks,
    kick_frequencies,
    truncated_amplitudes,
    truncated_map_states,
)
from kicked_coupler import propagation
from kicked_coupler.analytic import SINGULAR_COUPLING_THRESHOLD, amplitude_rows
from kicked_coupler.propagation import kick_blocks
from kicked_coupler.numerics import PHASE_ROUNDOFF_TOL

_SQRT2 = np.sqrt(2.0)


def scalar_amplitudes(k, params):
    """The closed forms evaluated one kick at a time with scalar arithmetic,
    the reference for the columnar truncated_amplitudes."""
    eps_t = abs(params.epsilon) * params.T
    alpha = abs(params.alpha)
    if eps_t <= SINGULAR_COUPLING_THRESHOLD:
        return [complex(np.cos(k * alpha)), 0j, -1j * np.sin(k * alpha), 0j]
    if alpha < 1e-300:
        return [1.0 + 0j, 0j, 0j, 0j]
    om, om1, om2 = kick_frequencies(params)
    cos1 = np.cos(k * om1 / _SQRT2)
    cos2 = np.cos(k * om2 / _SQRT2)
    sin1 = np.sin(k * om1 / _SQRT2)
    sin2 = np.sin(k * om2 / _SQRT2)
    c00 = ((2 * alpha**2 - om2**2) * cos1 - (2 * alpha**2 - om1**2) * cos2) / (
        2 * eps_t * om
    )
    c01 = (alpha / om) * (cos1 - cos2)
    c10 = (1j * alpha / (_SQRT2 * eps_t * om * om1 * om2)) * (
        (om2**2 - 2 * (eps_t**2 + alpha**2)) * om2 * sin1
        + eps_t * (eps_t - om) * om1 * sin2
    )
    c11 = (1j * _SQRT2 * alpha**2 / om) * (sin2 / om2 - sin1 / om1)
    return [complex(c00), complex(c01), complex(c10), complex(c11)]


def scalar_reference(n_kicks, params):
    return np.array([scalar_amplitudes(k, params) for k in range(n_kicks + 1)])


def uncoupled(n_kicks, alpha):
    """The epsilon = 0 amplitudes: mode a Rabi-oscillates with angle k*alpha."""
    return truncated_amplitudes(n_kicks, SystemParams(epsilon=0.0, alpha=alpha))


class TestKickFrequencies:
    def test_reference_point(self, default_params):
        # frozen from a direct high-precision evaluation of the definitions
        # at alpha = 1/25, epsilon = 1/100, T = 1
        omega, omega1, omega2 = kick_frequencies(default_params)
        assert omega == pytest.approx(0.0806225774829855, abs=1e-14)
        assert omega1 == pytest.approx(0.06407983906682237, abs=1e-14)
        assert omega2 == pytest.approx(0.04993770344309143, abs=1e-14)

    def test_uncoupled_limit(self):
        omega, omega1, omega2 = kick_frequencies(SystemParams(epsilon=0.0, alpha=0.04))
        assert omega == pytest.approx(2 * 0.04, abs=1e-15)
        assert omega1 == pytest.approx(np.sqrt(2) * 0.04, abs=1e-15)
        assert omega2 == pytest.approx(np.sqrt(2) * 0.04, abs=1e-15)

    def test_undriven_limit(self):
        omega, omega1, omega2 = kick_frequencies(
            SystemParams(epsilon=0.01, alpha=0.0, T=2.0)
        )
        assert omega == pytest.approx(0.02, abs=1e-15)
        assert omega1 == pytest.approx(np.sqrt(2) * 0.02, abs=1e-15)
        assert omega2 == pytest.approx(0.0, abs=1e-15)

    def test_defining_relations(self, rng):
        for _ in range(20):
            params = SystemParams(
                epsilon=rng.uniform(1e-4, 0.1),
                alpha=rng.uniform(1e-4, 0.1),
                T=rng.uniform(0.3, 3),
            )
            omega, omega1, omega2 = kick_frequencies(params)
            eps_t = abs(params.epsilon) * params.T
            alpha = abs(params.alpha)
            assert omega**2 == pytest.approx(eps_t**2 + 4 * alpha**2, rel=1e-12)
            assert omega1 >= omega2 >= 0
            assert (omega1 * omega2) ** 2 == pytest.approx(
                (eps_t**2 + 2 * alpha**2) ** 2 - eps_t**2 * omega**2, rel=1e-9
            )


class TestTruncatedAmplitudes:
    def test_shape(self, default_params):
        assert truncated_amplitudes(7, default_params).shape == (8, 4)

    def test_initial_state(self, default_params):
        amps = truncated_amplitudes(0, default_params)
        np.testing.assert_allclose(amps[0], [1, 0, 0, 0], atol=1e-12)

    def test_matches_four_level_map(self, default_params):
        # the four-level kicked map under mid-pulse sampling is the
        # independent reference for the closed forms
        numeric = truncated_map_states(50, default_params, Ordering.MID_PULSE)
        analytic = truncated_amplitudes(50, default_params)
        assert np.max(np.abs(numeric - analytic)) < 1e-3

    def test_weak_coupling_approaches_uncoupled_formulas(self):
        params = SystemParams(epsilon=1e-6, alpha=0.04)
        coupled = truncated_amplitudes(10, params)[10]
        assert np.max(np.abs(coupled - uncoupled(10, 0.04)[10])) < 1e-4

    def test_weak_coupling_continuity(self):
        params = SystemParams(epsilon=1e-6, alpha=0.04)
        diff = np.abs(truncated_amplitudes(100, params) - uncoupled(100, 0.04))
        assert np.max(diff[::10]) < 1e-4

    def test_normalization_over_long_window(self, default_params):
        amps = truncated_amplitudes(5000, default_params)[::13]
        defect = np.max(np.abs(1.0 - np.sum(np.abs(amps) ** 2, axis=1)))
        assert defect < 1e-12

    def test_below_singular_coupling_gives_uncoupled_amplitudes(self):
        amps = truncated_amplitudes(3, SystemParams(epsilon=1e-13))
        assert np.array_equal(amps, uncoupled(3, 0.04))

    def test_zero_drive_is_stationary_vacuum(self):
        amps = truncated_amplitudes(17, SystemParams(alpha=0.0))
        np.testing.assert_allclose(amps, np.tile([1, 0, 0, 0], (18, 1)), atol=0)

    @pytest.mark.parametrize(
        "params, match",
        [
            # |alpha| << |epsilon T|: omega2 rounds to 0, 1/omega2 would blow up
            (SystemParams(alpha=1e-5, epsilon=1.0), "omega2"),
            # phases k * omega1 / sqrt2 that keep no significant digit; the
            # phase contract is checked before the amplitudes are evaluated
            (SystemParams(alpha=1e150), "phase roundoff"),
            (SystemParams(alpha=1e100), "phase roundoff"),
            # finite closed forms whose probabilities do not sum to 1
            (SystemParams(alpha=17.0, epsilon=1e-11), "sum to 1"),
        ],
        ids=["omega2-cancels", "alpha-1e150", "alpha-1e100", "alpha-17-epsilon-1e-11"],
    )
    def test_contract_violations(self, params, match):
        with np.errstate(all="ignore"):
            with pytest.raises(ContractViolationError, match=match):
                truncated_amplitudes(3, params)

    @pytest.mark.parametrize("alpha", [1e100, 1e150])
    def test_normalization_contract_at_k0(self, alpha):
        # k = 0 has no phase to lose, but om1^2 - om2^2 cancels all digits
        with pytest.raises(ContractViolationError, match="sum to 1"):
            truncated_amplitudes(0, SystemParams(alpha=alpha))

    @pytest.mark.parametrize(
        "params",
        [SystemParams(alpha=1e6, epsilon=1.0, T=1e6), SystemParams(alpha=1e6, epsilon=0.0)],
        ids=["coupled", "uncoupled"],
    )
    def test_phase_roundoff_contract(self, params):
        # the largest phase of k kicks is k * omega1 / sqrt2 (k * |alpha|
        # uncoupled); the bound is the full-basis unitaries' one
        if params.epsilon:
            frequency = kick_frequencies(params)[1] / _SQRT2
        else:
            frequency = abs(params.alpha)
        limit = PHASE_ROUNDOFF_TOL / np.finfo(float).eps / frequency
        assert 1000 < limit < 5000
        truncated_amplitudes(int(0.99 * limit), params)
        with pytest.raises(ContractViolationError, match="phase roundoff"):
            truncated_amplitudes(int(1.01 * limit), params)

    def test_phase_roundoff_is_checked_per_block(self, monkeypatch):
        # every kick range below the limit is evaluated; the first past it
        # raises and reports its last k
        monkeypatch.setattr(propagation, "BLOCK_KICKS", 7)
        params = SystemParams(alpha=1e6, epsilon=0.0)
        limit = PHASE_ROUNDOFF_TOL / np.finfo(float).eps / 1e6
        rows = 0
        with pytest.raises(ContractViolationError, match="phase roundoff") as info:
            for start, stop in kick_blocks(int(limit) + 30):
                rows += len(amplitude_rows(start, stop, params))
        assert rows - 1 <= limit < rows + 6
        assert f"phase roundoff {rows + 6} * |alpha| * 2^-52" in str(info.value)

    @pytest.mark.filterwarnings("error")
    def test_overflow_raises_no_numpy_warning(self):
        # at k = 0 the phases are 0, and _SQRT2 * eps_t * om * om1 * om2
        # overflows; the finite row that results passes every contract
        amps = truncated_amplitudes(0, SystemParams(T=1e100, alpha=1e98))
        assert np.isfinite(amps).all()

    def test_normalization_passes_where_the_forms_hold(self):
        # measured defects over 2000 kicks: 2.8e-12 at epsilon = 1e-6 and
        # 8e-9 at epsilon = 1e-9, both well inside CLOSED_FORM_NORM_TOL
        for epsilon in (1e-6, 1e-9):
            amps = truncated_amplitudes(2000, SystemParams(epsilon=epsilon))
            assert np.max(np.abs(np.sum(np.abs(amps) ** 2, axis=1) - 1)) < 1e-7

    def test_rejects_negative_kick_count(self, default_params):
        with pytest.raises(ValueError):
            truncated_amplitudes(-1, default_params)


class TestUncoupledAmplitudes:
    def test_initial_state(self):
        amps = truncated_amplitudes(0, SystemParams(epsilon=0.0))
        np.testing.assert_allclose(amps[0], [1, 0, 0, 0], atol=0)

    def test_quarter_period(self):
        # k*alpha = pi/2 leaves exactly one photon in mode a
        alpha = np.pi / 2 / 40
        amps = truncated_amplitudes(40, SystemParams(epsilon=0.0, alpha=alpha))
        np.testing.assert_allclose(amps[40], [0, 0, -1j, 0], atol=1e-12)

    def test_exact_normalization(self):
        amps = truncated_amplitudes(251, SystemParams(epsilon=0.0))
        norms = np.linalg.norm(amps[[0, 3, 17, 251]], axis=1)
        np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-15)


class TestMatchesScalarFormulas:
    """The columnar closed forms equal the per-kick scalar formulas bit for
    bit, in every branch."""

    def test_coupled(self, rng, default_params):
        cases = [default_params, SystemParams(alpha=0.3, epsilon=0.05, T=1.7)]
        cases += [
            SystemParams(
                alpha=complex(*rng.uniform(-0.1, 0.1, size=2)),
                epsilon=rng.uniform(-0.05, 0.05),
                T=rng.uniform(0.3, 3),
            )
            for _ in range(20)
        ]
        for params in cases:
            assert np.array_equal(
                truncated_amplitudes(500, params), scalar_reference(500, params)
            )

    @pytest.mark.parametrize("epsilon", [0.0, 1e-13])
    def test_uncoupled(self, epsilon):
        for alpha in (0.04, 0.3 - 0.1j):
            params = SystemParams(epsilon=epsilon, alpha=alpha)
            assert np.array_equal(
                truncated_amplitudes(500, params), scalar_reference(500, params)
            )

    def test_zero_drive(self):
        params = SystemParams(alpha=0.0)
        assert np.array_equal(
            truncated_amplitudes(50, params), scalar_reference(50, params)
        )


BLOCK_CASES = {
    "reference": SystemParams(),
    "strong": SystemParams(alpha=0.3 - 0.1j, epsilon=0.05, T=1.7),
    "uncoupled": SystemParams(epsilon=0.0),
    "zero-drive": SystemParams(alpha=0.0),
}


class TestAmplitudeBlocks:
    """The closed forms evaluated over the kick_blocks ranges are the rows
    of truncated_amplitudes, in the blocks that evolve_blocks yields."""

    @pytest.mark.parametrize("block", [7, None], ids=["block-7", "block-default"])
    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_blocks_concatenate_to_the_whole_array(self, monkeypatch, block, case):
        if block is not None:
            monkeypatch.setattr(propagation, "BLOCK_KICKS", block)
        b = propagation.BLOCK_KICKS
        params = BLOCK_CASES[case]
        for n_kicks in (0, 1, b - 1, b, b + 1, 3 * b + 5):
            blocks = [amplitude_rows(*rows, params) for rows in kick_blocks(n_kicks)]
            states = evolve_blocks(replace(params, dims=ModeDims(2, 2)), n_kicks)
            assert [len(x) for x in blocks] == [len(x) for x in states]
            assert np.array_equal(
                np.concatenate(blocks), truncated_amplitudes(n_kicks, params)
            )

    @pytest.mark.parametrize(
        "params, match",
        [
            (SystemParams(alpha=1e-5, epsilon=1.0), "omega2"),
            (SystemParams(alpha=1e100), "phase roundoff"),
            (SystemParams(alpha=17.0, epsilon=1e-11), "sum to 1"),
        ],
        ids=["omega2-cancels", "alpha-1e100", "alpha-17-epsilon-1e-11"],
    )
    def test_first_block_checks_the_contracts(self, monkeypatch, params, match):
        monkeypatch.setattr(propagation, "BLOCK_KICKS", 7)
        start, stop = next(kick_blocks(30))
        with np.errstate(all="ignore"):
            with pytest.raises(ContractViolationError, match=match):
                amplitude_rows(start, stop, params)


class TestCalibration:
    def test_mid_pulse_sampling_wins(self, default_params):
        best, deviations = calibrate_sampling(default_params)
        assert best is Ordering.MID_PULSE
        assert deviations[Ordering.MID_PULSE] < 1e-3
        # the post-step conventions carry a visible half-kick offset
        assert deviations[Ordering.KICK_THEN_FREE] > deviations[Ordering.MID_PULSE]
        assert deviations[Ordering.FREE_THEN_KICK] > deviations[Ordering.MID_PULSE]

    def test_truncated_map_norms(self, default_params):
        states = truncated_map_states(100, default_params)
        np.testing.assert_allclose(
            np.linalg.norm(states, axis=1), 1.0, atol=1e-10
        )
