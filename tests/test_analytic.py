import numpy as np
import pytest

from kicked_coupler import (
    Ordering,
    SystemParams,
    SingularCouplingError,
    calibrate_sampling,
    kick_frequencies,
    truncated_amplitudes,
    truncated_map_states,
    uncoupled_amplitudes,
)


class TestKickFrequencies:
    def test_reference_point(self, default_params):
        # frozen from a direct high-precision evaluation of the definitions
        # at alpha = 1/25, epsilon = 1/100, T = 1
        fr = kick_frequencies(default_params)
        assert fr.omega == pytest.approx(0.0806225774829855, abs=1e-14)
        assert fr.omega1 == pytest.approx(0.06407983906682237, abs=1e-14)
        assert fr.omega2 == pytest.approx(0.04993770344309143, abs=1e-14)

    def test_uncoupled_limit(self):
        fr = kick_frequencies(SystemParams(epsilon=0.0, alpha=0.04))
        assert fr.omega == pytest.approx(2 * 0.04, abs=1e-15)
        assert fr.omega1 == pytest.approx(np.sqrt(2) * 0.04, abs=1e-15)
        assert fr.omega2 == pytest.approx(np.sqrt(2) * 0.04, abs=1e-15)

    def test_undriven_limit(self):
        fr = kick_frequencies(SystemParams(epsilon=0.01, alpha=0.0, T=2.0))
        assert fr.omega == pytest.approx(0.02, abs=1e-15)
        assert fr.omega1 == pytest.approx(np.sqrt(2) * 0.02, abs=1e-15)
        assert fr.omega2 == pytest.approx(0.0, abs=1e-15)

    def test_defining_relations(self, rng):
        for _ in range(20):
            params = SystemParams(
                epsilon=rng.uniform(1e-4, 0.1),
                alpha=rng.uniform(1e-4, 0.1),
                T=rng.uniform(0.3, 3),
            )
            fr = kick_frequencies(params)
            eps_t = abs(params.epsilon) * params.T
            alpha = abs(params.alpha)
            assert fr.omega**2 == pytest.approx(eps_t**2 + 4 * alpha**2, rel=1e-12)
            assert fr.omega1 >= fr.omega2 >= 0
            assert (fr.omega1 * fr.omega2) ** 2 == pytest.approx(
                (eps_t**2 + 2 * alpha**2) ** 2 - eps_t**2 * fr.omega**2, rel=1e-9
            )


class TestTruncatedAmplitudes:
    def test_initial_state(self, default_params):
        state = truncated_amplitudes(0, default_params)
        np.testing.assert_allclose(state.as_array(), [1, 0, 0, 0], atol=1e-12)

    def test_matches_four_level_map(self, default_params):
        # the four-level kicked map under mid-pulse sampling is the
        # independent reference for the closed forms
        numeric = truncated_map_states(50, default_params, Ordering.MID_PULSE)
        for k in range(51):
            analytic = truncated_amplitudes(k, default_params).as_array()
            assert np.max(np.abs(numeric[k] - analytic)) < 1e-3

    def test_weak_coupling_approaches_uncoupled_formulas(self):
        params = SystemParams(epsilon=1e-6, alpha=0.04)
        coupled = truncated_amplitudes(10, params).as_array()
        uncoupled = uncoupled_amplitudes(10, 0.04).as_array()
        assert np.max(np.abs(coupled - uncoupled)) < 1e-4

    def test_weak_coupling_continuity(self):
        params = SystemParams(epsilon=1e-6, alpha=0.04)
        for k in range(0, 101, 10):
            diff = np.abs(
                truncated_amplitudes(k, params).as_array()
                - uncoupled_amplitudes(k, 0.04).as_array()
            )
            assert np.max(diff) < 1e-4

    def test_normalization_over_long_window(self, default_params):
        defect = max(
            abs(1.0 - truncated_amplitudes(k, default_params).norm() ** 2)
            for k in range(0, 5001, 13)
        )
        assert defect < 1e-12

    def test_singular_coupling_error(self):
        with pytest.raises(SingularCouplingError):
            truncated_amplitudes(3, SystemParams(epsilon=1e-13))

    def test_zero_drive_is_stationary_vacuum(self):
        state = truncated_amplitudes(17, SystemParams(alpha=0.0))
        np.testing.assert_allclose(state.as_array(), [1, 0, 0, 0], atol=0)

    def test_rejects_negative_kick_count(self, default_params):
        with pytest.raises(ValueError):
            truncated_amplitudes(-1, default_params)


class TestUncoupledAmplitudes:
    def test_initial_state(self):
        np.testing.assert_allclose(
            uncoupled_amplitudes(0, 0.04).as_array(), [1, 0, 0, 0], atol=0
        )

    def test_quarter_period(self):
        # k*alpha = pi/2 leaves exactly one photon in mode a
        alpha = np.pi / 2 / 40
        state = uncoupled_amplitudes(40, alpha)
        np.testing.assert_allclose(state.as_array(), [0, 0, -1j, 0], atol=1e-12)

    def test_exact_normalization(self):
        for k in (0, 3, 17, 251):
            assert uncoupled_amplitudes(k, 0.04).norm() == pytest.approx(1.0, abs=1e-15)


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
