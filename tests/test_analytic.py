import cmath
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from kicked_coupler import (
    ContractViolationError,
    ModeDims,
    Ordering,
    SystemParams,
    calibrate_sampling,
    evolve,
    evolve_blocks,
    kick_frequencies,
    truncated_amplitudes,
    truncated_map_states,
)
from kicked_coupler import analytic, propagation
from kicked_coupler.analytic import amplitude_rows
from kicked_coupler.propagation import kick_blocks
from kicked_coupler.numerics import PHASE_ROUNDOFF_TOL
from conftest import oracle_probabilities

_SQRT2 = np.sqrt(2.0)


def gauge_angles(params):
    """(theta, phi) = (arg alpha, arg alpha - arg epsilon): the state |m, n>
    at (alpha, epsilon) is the one at (|alpha|, |epsilon|) times
    e^{i (m theta + n phi)}."""
    theta = cmath.phase(complex(params.alpha))
    return theta, theta - cmath.phase(complex(params.epsilon))


def scalar_amplitudes(k, params):
    """The closed forms evaluated one kick at a time with scalar arithmetic,
    the reference for the columnar truncated_amplitudes."""
    amps = scalar_magnitude_amplitudes(k, params)
    theta, phi = gauge_angles(params)
    if theta or phi:
        phases = (0.0, phi, theta, theta + phi)
        amps = [complex(c * np.exp(1j * x)) for c, x in zip(amps, phases)]
    return amps


def scalar_magnitude_amplitudes(k, params):
    """The closed forms at |alpha| and |epsilon| for one kick."""
    eps_t = abs(params.epsilon) * params.T
    alpha = abs(params.alpha)
    om, om1, om2 = kick_frequencies(params)
    if om == 0.0:
        return [1.0 + 0j, 0j, 0j, 0j]
    cos1 = np.cos(k * om1 / _SQRT2)
    cos2 = np.cos(k * om2 / _SQRT2)
    sin1 = np.sin(k * om1 / _SQRT2)
    sin2 = np.sin(k * om2 / _SQRT2)
    c00 = ((om - eps_t) * cos1 + (om + eps_t) * cos2) / (2 * om)
    c01 = (alpha / om) * (cos1 - cos2)
    c10 = (-1j * alpha / (_SQRT2 * om)) * (
        (eps_t + om) / om1 * sin1 + 2 * om1 / (eps_t + om) * sin2
    )
    c11 = (1j / (_SQRT2 * om)) * (om1 * sin2 - om2 * sin1)
    return [complex(c00), complex(c01), complex(c10), complex(c11)]


def scalar_reference(n_kicks, params):
    return np.array([scalar_amplitudes(k, params) for k in range(n_kicks + 1)])


def uncoupled(n_kicks, alpha):
    """The epsilon = 0 amplitudes: mode a Rabi-oscillates with angle k*alpha."""
    angles = alpha * np.arange(n_kicks + 1)
    zeros = np.zeros_like(angles)
    return np.column_stack((np.cos(angles), zeros, -1j * np.sin(angles), zeros))


# inputs that are not positive reals, each with its own phases
GAUGE_CASES = {
    "epsilon-negative": SystemParams(epsilon=-0.01),
    "epsilon-imaginary": SystemParams(epsilon=0.01j),
    "both-complex": SystemParams(alpha=0.03 + 0.03j, epsilon=0.007 - 0.007j),
    "alpha-negative": SystemParams(alpha=-0.04),
}


def magnitudes(params):
    return replace(params, alpha=abs(params.alpha), epsilon=abs(params.epsilon))


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

    @pytest.mark.parametrize(
        "epsilon, alpha",
        [(1e200, 0.04), (0.01, 1e200), (1e200, 1e200), (1e154, 1e154)],
        ids=["epsilon-1e200", "alpha-1e200", "both-1e200", "both-1e154"],
    )
    def test_overflow_is_a_contract_violation(self, epsilon, alpha):
        # an overflowed square is inf, and omega2's radicand inf - inf is NaN
        # (at 1e154 the squares fit and their sum overflows); either is
        # reported by the finiteness contract, without a numpy warning
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error")
            with pytest.raises(ContractViolationError, match="kick frequencies are not finite"):
                kick_frequencies(SystemParams(epsilon=epsilon, alpha=alpha))


class TestTruncatedAmplitudes:
    def test_shape(self, default_params):
        assert truncated_amplitudes(7, default_params).shape == (8, 4)

    def test_initial_state(self, default_params):
        amps = truncated_amplitudes(0, default_params)
        np.testing.assert_allclose(amps[0], [1, 0, 0, 0], atol=1e-12)

    @pytest.mark.parametrize("case", ["reference", *sorted(GAUGE_CASES)])
    def test_matches_four_level_map(self, default_params, case):
        # the four-level kicked map under mid-pulse sampling is the
        # independent reference for the closed forms, whatever the phases
        # of alpha and epsilon
        params = GAUGE_CASES.get(case, default_params)
        numeric = truncated_map_states(50, params, Ordering.MID_PULSE)
        analytic = truncated_amplitudes(50, params)
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

    def test_zero_drive_is_stationary_vacuum(self):
        amps = truncated_amplitudes(17, SystemParams(alpha=0.0))
        np.testing.assert_allclose(amps, np.tile([1, 0, 0, 0], (18, 1)), atol=0)

    @pytest.mark.parametrize(
        "params, match",
        [
            # overflowed squares in the frequencies
            (SystemParams(alpha=1e160), "kick frequencies are not finite"),
            # phases k * omega1 / sqrt2 that keep no significant digit; the
            # phase contract is checked before the amplitudes are evaluated
            (SystemParams(alpha=1e150), "phase roundoff"),
            (SystemParams(alpha=1e100), "phase roundoff"),
        ],
        ids=["alpha-1e160", "alpha-1e150", "alpha-1e100"],
    )
    def test_contract_violations(self, params, match):
        with pytest.raises(ContractViolationError, match=match):
            truncated_amplitudes(3, params)

    def test_finiteness_contract_at_k0(self, monkeypatch):
        # no input whose frequencies are finite gives a non-finite amplitude;
        # a NaN omega2 stands in for one, and makes every row NaN from k = 0
        om, om1, _ = kick_frequencies(SystemParams())
        monkeypatch.setattr(analytic, "kick_frequencies", lambda params: (om, om1, math.nan))
        with pytest.raises(
            ContractViolationError, match="closed-form amplitudes are not finite at k = 0"
        ):
            truncated_amplitudes(0, SystemParams())

    def test_normalization_contract(self, monkeypatch):
        # the defect is roundoff at every input; with the tolerance set below
        # it, the contract reports the row of the largest defect
        amps = truncated_amplitudes(50, SystemParams())
        defect = np.abs((np.abs(amps) ** 2).sum(axis=1) - 1.0)
        monkeypatch.setattr(analytic, "CLOSED_FORM_NORM_TOL", defect.max() / 2)
        with pytest.raises(ContractViolationError, match=f"sum to 1 .* at k = {defect.argmax()},"):
            truncated_amplitudes(50, SystemParams())

    @pytest.mark.parametrize(
        "params",
        [SystemParams(alpha=1e6, epsilon=1.0, T=1e6), SystemParams(alpha=1e6, epsilon=0.0)],
        ids=["coupled", "uncoupled"],
    )
    def test_phase_roundoff_contract(self, params):
        # the largest phase of k kicks is k * omega1 / sqrt2 (about
        # k * |alpha| uncoupled); the bound is the full-basis unitaries' one
        frequency = kick_frequencies(params)[1] / _SQRT2
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
        om1 = kick_frequencies(params)[1]
        limit = PHASE_ROUNDOFF_TOL / np.finfo(float).eps / (om1 / _SQRT2)
        rows = 0
        with pytest.raises(ContractViolationError, match="phase roundoff") as info:
            for start, stop in kick_blocks(int(limit) + 30):
                rows += len(amplitude_rows(start, stop, params))
        assert rows - 1 <= limit < rows + 6
        name = f"{rows + 6} * omega1 / sqrt2"
        assert f"phase roundoff {name} * 2^-52" in str(info.value)
        assert f"({name} = {(rows + 6) * om1 / _SQRT2:.3e})" in str(info.value)

    @pytest.mark.filterwarnings("error")
    def test_overflow_raises_no_numpy_warning(self):
        # at k = 0 the phases are 0; the squares in the frequencies reach
        # 1e196, and the vacuum row that results passes every contract
        amps = truncated_amplitudes(0, SystemParams(T=1e100, alpha=1e98))
        assert np.array_equal(amps, [[1, 0, 0, 0]])

    def test_normalization_passes_where_the_forms_hold(self):
        # the forms hold at every epsilon: measured defects over 2000 kicks
        # are 4.4e-16 at epsilon = 0 and 5.6e-16 at each of the others
        for epsilon in (1e-6, 1e-9, 1.5e-12, 0.0):
            amps = truncated_amplitudes(2000, SystemParams(epsilon=epsilon))
            assert np.max(np.abs(np.sum(np.abs(amps) ** 2, axis=1) - 1)) < 1e-14

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


class TestMatchesOracle:
    """The closed forms against conftest.oracle_probabilities: their form
    that divides by eps T and cancels in 2 alpha^2 - omega2^2, evaluated in
    mpmath, where at 40 digits that costs nothing.  The double-precision
    rows keep every probability within 1e-12 at every epsilon, down to 0,
    and at |alpha| << |epsilon T|."""

    @pytest.mark.parametrize(
        "alpha, epsilon",
        [(0.04, 0.01), (0.04, 1e-7), (0.04, 1e-9), (0.04, 1e-10), (0.04, 1.5e-12),
         (0.04, 0.0), (0.001, 10.0), (1e-5, 1.0)],
    )
    def test_ten_thousand_kicks(self, alpha, epsilon):
        params = SystemParams(alpha=alpha, epsilon=epsilon)
        ks = np.arange(0, 10001, 10)
        probs = np.abs(truncated_amplitudes(10000, params)[ks]) ** 2
        assert np.max(np.abs(probs - oracle_probabilities(ks, params))) < 1e-12

    @pytest.mark.parametrize(
        "params, n_kicks",
        [
            # |alpha| << |epsilon T| and |alpha| >> |epsilon T|
            (SystemParams(alpha=1e-5, epsilon=1.0), 3),
            (SystemParams(alpha=17.0, epsilon=1e-11), 3),
            # k = 0 at frequencies near the top of the range
            (SystemParams(alpha=1e100), 0),
            (SystemParams(alpha=1e150), 0),
            (SystemParams(epsilon=1e150, alpha=1e149), 0),
        ],
        ids=["omega2-cancels", "alpha-17-epsilon-1e-11", "k0-alpha-1e100", "k0-alpha-1e150",
             "k0-epsilon-1e150"],
    )
    def test_extreme_inputs(self, params, n_kicks):
        # 400 digits outlast the oracle's cancellation at alpha 1e150
        ks = np.arange(n_kicks + 1)
        probs = np.abs(truncated_amplitudes(n_kicks, params)) ** 2
        assert np.max(np.abs(probs - oracle_probabilities(ks, params, 400))) < 1e-12


class TestMatchesScalarFormulas:
    """The columnar closed forms equal the per-kick scalar formulas bit for
    bit, the no-drive rows included."""

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
            ranges = list(kick_blocks(n_kicks))
            blocks = [amplitude_rows(*rows, params) for rows in ranges]
            states = evolve_blocks(replace(params, dims=ModeDims(2, 2)), n_kicks)
            assert [(start, len(x)) for (start, _), x in zip(ranges, blocks)] == [
                (start, len(x)) for start, x in states
            ]
            assert np.array_equal(
                np.concatenate(blocks), truncated_amplitudes(n_kicks, params)
            )

    @pytest.mark.parametrize(
        "params, match",
        [
            (SystemParams(alpha=1e160), "kick frequencies are not finite"),
            (SystemParams(alpha=1e100), "phase roundoff"),
        ],
        ids=["alpha-1e160", "alpha-1e100"],
    )
    def test_first_block_checks_the_contracts(self, monkeypatch, params, match):
        monkeypatch.setattr(propagation, "BLOCK_KICKS", 7)
        start, stop = next(kick_blocks(30))
        with pytest.raises(ContractViolationError, match=match):
            amplitude_rows(start, stop, params)


class TestPhaseGauge:
    """The map a -> a e^{i theta}, b -> b e^{i phi} takes H and G at (alpha,
    epsilon) to H and G at (|alpha|, |epsilon|), so every amplitude c_mn
    carries the phase e^{i (m theta + n phi)}."""

    @pytest.mark.parametrize("ordering", list(Ordering))
    @pytest.mark.parametrize("case", sorted(GAUGE_CASES))
    def test_full_basis_trajectory_transforms(self, case, ordering):
        params = GAUGE_CASES[case]
        theta, phi = gauge_angles(params)
        m, n = np.divmod(np.arange(params.dims.joint), params.dims.dim_b)
        phases = np.exp(1j * (m * theta + n * phi))
        rotated = evolve(magnitudes(params), 100, ordering) * phases
        assert np.max(np.abs(evolve(params, 100, ordering) - rotated)) < 1e-12

    @pytest.mark.parametrize("case", sorted(GAUGE_CASES) + ["uncoupled"])
    def test_closed_forms_transform_exactly(self, case):
        params = GAUGE_CASES.get(case, SystemParams(alpha=0.3 - 0.1j, epsilon=0.0))
        theta, phi = gauge_angles(params)
        phases = np.exp(1j * np.array([0.0, phi, theta, theta + phi]))
        rotated = truncated_amplitudes(200, magnitudes(params)) * phases
        assert np.array_equal(truncated_amplitudes(200, params), rotated)


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
