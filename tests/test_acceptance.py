"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All tolerances are fixed here, not calibrated after the fact.  Two
criteria (1 and 5) encode long-window agreement targets between the exact
kicked dynamics and the leading-order four-state description; the exact
dynamics carries second-order frequency renormalizations (virtual
excursions through the two-photon levels) that these targets do not
admit, so those tests fail for physical reasons rather than
implementation ones.  They are kept as stated; their report lines print
the measured values next to the same comparison without the levels above
|1>, which shows where the deviation comes from.  See the repository
README for the analysis.
"""

import numpy as np
import pytest

from kicked_coupler import (
    ModeDims,
    Ordering,
    SystemParams,
    annotate_trajectory,
    bell_fidelities,
    bell_states,
    build_coupler_hamiltonian,
    concurrence,
    concurrence_pure,
    density_from_pure,
    evolve,
    joint_index,
    truncated_amplitudes,
    truncated_map_states,
)
from kicked_coupler import propagation

QUBIT_STATES = [(0, 0), (0, 1), (1, 0), (1, 1)]


def report(criterion: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {verdict} ({detail})")
    assert ok, f"{criterion}: {detail}"


def qubit_probs(states, dims):
    return np.abs(states[:, [joint_index(m, n, dims) for m, n in QUBIT_STATES]]) ** 2


@pytest.fixture(scope="module")
def reference_params():
    return SystemParams()  # chi = 1, alpha = 1/25, epsilon = 1/100, T = 1, 15/15


@pytest.fixture(scope="module")
def long_states(reference_params):
    return evolve(reference_params, 5000)


@pytest.fixture(scope="module")
def long_observables(reference_params, long_states):
    return annotate_trajectory(long_states, reference_params.dims)


@pytest.fixture(scope="module")
def analytic_probs_1000(reference_params):
    return np.abs(truncated_amplitudes(1000, reference_params)) ** 2


def test_criterion_1_analytic_numeric_agreement(reference_params, analytic_probs_1000):
    # mid-pulse sampling is the calibrated offset (see calibrate_sampling)
    states = evolve(reference_params, 1000, ordering=Ordering.MID_PULSE)
    numeric = qubit_probs(states, reference_params.dims)
    max_dp = float(np.max(np.abs(numeric - analytic_probs_1000)))
    # the same comparison without the levels above |1>: the closed forms
    # against the exact four-level map
    four_level = truncated_map_states(1000, reference_params, Ordering.MID_PULSE)
    four_level_dp = float(
        np.max(np.abs(np.abs(four_level) ** 2 - analytic_probs_1000))
    )
    report(
        "criterion 1: analytic/numeric probability agreement, k <= 1000",
        max_dp <= 5e-3,
        f"max |P_numeric - P_analytic| = {max_dp:.3e}, tolerance 5e-3; "
        f"closed forms vs exact four-level map = {four_level_dp:.3e}",
    )


def test_criterion_2_truncation_leakage(long_observables):
    leak = float(np.max(long_observables.leakage[:1001]))
    report(
        "criterion 2: truncation leakage in [1e-4, 1e-2], k <= 1000",
        1e-4 <= leak <= 1e-2,
        f"max leakage = {leak:.3e}",
    )


def first_concurrence_maximum(conc, threshold=0.98):
    """Peak of the first contiguous run of kicks with concurrence >= threshold."""
    above = np.flatnonzero(conc >= threshold)
    if len(above) == 0:
        return None
    first_cluster = np.split(above, np.flatnonzero(np.diff(above) > 1) + 1)[0]
    return int(first_cluster[np.argmax(conc[first_cluster])])


def test_criterion_3_entanglement_maxima(long_observables):
    conc = long_observables.concurrence
    above = np.flatnonzero(conc >= 0.98)
    separated = 0
    last = -10**9
    for k in above:
        if k - last >= 50:
            separated += 1
            last = k
    report(
        "criterion 3: concurrence >= 0.98 at >= 2 separated kicks, k <= 5000",
        separated >= 2,
        f"{separated} separated attainments (max concurrence {conc.max():.4f})",
    )


def test_criterion_4_bell_state_generation(long_observables, reference_params):
    # The first maximum is (|00> - i|11>)/sqrt2, which is B2 in the
    # convention of entanglement.bell_states; B1 first appears at the second
    # maximum.  The closed forms set the label: their own first maximum must
    # be the same Bell state.
    k_star = first_concurrence_maximum(long_observables.concurrence)
    assert k_star is not None, "no concurrence maximum found"
    fids = long_observables.bell_fidelities[k_star]
    f_b2 = fids[1]
    p00, p11 = long_observables.probs[k_star, 0], long_observables.probs[k_star, 3]
    closed_forms = truncated_amplitudes(
        len(long_observables.concurrence) - 1, reference_params
    )
    k_closed = first_concurrence_maximum(concurrence_pure(closed_forms))
    assert k_closed is not None, "no closed-form concurrence maximum found"
    f_b2_closed = bell_fidelities(closed_forms[k_closed])[1]
    ok = (
        f_b2 >= 0.95
        and abs(p00 - 0.5) <= 0.05
        and abs(p11 - 0.5) <= 0.05
        and f_b2_closed >= 0.95
    )
    report(
        "criterion 4: F(B2) >= 0.95 at first concurrence maximum",
        ok,
        f"k = {k_star}, F(B2) = {f_b2:.4f}, F(B1) = {fids[0]:.4f}, "
        f"P00 = {p00:.4f}, P11 = {p11:.4f}; closed forms: k = {k_closed}, "
        f"F(B2) = {f_b2_closed:.4f}",
    )


def test_criterion_5_uncoupled_special_case():
    params = SystemParams(epsilon=0.0)
    states = evolve(params, 1000)
    dims = params.dims
    alpha = abs(params.alpha)
    max_dp = 0.0
    max_mode_b = 0.0
    for k, psi in enumerate(states):
        grid = psi.reshape(dims.dim_a, dims.dim_b)
        p0 = float(np.sum(np.abs(grid[0, :]) ** 2))
        p1 = float(np.sum(np.abs(grid[1, :]) ** 2))
        max_dp = max(
            max_dp,
            abs(p0 - np.cos(k * alpha) ** 2),
            abs(p1 - np.sin(k * alpha) ** 2),
        )
        max_mode_b = max(max_mode_b, float(np.sum(np.abs(grid[:, 1:]) ** 2)))
    ok = max_dp <= 5e-3 and max_mode_b <= 1e-10
    # the same map (evolve's default ordering) without the levels above |1>
    four_level = truncated_map_states(1000, params, Ordering.FREE_THEN_KICK)
    p_mode_a = np.sum(np.abs(four_level.reshape(-1, 2, 2)) ** 2, axis=2)
    angle = np.arange(1001) * alpha
    rabi = np.stack([np.cos(angle) ** 2, np.sin(angle) ** 2], axis=1)
    four_level_dp = float(np.max(np.abs(p_mode_a - rabi)))
    report(
        "criterion 5: epsilon = 0 matches cos^2/sin^2 within 5e-3, k <= 1000",
        ok,
        f"max |dP| = {max_dp:.3e}, max mode-b excitation = {max_mode_b:.3e}; "
        f"cutoff-(2, 2) map = {four_level_dp:.3e}",
    )


def test_criterion_6_property_suite(reference_params, long_states, rng):
    u_free, u_kick = propagation._period_factors(
        reference_params, Ordering.FREE_THEN_KICK, {}
    )
    dim = reference_params.dims.joint
    unit_defect = max(
        float(np.max(np.abs(u.conj().T @ u - np.eye(dim)))) for u in (u_free, u_kick)
    )
    norm_defect = max(abs(np.linalg.norm(psi) - 1.0) for psi in long_states)
    h = build_coupler_hamiltonian(reference_params)
    psi = long_states[137]
    energy_defect = abs(
        np.vdot(u_free @ psi, h @ (u_free @ psi)).real
        - np.vdot(psi, h @ psi).real
    )
    fid_defect = 0.0
    for _ in range(100):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = v / np.linalg.norm(v)
        fid_defect = max(fid_defect, abs(sum(bell_fidelities(state)) - 1.0))
    ok = (
        unit_defect <= 1e-10
        and norm_defect <= 1e-9
        and energy_defect <= 1e-9 * float(np.max(np.abs(h)))
        and fid_defect <= 1e-10
    )
    report(
        "criterion 6: unitarity, norm, energy, fidelity-sum properties",
        ok,
        f"unitarity {unit_defect:.1e}, norm {norm_defect:.1e}, "
        f"energy {energy_defect:.1e}, sum(F)-1 {fid_defect:.1e}",
    )


def test_criterion_7_concurrence_oracle_equivalence(rng):
    max_diff = 0.0
    for _ in range(100):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = v / np.linalg.norm(v)
        diff = abs(concurrence(density_from_pure(state)) - concurrence_pure(state))
        max_diff = max(max_diff, diff)
    bell_ok = all(
        abs(concurrence(density_from_pure(b)) - 1.0) <= 1e-10
        for b in bell_states()
    )
    basis_ok = True
    for i in range(4):
        amps = np.zeros(4, dtype=complex)
        amps[i] = 1.0
        c = concurrence(density_from_pure(amps))
        basis_ok = basis_ok and abs(c) <= 1e-10
    ok = max_diff <= 1e-10 and bell_ok and basis_ok
    report(
        "criterion 7: concurrence eigenvalue path = pure-state closed form",
        ok,
        f"max |difference| = {max_diff:.2e} over 100 random states; "
        f"Bell = 1: {bell_ok}, basis = 0: {basis_ok}",
    )


def test_criterion_8_closed_form_self_consistency(reference_params):
    norms = np.linalg.norm(truncated_amplitudes(5000, reference_params), axis=1)
    norm_defect = np.max(np.abs(1.0 - norms**2))
    print(
        f"[acceptance] criterion 8 note: closed-form normalization defect over "
        f"k <= 5000 is {norm_defect:.3e}"
    )
    reference = truncated_map_states(50, reference_params, Ordering.MID_PULSE)
    analytic = truncated_amplitudes(50, reference_params)
    max_diff = float(np.max(np.abs(reference - analytic)))
    report(
        "criterion 8: closed forms vs exact four-level map, k <= 50",
        max_diff <= 1e-3,
        f"max amplitude deviation = {max_diff:.3e}, tolerance 1e-3",
    )


def test_criterion_9_cutoff_convergence(analytic_probs_1000):
    def probs_at_cutoff(cut):
        params = SystemParams(dims=ModeDims(cut, cut))
        return qubit_probs(evolve(params, 1000), params.dims)

    diff = float(np.max(np.abs(probs_at_cutoff(10) - probs_at_cutoff(15))))
    report(
        "criterion 9: cutoff convergence 10/10 vs 15/15, k <= 1000",
        diff <= 1e-6,
        f"max probability change = {diff:.3e}, tolerance 1e-6",
    )
