"""Closed-form four-state amplitudes against the full numerics.

The confinement to four states admits closed-form amplitudes after k
pulses, built from three frequencies Omega, Omega1, Omega2.  This script
shows three comparisons:

1. closed forms vs the exact four-level kicked map (mid-pulse sampling):
   agreement at the 1e-5 level over 50 kicks;
2. closed forms vs the full 15x15-level numerics over 1000 kicks: the
   agreement degrades slowly because the exact dynamics picks up
   second-order frequency shifts from virtual two-photon excursions;
3. the sampling calibration that selects the mid-pulse convention.
"""

import numpy as np

from kicked_coupler import (
    Ordering,
    SystemParams,
    annotate_trajectory,
    calibrate_sampling,
    evolve,
    kick_frequencies,
    truncated_amplitudes,
)

params = SystemParams()
omega, omega1, omega2 = kick_frequencies(params)
print(
    f"frequencies: Omega = {omega:.6f}, Omega1 = {omega1:.6f}, "
    f"Omega2 = {omega2:.6f}"
)
beat = 2 * np.pi * np.sqrt(2) / (omega1 - omega2)
print(f"beat period ~ {beat:.0f} kicks")

best, deviations = calibrate_sampling(params)
print("\nsampling calibration against the closed forms (max amplitude deviation):")
for ordering, dev in deviations.items():
    marker = "  <-- calibrated choice" if ordering is best else ""
    print(f"  {ordering.value:14s} {dev:.3e}{marker}")

n_kicks = 1000
states = evolve(params, n_kicks, ordering=Ordering.MID_PULSE)
numeric = annotate_trajectory(states, params.dims).probs
analytic = np.abs(truncated_amplitudes(n_kicks, params)) ** 2
diff = np.max(np.abs(numeric - analytic), axis=1)

print("\nfull numerics vs closed forms, max per-state probability difference:")
for k in (50, 100, 200, 400, 600, 800, 1000):
    print(f"  k <= {k:4d}: {diff[: k + 1].max():.3e}")
print(
    "\nthe slow growth reflects the quasi-energy renormalization of the exact"
    "\nkicked dynamics relative to the leading-order four-state description"
)

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(9, 4))
    ax.semilogy(np.maximum(diff, 1e-16))
    ax.set_xlabel("kick number k")
    ax.set_ylabel("max per-state |P_numeric - P_analytic|")
    fig.tight_layout()
    fig.savefig("analytic_vs_numeric.png", dpi=150)
    print("wrote analytic_vs_numeric.png")
except ImportError:
    pass
