"""Concurrence evolution and Bell-state generation.

Whenever the populations of |00> and |11> simultaneously approach 1/2
the two effective qubits become maximally entangled.  This script tracks
the concurrence of the projected qubit state over 5000 kicks, locates
the main entanglement maxima, and reports which of the four Bell states
(phase convention |00> +/- i|11>, |01> +/- i|10>) is realized at each.
"""

import numpy as np

from kicked_coupler import SystemParams, annotate_trajectory, evolve

params = SystemParams()
n_kicks = 5000

print(f"evolving {n_kicks} kicks ...")
obs = annotate_trajectory(evolve(params, n_kicks), params.dims)
conc, fids = obs.concurrence, obs.bell_fidelities

above = np.flatnonzero(conc >= 0.98)
clusters = np.split(above, np.flatnonzero(np.diff(above) > 1) + 1)
print(f"\nfound {len(clusters)} maxima with concurrence >= 0.98:")
print("    k     C        best Bell state")
for cluster in clusters:
    k_peak = int(cluster[np.argmax(conc[cluster])])
    best = int(np.argmax(fids[k_peak]))
    print(
        f"  {k_peak:5d}  {conc[k_peak]:.4f}   B{best + 1} "
        f"(fidelity {fids[k_peak][best]:.4f})"
    )

print(
    "\nthe maxima alternate between B1 = (|00> + i|11>)/sqrt2 and"
    "\nB2 = (|00> - i|11>)/sqrt2; the satellite structure between them"
    "\ncarries partial weight on B3 and B4"
)

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, (ax1, ax2) = plt.subplots(2, 1, figsize=(10, 7), sharex=True)
    ax1.plot(conc)
    ax1.set_ylabel("concurrence")
    for i, style in enumerate(["-", "--", ":", "-."]):
        ax2.plot(fids[:, i], style, label=f"B{i + 1}")
    ax2.set_xlabel("kick number k")
    ax2.set_ylabel("Bell fidelity")
    ax2.legend(loc="upper right")
    fig.tight_layout()
    fig.savefig("entanglement_and_bell_states.png", dpi=150)
    print("wrote entanglement_and_bell_states.png")
except ImportError:
    pass
