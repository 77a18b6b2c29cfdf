"""Occupation probabilities of the four qubit basis states.

A two-mode Kerr coupler kicked by ultra-short pulses on mode a stays
confined to the lowest two Fock levels of each mode: the Kerr
anharmonicity detunes every level above |1>, so the weak periodic drive
can only shuffle population among |00>, |01>, |10>, |11>.  This script
evolves the full 15x15-level system from the vacuum and plots the four
qubit probabilities together with the leakage out of the qubit subspace.
"""

import numpy as np

from kicked_coupler import SystemParams, annotate_trajectory, evolve

params = SystemParams()  # chi_a = chi_b = 1, alpha = 1/25, epsilon = 1/100, T = 1
n_kicks = 2000

print(f"evolving {n_kicks} kicks at alpha = {params.alpha}, epsilon = {params.epsilon} ...")
obs = annotate_trajectory(evolve(params, n_kicks), params.dims)

k = np.arange(n_kicks + 1)
probs, leakage = obs.probs, obs.leakage

print(f"max leakage out of the qubit subspace: {leakage.max():.2e}")
print("the dynamics is effectively a qubit-qubit system")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, (ax1, ax2) = plt.subplots(2, 1, figsize=(9, 7), sharex=True)
    labels = [r"$|00\rangle$", r"$|01\rangle$", r"$|10\rangle$", r"$|11\rangle$"]
    styles = ["-", "--", ":", "-."]
    for i, (label, style) in enumerate(zip(labels, styles)):
        ax1.plot(k, probs[:, i], style, label=label)
    ax1.set_ylabel("probability")
    ax1.legend(loc="upper right")
    ax2.semilogy(k, np.maximum(leakage, 1e-16))
    ax2.set_xlabel("kick number k")
    ax2.set_ylabel("leakage")
    fig.tight_layout()
    fig.savefig("qubit_probabilities.png", dpi=150)
    print("wrote qubit_probabilities.png")
except ImportError:
    # no plotting backend available; print a coarse table instead
    print("\n  k    P00     P01     P10     P11     leakage")
    for i in range(0, n_kicks + 1, 100):
        row = probs[i]
        print(
            f"{k[i]:5d}  {row[0]:.4f}  {row[1]:.4f}  {row[2]:.4f}  {row[3]:.4f}"
            f"  {leakage[i]:.2e}"
        )
