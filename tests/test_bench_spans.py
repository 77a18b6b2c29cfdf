"""The benchmark's span tracer (bench/spans.py) hooks each function under
the name a module looks it up by.  When the package renames or stops
importing one, the hook lands in `Tracer.missing` and its layer's metrics
read 0 without an error; this test fails when one more hook goes dead."""

import spans

from kicked_coupler import numerics, propagation

# hooks on names the package no longer has; they go with the tracer's
# replacement, the run report (ROADMAP item 2), and so does this test
DEAD_HOOKS = {
    "cli.evolve",
    "cli.evolve_midpulse",
    "cli.project_to_qubits",
    "cli.truncated_amplitudes",
    "cli.uncoupled_amplitudes",
    "entanglement.project_to_qubits",
    "propagation.build_step_operators",
    "propagation.build_half_kick",
    "hamiltonians.annihilation_op",
    "hamiltonians.number_op",
    "hamiltonians.embed_mode_a",
    "hamiltonians.embed_mode_b",
}


def test_no_further_hook_is_dead():
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert set(tracer.missing) <= DEAD_HOOKS
        # the step unitaries' hook, the numerics layer's product time
        assert "propagation.unitary_from_generator" not in tracer.missing
        assert propagation.unitary_from_generator is not numerics.unitary_from_generator
    finally:
        tracer.uninstall()
    assert propagation.unitary_from_generator is numerics.unitary_from_generator
