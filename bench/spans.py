"""Span tracing around the calls the CLI makes into each layer of the package.

The layers are the package's modules.  A span is recorded around every call
to a function in ``TARGETS``, by replacing the name in the namespace where the
caller looks it up (``cli.evolve`` is the ``evolve`` that ``cli`` imported).
Nothing in the package itself is changed; ``Tracer.uninstall`` puts every
original function back.

A layer's self time is the duration of its spans minus the time their direct
child spans cover.  Calls are single-threaded and nested, so a parent's covered
time is the sum of its children's durations.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# (module looked up in, attribute, layer, kind).  ``kind`` splits a layer's
# self time into named parts where a metric asks for it.  ``fock.joint_index``
# is an index helper called per kick; it is left untraced and counts towards
# its caller, so that ``fock`` measures the operator builders only.
TARGETS = (
    ("cli", "run", "cli", "self"),
    ("cli", "evolve", "propagation", "self"),
    ("cli", "evolve_midpulse", "propagation", "self"),
    ("cli", "annotate_trajectory", "entanglement", "annotate"),
    ("cli", "project_to_qubits", "entanglement", "observables"),
    ("cli", "concurrence_pure", "entanglement", "observables"),
    ("cli", "bell_fidelities", "entanglement", "observables"),
    ("cli", "truncated_amplitudes", "analytic", "self"),
    ("cli", "uncoupled_amplitudes", "analytic", "self"),
    ("entanglement", "project_to_qubits", "entanglement", "observables"),
    ("entanglement", "concurrence_pure", "entanglement", "observables"),
    ("entanglement", "bell_fidelities", "entanglement", "observables"),
    ("propagation", "build_step_operators", "propagation", "self"),
    ("propagation", "build_half_kick", "propagation", "self"),
    ("propagation", "build_coupler_hamiltonian", "hamiltonians", "self"),
    ("propagation", "build_kick_generator", "hamiltonians", "self"),
    ("propagation", "unitary_from_generator", "numerics", "self"),
    ("numerics", "hermitian_eigendecomposition", "numerics", "self"),
    ("hamiltonians", "annihilation_op", "fock", "self"),
    ("hamiltonians", "number_op", "fock", "self"),
    ("hamiltonians", "embed_mode_a", "fock", "self"),
    ("hamiltonians", "embed_mode_b", "fock", "self"),
)

# Kick-step propagators.  Their work counts are computed from the sizes of the
# states they return, not measured: matrix-vector products per step, times
# 8 D^2 real flops and 16 D^2 bytes of complex matrix read per product.
MATVECS_PER_STEP = {"evolve": 2, "evolve_midpulse": 1}

PROPAGATION_COUNTS = ("steps", "matvec_flops", "matrix_bytes", "state_bytes")

ROOT = "cli.main"


def _sizes(result):
    """Number of states a propagator returned, and the length and item size
    of one state."""
    states = getattr(result, "records", result)
    first = getattr(states[0], "state", states[0])
    return len(states), first.size, first.itemsize


class Tracer:
    """Records spans (name, start, end, parent) in memory while installed."""

    def __init__(self):
        self.layer_of: dict[str, tuple[str, str]] = {ROOT: ("cli", "self")}
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts = dict.fromkeys(PROPAGATION_COUNTS, 0)
        self.missing: list[str] = []
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        matvecs = MATVECS_PER_STEP.get(name.split(".", 1)[1])

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if matvecs is not None:
                self._count_propagation(result, matvecs)
            return result

        return traced

    def _count_propagation(self, result, matvecs_per_step: int) -> None:
        n_states, dim, itemsize = _sizes(result)
        matvecs = matvecs_per_step * (n_states - 1)
        self.counts["steps"] += n_states - 1
        self.counts["matvec_flops"] += matvecs * 8 * dim * dim
        self.counts["matrix_bytes"] += matvecs * 16 * dim * dim
        self.counts["state_bytes"] += n_states * dim * itemsize

    def install(self) -> None:
        self.missing = []
        for module_name, attr, layer, kind in TARGETS:
            module = importlib.import_module(f"kicked_coupler.{module_name}")
            name = f"{module_name}.{attr}"
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            self.layer_of[name] = (layer, kind)
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def call_root(self, fn, *args):
        """Call ``fn`` (the CLI's ``main``) as the root span."""
        return self._wrap(fn, ROOT)(*args)

    def reset(self) -> None:
        self.spans.clear()
        for key in self.counts:
            self.counts[key] = 0

    def summary(self) -> dict:
        """Per-layer calls and self times of the spans recorded since reset."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for index, (name, start, end, parent) in enumerate(spans):
            layer, kind = self.layer_of[name]
            self_s = (end - start) - child_time[index]
            key = f"{layer}.{kind}_s"
            out[key] = out.get(key, 0.0) + self_s
            if name != ROOT and name != "cli.run":
                out[f"{layer}.calls"] = out.get(f"{layer}.calls", 0) + 1
        return out

    def write(self, path) -> None:
        """Write the recorded spans as CSV: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,layer,start_s,end_s,parent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                layer = self.layer_of[name][0]
                fh.write(f"{index},{name},{layer},{start!r},{end!r},{parent}\n")
