"""Span tracer that wraps quasimo's layer boundaries from outside the library.

``Tracer.install()`` replaces each boundary function or method with a wrapper
that records a span (name, start, end, parent) in memory, and also replaces
every name another quasimo module imported for the same object (for example
``workflow.run`` and ``costfn.apply_gate``).  ``Tracer.restore()`` puts the
originals back.  Spans are kept in flat arrays and written out once, after
the traced execution.
"""

import sys
from array import array
from time import perf_counter

import numpy as np

from quasimo import ansatz, circuit, costfn, model, optimizer, pauli, simulator, workflow

# (span name, owner, attribute).  The owner is a module or a class.
BOUNDARIES = (
    ("simulator.apply_gate", simulator, "apply_gate"),
    ("simulator.run", simulator, "run"),
    ("simulator.expectation", simulator, "expectation"),
    ("simulator.apply_pauli_string", simulator, "apply_pauli_string"),
    ("circuit.Circuit", circuit.Circuit, "__post_init__"),
    ("circuit.bind_parameters", circuit.Circuit, "bind_parameters"),
    ("circuit.compose", circuit.Circuit, "compose"),
    ("circuit.exp_pauli", circuit, "exp_pauli"),
    ("costfn.evaluate", costfn, "evaluate"),
    ("costfn.evaluate_state", costfn, "evaluate_state"),
    ("costfn.tomography", costfn, "_tomography_state"),
    ("optimizer.spsa_minimize", optimizer, "spsa_minimize"),
    ("optimizer.nelder_mead_minimize", optimizer, "nelder_mead_minimize"),
    ("model.create_model", model, "create_model"),
    ("ansatz.trotter_step", ansatz, "trotter_step"),
    ("ansatz.symmetric_trotter_step", ansatz, "symmetric_trotter_step"),
    ("ansatz.qaoa_ansatz", ansatz, "qaoa_ansatz"),
    ("ansatz.hardware_efficient", ansatz, "hardware_efficient"),
    ("ansatz.rx_ry", ansatz, "rx_ry"),
    ("pauli.PauliOperator.terms", pauli.PauliOperator, "terms"),
) + tuple(
    ("workflow.execute", cls, "execute")
    for cls in (workflow.TimeDependentWorkflow, workflow.VqeWorkflow, workflow.QaoaWorkflow)
)


class Tracer:
    """Records spans and boundary counters while installed."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._patches = []
        self.counters = {
            "circuit.gates_constructed": 0,
            "costfn.shots_drawn": 0,
            "optimizer.evals": 0,
            "simulator.apply_gate.computed_bytes": 0,
        }

    # -- patching -------------------------------------------------------------

    def install(self):
        for name, owner, attr in BOUNDARIES:
            original = owner.__dict__[attr]
            wrapped = self._span(name, original, _AFTER.get(name))
            self._replace(owner, attr, original, wrapped)
        gate_init = circuit.Gate.__dict__["__post_init__"]
        counters = self.counters

        def counted_gate_init(gate):
            counters["circuit.gates_constructed"] += 1
            gate_init(gate)

        self._replace(circuit.Gate, "__post_init__", gate_init, counted_gate_init)

    def _replace(self, owner, attr, original, wrapped):
        targets = [owner]
        if not isinstance(owner, type):
            # Every quasimo module that imported this function by name.
            targets += [
                mod
                for key, mod in list(sys.modules.items())
                if (key == "quasimo" or key.startswith("quasimo."))
                and mod is not owner
                and vars(mod).get(attr) is original
            ]
        for target in targets:
            self._patches.append((target, attr, original))
            setattr(target, attr, wrapped)

    def restore(self):
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def _span(self, name, fn, after):
        ident = self._ids.setdefault(name, len(self._ids))
        if ident == len(self.names):
            self.names.append(name)
        stack, name_id, parent = self._stack, self.name_id, self.parent
        start, end, counters = self.start, self.end, self.counters

        def traced(*args, **kwargs):
            index = len(name_id)
            name_id.append(ident)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(index)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                stack.pop()
            if after is not None:
                after(counters, args, result)
            return result

        return traced

    # -- results --------------------------------------------------------------

    def spans(self):
        """Flat span arrays: name index, parent span index (-1 for a root),
        start and end in ``perf_counter`` seconds."""
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def boundary_stats(self):
        """Per boundary name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its child spans.
        """
        spans = self.spans()
        duration = spans["end"] - spans["start"]
        children = np.zeros_like(duration)
        has_parent = spans["parent"] >= 0
        np.add.at(children, spans["parent"][has_parent], duration[has_parent])
        own = duration - children
        stats = {}
        for ident, name in enumerate(self.names):
            mask = spans["name_id"] == ident
            stats[name] = {
                "calls": int(mask.sum()),
                "total_s": float(duration[mask].sum()),
                "self_s": float(own[mask].sum()),
            }
        return stats


def _after_apply_gate(counters, args, result):
    counters["simulator.apply_gate.computed_bytes"] += 2 * result.nbytes  # read + write


def _after_tomography(counters, args, result):
    obs, shots = args[1], args[2]
    measured_terms = obs.num_terms - (1 if obs.constant != 0 else 0)
    counters["costfn.shots_drawn"] += shots * measured_terms


def _after_minimize(counters, args, result):
    counters["optimizer.evals"] += result.evaluations_used


_AFTER = {
    "simulator.apply_gate": _after_apply_gate,
    "costfn.tomography": _after_tomography,
    "optimizer.spsa_minimize": _after_minimize,
    "optimizer.nelder_mead_minimize": _after_minimize,
}
