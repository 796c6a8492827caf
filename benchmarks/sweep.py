"""Layer sweep: microseconds per operation of the simulator and circuit
kernels at 8, 12, 16 and 20 qubits.

The state grows from 4 KiB, which fits in L1, to 16 MiB, eight times a 2 MiB
L2.  Each figure is the median over repeats of one call.  Computed bytes per
operation assume one read and one write of the state per pass and ignore
cache misses, so they are labelled as computed.
"""

import statistics
from time import perf_counter

import numpy as np

from quasimo.ansatz import hardware_efficient
from quasimo.circuit import Gate
from quasimo.pauli import PauliOperator, PauliString
from quasimo.simulator import StateVector, apply_gate, apply_pauli_string, expectation, sample

SIZES = (8, 12, 16, 20)
MIN_REPEATS = 3
MIN_SECONDS = 0.1
SAMPLE_SHOTS = 1000


def _per_call(fn):
    times = []
    spent = 0.0
    while len(times) < MIN_REPEATS or spent < MIN_SECONDS:
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
        spent += times[-1]
    return statistics.median(times)


def _operations(n, rng):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps /= np.linalg.norm(amps)
    state = StateVector(n, amps)
    mid = n // 2
    rotation = Gate("Rx", (mid,), 0.3)
    entangler = Gate("CNOT", (mid - 1, mid))
    string = PauliString({0: "X", mid: "Y", n - 1: "Z"})
    observable = PauliOperator(
        {
            PauliString({0: "Z", 1: "Z"}): 1.0,
            PauliString({0: "X", 1: "X"}): 0.5,
            PauliString({mid: "Y", n - 1: "Y"}): 0.25,
            PauliString({n - 1: "X"}): -0.75,
        }
    )
    ansatz = hardware_efficient(n, 1)
    values = rng.uniform(0.0, 2 * np.pi, ansatz.num_params)
    state_bytes = amps.nbytes
    # name -> (call, computed bytes per call)
    return {
        "apply_gate_1q": (lambda: apply_gate(amps, rotation, n), 2 * state_bytes),
        "apply_gate_2q": (lambda: apply_gate(amps, entangler, n), 2 * state_bytes),
        "apply_pauli_string": (lambda: apply_pauli_string(amps, string, n), 2 * state_bytes),
        "expectation": (
            lambda: expectation(state, observable),
            observable.num_terms * 2 * state_bytes,
        ),
        "bind_parameters": (lambda: ansatz.bind_parameters(values), 0),
        "sample": (lambda: sample(state, SAMPLE_SHOTS, seed=0), state_bytes),
    }


def layer_sweep(seed):
    """``{"sweep.<op>.n<k>.us_per_op": us}`` plus computed bytes per op."""
    rng = np.random.default_rng([seed, 20])
    timings, computed_bytes = {}, {}
    for n in SIZES:
        for op, (call, nbytes) in _operations(n, rng).items():
            key = f"sweep.{op}.n{n}"
            timings[f"{key}.us_per_op"] = _per_call(call) * 1e6
            if nbytes:
                computed_bytes[f"{key}.computed_bytes"] = nbytes
    return timings, computed_bytes
