"""The compiled program against the op-by-op ``run``.

``compile_circuit`` folds each maximal run of adjacent ops on at most two
qubits into one FusedBlock; the oracle is ``run``, which applies every op
through the kernel.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasimo.ansatz import symmetric_trotter_step, trotter_step
from quasimo.circuit import (
    GATE_KINDS,
    Circuit,
    Gate,
    Param,
    PauliRotation,
    UnboundParametersError,
    rx,
)
from quasimo.model import create_model
from quasimo.pauli import PauliString
from quasimo.simulator import (
    FusedBlock,
    StateVector,
    compile_circuit,
    expectation,
    run,
)
from quasimo.workflow import get_workflow

from conftest import random_state

angles = st.one_of(
    st.sampled_from([0.0, math.pi, -math.pi]),
    st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False, allow_infinity=False),
)


@st.composite
def circuits(draw):
    """Random bound circuits built in segments; each segment's ops act inside
    a pool of one to three qubits, so runs on two qubits form and runs that
    would cross the two-qubit limit occur."""
    n = draw(st.integers(1, 6))
    ops = []
    for _ in range(draw(st.integers(0, 5))):
        pool = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
        for _ in range(draw(st.integers(1, 6))):
            qubits = draw(st.permutations(pool))
            if draw(st.booleans()):
                support = qubits[: draw(st.integers(1, len(pool)))]
                axes = [draw(st.sampled_from("XYZ")) for _ in support]
                ops.append(PauliRotation(PauliString(dict(zip(support, axes))), draw(angles)))
                continue
            kind = draw(st.sampled_from(sorted(GATE_KINDS)))
            arity, takes_angle = GATE_KINDS[kind]
            if arity > len(pool):
                continue
            angle = draw(angles) if takes_angle else None
            ops.append(Gate(kind, qubits[:arity], angle))
    return Circuit(n, tuple(ops))


@settings(max_examples=200, deadline=None)
@given(circuits(), st.integers(0, 2**32 - 1))
def test_program_matches_run_op_by_op(circuit, seed):
    n = circuit.num_qubits
    initial = StateVector(n, random_state(n, np.random.default_rng(seed)))
    program = compile_circuit(circuit)
    expected = run(circuit, initial).amplitudes
    assert np.allclose(program.run(initial).amplitudes, expected, rtol=0, atol=1e-12)
    # An op on three or more qubits is never fused: it stays its own step.
    for op in circuit.ops:
        if len(op.qubits) > 2:
            assert any(step is op for step in program.steps)
    for step in program.steps:
        if isinstance(step, FusedBlock):
            assert len(step.qubits) <= 2
            assert np.allclose(step.matrix.conj().T @ step.matrix, np.eye(len(step.matrix)))
    # Runs are maximal: no two neighbouring steps fit on two qubits together.
    for first, second in zip(program.steps, program.steps[1:]):
        assert len(set(first.qubits) | set(second.qubits)) > 2


def test_program_leaves_the_initial_state_unchanged(rng):
    circuit = Circuit(3, (rx(0, 0.3), rx(1, 0.2), Gate("CNOT", (0, 1)), Gate("H", (2,))))
    initial = StateVector(3, random_state(3, rng))
    before = initial.amplitudes.copy()
    compile_circuit(circuit).run(initial)
    assert np.array_equal(initial.amplitudes, before)


def test_sixteen_spin_symmetric_xxz_step_compiles_to_29_fused_steps():
    model = create_model("heisenberg", {"num_spins": 16, "Jz": 0.25})
    step = symmetric_trotter_step(model.hamiltonian, 0.05, 16)
    program = compile_circuit(step)
    assert len(step.ops) == 90
    assert len(program.steps) == 29
    assert all(isinstance(s, FusedBlock) for s in program.steps)


def test_compiling_an_unbound_circuit_raises():
    circuit = Circuit(1, (rx(0, Param(0)),), 1)
    with pytest.raises(UnboundParametersError):
        compile_circuit(circuit)


@pytest.mark.parametrize("order", [1, 2])
def test_time_dependent_run_matches_the_op_by_op_series(order):
    spins = 8
    model = create_model(
        "heisenberg",
        {"num_spins": spins, "Jz": 0.25, "initial_spins": [i % 2 for i in range(spins)]},
    )
    flow = get_workflow("time-dependent", {"dt": 0.05, "steps": 6, "trotter-order": order})
    values = flow.execute(model)["exp-vals"]
    make_step = trotter_step if order == 1 else symmetric_trotter_step
    step = make_step(model.hamiltonian, 0.05, spins)
    state = run(model.state_prep)
    expected = [expectation(state, model.observable)]
    for _ in range(6):
        state = run(step, state)
        expected.append(expectation(state, model.observable))
    assert np.allclose(values, expected, rtol=0, atol=1e-12)
