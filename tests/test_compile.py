"""The compiled program against the op-by-op ``run`` and a dense oracle.

``compile_circuit`` folds each maximal run of adjacent ops whose joint
support has at most two qubits, or lies entirely below ``LOW_QUBITS``, into
one FusedBlock, whose matrix the kernel builds.  A block below
``LOW_QUBITS`` applies as one matrix product over qubits 0..max(support);
every other block writes quarter-slices.  One oracle is ``run``, which
applies every op through the same kernel; the independent one is the
product of dense references: each gate's ``gate_matrix`` embedded with
``np.kron`` and scipy's ``expm`` of each rotation's string.  The low-block
strategy draws supports that skip low qubits (such as {1, 3}), so a matrix
built over the support alone, a transposed matrix or a reshape to the
support's width fails it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

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
from quasimo.pauli import PauliOperator, PauliString
from quasimo.simulator import (
    LOW_QUBITS,
    FusedBlock,
    StateVector,
    compile_circuit,
    expectation,
    run,
)
from quasimo.workflow import get_workflow

from conftest import embedded, random_state

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
    # An op on three or more qubits, one of them at or above LOW_QUBITS, is
    # never fused: it stays its own step.
    for op in circuit.ops:
        if not fusable(op.qubits):
            assert any(step is op for step in program.steps)
    for step in program.steps:
        if isinstance(step, FusedBlock):
            assert fusable(step.qubits)
            width = step.qubits[-1] + 1 if step.qubits[-1] < LOW_QUBITS else len(step.qubits)
            assert len(step.matrix) == 2**width
            assert np.allclose(step.matrix.conj().T @ step.matrix, np.eye(len(step.matrix)))
    # Runs are maximal: no two neighbouring steps fuse together.
    for first, second in zip(program.steps, program.steps[1:]):
        assert not fusable(set(first.qubits) | set(second.qubits))


def fusable(qubits):
    """Whether ops on ``qubits`` jointly may form one FusedBlock."""
    return len(qubits) <= 2 or max(qubits) < LOW_QUBITS


def shifted(circuit, offset):
    """``circuit`` moved up ``offset`` qubits, on a register that much wider."""
    ops = tuple(
        PauliRotation(PauliString({q + offset: a for q, a in op.string.factors}), op.angle)
        if isinstance(op, PauliRotation)
        else Gate(op.kind, tuple(q + offset for q in op.qubits), op.angle)
        for op in circuit.ops
    )
    return Circuit(circuit.num_qubits + offset, ops)


@settings(max_examples=100, deadline=None)
@given(circuits(), st.integers(0, 2**32 - 1))
def test_blocks_above_low_qubits_fold_on_two_qubits_and_match_run(circuit, seed):
    # Moved above LOW_QUBITS, runs fold only while they fit on two qubits and
    # every block writes quarter-slices.
    circuit = shifted(circuit, LOW_QUBITS)
    n = circuit.num_qubits
    initial = StateVector(n, random_state(n, np.random.default_rng(seed)))
    program = compile_circuit(circuit)
    expected = run(circuit, initial).amplitudes
    assert np.allclose(program.run(initial).amplitudes, expected, rtol=0, atol=1e-12)
    for step in program.steps:
        if isinstance(step, FusedBlock):
            assert len(step.qubits) <= 2
    for first, second in zip(program.steps, program.steps[1:]):
        assert len(set(first.qubits) | set(second.qubits)) > 2


def dense_reference(op, n):
    if isinstance(op, PauliRotation):
        return expm(-1j * op.angle * PauliOperator.from_string(op.string).to_matrix(n))
    return embedded(op, n)


@settings(max_examples=200, deadline=None)
@given(circuits(), st.integers(0, 2**32 - 1))
def test_program_matches_the_dense_product_of_references(circuit, seed):
    n = circuit.num_qubits
    amps = random_state(n, np.random.default_rng(seed))
    expected = amps
    for op in circuit.ops:
        expected = dense_reference(op, n) @ expected
    got = compile_circuit(circuit).run(StateVector(n, amps)).amplitudes
    assert np.allclose(got, expected, rtol=0, atol=1e-12)


@st.composite
def low_circuits(draw):
    """Random bound circuits on 4 to 8 qubits whose ops all act below
    LOW_QUBITS: gates of every kind and rotations on 1 to LOW_QUBITS
    qubits, inside a pool of qubits that often skips qubit 0 or others
    below the pool's highest."""
    n = draw(st.integers(4, 8))
    low = min(n, LOW_QUBITS)
    pool = draw(st.lists(st.integers(0, low - 1), min_size=1, max_size=low, unique=True))
    ops = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            support = draw(st.permutations(pool))[: draw(st.integers(1, len(pool)))]
            axes = [draw(st.sampled_from("XYZ")) for _ in support]
            ops.append(PauliRotation(PauliString(dict(zip(support, axes))), draw(angles)))
            continue
        kind = draw(st.sampled_from(sorted(GATE_KINDS)))
        arity, takes_angle = GATE_KINDS[kind]
        if arity > len(pool):
            continue
        qubits = draw(st.permutations(pool))[:arity]
        ops.append(Gate(kind, qubits, draw(angles) if takes_angle else None))
    return Circuit(n, tuple(ops))


@settings(max_examples=150, deadline=None)
@given(low_circuits(), st.integers(0, 2**32 - 1))
def test_low_blocks_match_the_dense_product_and_run(circuit, seed):
    n = circuit.num_qubits
    initial = StateVector(n, random_state(n, np.random.default_rng(seed)))
    expected = initial.amplitudes
    for op in circuit.ops:
        expected = dense_reference(op, n) @ expected
    program = compile_circuit(circuit)
    got = program.run(initial).amplitudes
    assert np.allclose(got, expected, rtol=0, atol=1e-12)
    assert np.allclose(got, run(circuit, initial).amplitudes, rtol=0, atol=1e-12)
    # Every op lies below LOW_QUBITS, so the whole circuit folds into one step.
    assert len(program.steps) <= 1


def test_program_leaves_the_initial_state_unchanged(rng):
    circuit = Circuit(3, (rx(0, 0.3), rx(1, 0.2), Gate("CNOT", (0, 1)), Gate("H", (2,))))
    initial = StateVector(3, random_state(3, rng))
    before = initial.amplitudes.copy()
    compile_circuit(circuit).run(initial)
    assert np.array_equal(initial.amplitudes, before)


def test_sixteen_spin_symmetric_xxz_step_compiles_to_23_fused_steps():
    model = create_model("heisenberg", {"num_spins": 16, "Jz": 0.25})
    step = symmetric_trotter_step(model.hamiltonian, 0.05, 16)
    program = compile_circuit(step)
    assert len(step.ops) == 90
    assert all(isinstance(s, FusedBlock) for s in program.steps)
    # Bonds (0,1)..(3,4) fold into one low block at each end of the step; the
    # 11 bonds from (4,5) up stay two-qubit blocks, the top one run once.
    low = (0, 1, 2, 3, 4)
    assert len(program.steps[0].matrix) == 2**5
    assert [s.qubits for s in program.steps] == (
        [low] + [(q, q + 1) for q in range(4, 15)] + [(q, q + 1) for q in range(13, 3, -1)] + [low]
    )
    assert len(program.steps) == 23


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
