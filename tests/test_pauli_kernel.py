"""Differential tests for the strided-view Pauli kernel.

Every fast path is checked against an independent oracle: the dense
``PauliOperator.to_matrix``, scipy's ``expm``, the gate-level expansion of a
block run gate by gate, and each gate's ``gate_matrix`` embedded in the full
register with ``np.kron``.
"""

import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from quasimo import simulator
from quasimo.circuit import GATE_KINDS, Circuit, Gate, Param, PauliRotation, exp_pauli
from quasimo.model import create_model
from quasimo.pauli import PauliOperator, PauliString
from quasimo.simulator import (
    ROW_PLAN_QUBITS,
    StateVector,
    apply_gate,
    apply_operator,
    apply_pauli_string,
    expectation,
    pauli_rows,
    run,
)
from quasimo.workflow import get_workflow

from conftest import embedded, random_hermitian, random_state

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# "YY" weights Y twice as heavily as X or Z; Y carries the kernel's phase.
AXES = "XYYZ"


@st.composite
def strings(draw, min_factors=1, max_qubits=6):
    """(num_qubits, PauliString, state seed)."""
    n = draw(st.integers(1, max_qubits))
    qubits = draw(st.lists(st.integers(0, n - 1), min_size=min_factors, max_size=n, unique=True))
    axes = draw(st.lists(st.sampled_from(AXES), min_size=len(qubits), max_size=len(qubits)))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, PauliString(dict(zip(qubits, axes))), seed


angles = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False, allow_infinity=False)


def dense(string, n):
    return PauliOperator.from_string(string).to_matrix(n)


@settings(max_examples=80, deadline=None)
@given(strings(min_factors=0))
def test_apply_pauli_string_matches_dense(case):
    n, string, seed = case
    amps = random_state(n, np.random.default_rng(seed))
    expected = dense(string, n) @ amps
    assert np.allclose(apply_pauli_string(amps, string, n), expected, atol=1e-12)


@st.composite
def string_batches(draw):
    """(num_qubits, strings, state seed): each of a few x masks is shared by
    several strings, about half of them Y-heavy (every X factor turned into a
    Y), and the identity string is always in the batch."""
    n = draw(st.integers(1, 6))
    masks = st.integers(0, 2**n - 1)
    batch = [PauliString()]
    for x in draw(st.lists(masks, min_size=1, max_size=3)):
        for z in draw(st.lists(masks, min_size=1, max_size=4)):
            if draw(st.booleans()):
                z |= x
            batch.append(PauliString.from_masks(x, z))
    return n, batch, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(string_batches())
def test_pauli_rows_match_kernel(case):
    n, batch, seed = case
    amps = random_state(n, np.random.default_rng(seed))
    x, signs, phases = pauli_rows(batch, n)
    assert signs.dtype == np.int8 and signs.shape == (len(batch), 2**n)
    rows = phases[:, None] * signs * amps[np.arange(2**n) ^ x[:, None]]
    expected = np.stack([apply_pauli_string(amps, string, n) for string in batch])
    # Both multiply each amplitude by +-1 and a power of -i: exact.
    assert np.array_equal(rows, expected)


def test_all_y_string_phase():
    # Y(0)*Y(1)*Y(2) carries (-i)^3 = i on top of the flips and signs.
    n = 3
    string = PauliString({0: "Y", 1: "Y", 2: "Y"})
    amps = random_state(n, np.random.default_rng(7))
    assert np.allclose(apply_pauli_string(amps, string, n), dense(string, n) @ amps, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(strings(), angles)
def test_native_block_matches_expm(case, theta):
    n, string, seed = case
    initial = StateVector(n, random_state(n, np.random.default_rng(seed)))
    circuit = exp_pauli(theta, string, n)
    expected = expm(-1j * theta * dense(string, n)) @ initial.amplitudes
    assert np.allclose(run(circuit, initial).amplitudes, expected, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(strings(), angles)
def test_native_block_matches_its_gate_expansion(case, theta):
    n, string, seed = case
    amps = random_state(n, np.random.default_rng(seed))
    block = PauliRotation(string, theta)
    native = run(Circuit(n, (block,)), StateVector(n, amps)).amplitudes
    for gate in block.gates:
        amps = apply_gate(amps, gate, n)
    assert np.allclose(native, amps, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(strings(), st.lists(angles, min_size=2, max_size=2), st.floats(-3, 3))
def test_bound_param_block_matches_bound_expansion(case, values, scale):
    n, string, seed = case
    symbolic = Circuit(n, (PauliRotation(string, Param(1, scale)),), 2)
    expanded = Circuit(n, symbolic.gates, 2)
    bound = symbolic.bind_parameters(values)
    got, want = bound.gates, expanded.bind_parameters(values).gates
    assert [(g.kind, g.qubits) for g in got] == [(g.kind, g.qubits) for g in want]
    # The block binds 2*(scale*v), the expansion (2*scale)*v: equal while
    # scale*v is a normal float, one subnormal ulp apart below that.
    for g, w in zip(got, want):
        if w.angle is not None:
            assert abs(g.angle - w.angle) <= math.ulp(max(abs(g.angle), abs(w.angle)))
    initial = StateVector(n, random_state(n, np.random.default_rng(seed)))
    assert np.allclose(
        run(bound, initial).amplitudes,
        run(expanded.bind_parameters(values), initial).amplitudes,
        atol=1e-12,
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1), angles)
def test_single_qubit_gates_match_dense_matrices(n, seed, theta):
    rng = np.random.default_rng(seed)
    amps = random_state(n, rng)
    qubit = int(rng.integers(n))
    for kind, (arity, takes_angle) in GATE_KINDS.items():
        if arity != 1:
            continue
        gate = Gate(kind, (qubit,), theta if takes_angle else None)
        expected = embedded(gate, n) @ amps
        assert np.allclose(apply_gate(amps, gate, n), expected, atol=1e-12), kind


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_two_qubit_gates_match_dense_matrices(n, seed):
    amps = random_state(n, np.random.default_rng(seed))
    for control in range(n):
        for target in range(n):
            if control == target:
                continue
            for kind in ("CNOT", "CZ"):
                gate = Gate(kind, (control, target))
                expected = embedded(gate, n) @ amps
                assert np.allclose(apply_gate(amps, gate, n), expected, atol=1e-12), gate


def test_apply_gate_leaves_its_input_unchanged(rng):
    amps = random_state(3, rng)
    before = amps.copy()
    gates = (
        Gate("Rz", (1,), 0.4),
        Gate("Ry", (0,), 0.4),
        Gate("Y", (2,)),
        Gate("H", (1,)),
        Gate("S", (0,)),
        Gate("Sdg", (2,)),
        Gate("CNOT", (2, 0)),
        Gate("CZ", (0, 1)),
    )
    for gate in gates:
        apply_gate(amps, gate, 3)
    assert np.array_equal(amps, before)


def test_run_leaves_the_initial_state_unchanged(rng):
    initial = StateVector(3, random_state(3, rng))
    before = initial.amplitudes.copy()
    run(exp_pauli(0.3, PauliString({0: "X", 2: "Y"}), 3), initial)
    assert np.array_equal(initial.amplitudes, before)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_operator_and_expectation_match_dense(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    op = random_hermitian(n, 5, rng)
    amps = random_state(n, rng)
    matrix = op.to_matrix(n)
    assert np.allclose(apply_operator(amps, op, n), matrix @ amps, atol=1e-10)
    expected = float(np.real(np.vdot(amps, matrix @ amps)))
    assert expectation(StateVector(n, amps), op) == pytest.approx(expected, abs=1e-10)


def test_block_ops_expand_to_the_gate_circuit():
    string = PauliString({0: "Y", 2: "Z"})
    circuit = exp_pauli(0.25, string, 3)
    assert circuit.ops == (PauliRotation(string, 0.25),)
    assert circuit.num_gates == 7
    assert circuit.inverse().gates == Circuit(3, circuit.gates).inverse().gates


@st.composite
def mixed_circuits(draw):
    """Bound 6-qubit circuits mixing gates of every kind and blocks."""
    ops = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            _, string, _ = draw(strings())
            ops.append(PauliRotation(string, draw(angles)))
            continue
        kind = draw(st.sampled_from(sorted(GATE_KINDS)))
        arity, takes_angle = GATE_KINDS[kind]
        qubits = draw(st.permutations(range(6)))[:arity]
        ops.append(Gate(kind, tuple(qubits), draw(angles) if takes_angle else None))
    return Circuit(6, tuple(ops))


@settings(max_examples=100, deadline=None)
@given(mixed_circuits())
def test_gate_counts_match_the_expansion(circuit):
    expected = Counter(gate.kind for gate in circuit.gates)
    expected["total"] = len(circuit.gates)
    assert circuit.gate_counts() == dict(expected)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.data())
def test_gate_counts_of_y_heavy_rotations_match_the_expansion(n, data):
    # Rotations drawn from masks, Y on most of their qubits, between gates.
    full = (1 << n) - 1
    ops = []
    for _ in range(data.draw(st.integers(0, 10))):
        if data.draw(st.booleans()):
            support = data.draw(st.integers(1, full))
            x = support & data.draw(st.integers(0, full))  # the X and Y factors
            y = x & ~(data.draw(st.integers(0, full)) & data.draw(st.integers(0, full)))
            z = y | (support & ~x)
            ops.append(PauliRotation(PauliString.from_masks(x, z), 0.1))
        else:
            kind = data.draw(st.sampled_from(sorted(GATE_KINDS)))
            arity, takes_angle = GATE_KINDS[kind]
            if arity > n:
                continue
            qubits = data.draw(st.permutations(range(n)))[:arity]
            ops.append(Gate(kind, tuple(qubits), 0.2 if takes_angle else None))
    circuit = Circuit(n, tuple(ops))
    expected = Counter(gate.kind for gate in circuit.gates)
    expected["total"] = len(circuit.gates)
    assert circuit.gate_counts() == dict(expected)


def run_config(name, **workflow_overrides):
    config = json.loads((CONFIG_DIR / name).read_text())
    model_section = dict(config["model"])
    model = create_model(model_section.pop("kind"), model_section)
    workflow_section = dict(config["workflow"], **workflow_overrides)
    return get_workflow(workflow_section.pop("name"), workflow_section).execute(model)


def test_heisenberg_quench_circuit_stats_pinned():
    stats = run_config("heisenberg_quench_g0.json")["final-circuit-stats"]
    assert stats == {
        "total": 28804,
        "X": 4,
        "H": 12800,
        "CNOT": 6400,
        "Rz": 3200,
        "Sdg": 3200,
        "S": 3200,
    }


def test_qite_cancel_inverses_circuit_stats_pinned():
    result = run_config("qite_tfim_000.json", **{"circuit-optimizer": "cancel-inverses"})
    assert result["final-circuit-stats"] == {
        "Sdg": 233,
        "H": 884,
        "Rz": 544,
        "CNOT": 1464,
        "S": 233,
        "total": 3358,
    }


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_row_plan_rotates_bit_for_bit_like_the_strided_plan(data):
    # A row's entries and the strided plan's phase and signs are all +-1 or
    # +-i, so the two plans multiply the same reals and agree exactly.
    n = data.draw(st.integers(1, ROW_PLAN_QUBITS))
    x = data.draw(st.integers(1, 2**n - 1))  # an X or Y factor
    string = PauliString.from_masks(x, data.draw(st.integers(0, 2**n - 1)))
    theta = data.draw(angles)
    amps = random_state(n, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    before = amps.copy()
    strided = simulator._pauli_plan(string.factors, n)
    row = simulator._row_plan(string, n)
    expected = simulator._pauli_rotation(amps, strided, theta)
    got = simulator._pauli_rotation(amps, row, theta)
    assert np.array_equal(got, expected) and np.array_equal(amps, before)
    assert simulator._pauli_rotation(amps, row, theta, out=amps) is amps
    assert np.array_equal(amps, expected)
    # A row is built only for a string with a Z or Y factor, and both its
    # parts are read-only, the index shared per (width, x mask).
    index, signs = row
    assert (signs is None) == (string.z == 0) and not index.flags.writeable
    assert signs is None or not signs.flags.writeable
    assert index is simulator._row_plan(PauliString.from_masks(x, 0), n)[0]
