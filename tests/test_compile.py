"""The compiled program against the op-by-op ``run`` and a dense oracle.

``compile_circuit`` keeps a circuit's leading X gates as gate steps and
folds each later maximal run of adjacent ops whose window spans at most
``WINDOW`` qubits into one FusedBlock, whose matrix the kernel builds
over every qubit of the window.  A run's window is min(S)..max(S) of its
joint support S, or 0..max(S) when min(S) < ``SHORT_ROWS``; the block
applies as one matrix product on the state's view with the window as its
middle axis.  One oracle is ``run``, which applies every op through the same
kernel; the independent one is the product of dense references: each gate's
``gate_matrix`` embedded with ``np.kron`` and scipy's ``expm`` (or the closed
form cos I - i sin P) of each rotation's string.  A circuit with Param slots
compiles too: each run of two or more adjacent slotted Rx/Ry/Rz is one
RotationLayer, every other slotted op a rotation step of its own, and a run
with values is checked against ``run`` of the circuit bound to them.  The
low-block and window strategies draw supports that skip qubits inside the
window (such as {1, 3}), and place the window at qubit 0, at the top of the
register and in between, so a matrix built over the support alone, a
transposed matrix or a view with its axes swapped fails them.
"""

import math
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from quasimo import simulator
from quasimo.ansatz import qaoa_ansatz, rx_ry, symmetric_trotter_step, trotter_step
from quasimo.circuit import (
    GATE_KINDS,
    ArityMismatchError,
    Circuit,
    Gate,
    Param,
    PauliRotation,
    UnboundParametersError,
    rx,
    rz,
)
from quasimo.model import bits_prep, create_model, create_star_maxcut
from quasimo.pauli import PauliOperator, PauliString
from quasimo.simulator import (
    SHORT_ROWS,
    WINDOW,
    FusedBlock,
    RotationLayer,
    StateVector,
    compile_circuit,
    expectation,
    run,
)
from quasimo.workflow import get_workflow

from conftest import embedded, random_circuit, random_state

angles = st.one_of(
    st.sampled_from([0.0, math.pi, -math.pi]),
    st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False, allow_infinity=False),
)


@st.composite
def circuits(draw):
    """Random bound circuits built in segments; each segment's ops act inside
    a pool of one to three of up to six qubits, so runs that fit a window
    form and runs whose window would grow past ``WINDOW`` occur."""
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
    assert_block_structure(circuit, program)


def window(qubits):
    """The qubits a run on ``qubits`` (its joint support) spans."""
    low = min(qubits) if min(qubits) >= SHORT_ROWS else 0
    return tuple(range(low, max(qubits) + 1))


def fusable(qubits):
    """Whether ops on ``qubits`` jointly may form one FusedBlock."""
    return len(window(qubits)) <= WINDOW


def leading_xs(circuit):
    """How many X gates the circuit starts with."""
    lead = 0
    while lead < len(circuit.ops) and getattr(circuit.ops[lead], "kind", None) == "X":
        lead += 1
    return lead


def assert_block_structure(circuit, program):
    # An op whose own window spans more than WINDOW qubits is never fused:
    # it stays its own step.
    for op in circuit.ops:
        if not fusable(op.qubits):
            assert any(step is op for step in program.steps)
    for step in program.steps:
        if isinstance(step, FusedBlock):
            assert step.qubits == window(step.qubits)
            assert fusable(step.qubits)
            assert len(step.matrix) == 2 ** len(step.qubits)
            assert np.allclose(step.matrix.conj().T @ step.matrix, np.eye(len(step.matrix)))
    # The circuit's leading X gates stay gate steps, for a run from a basis
    # state to fold into its index.
    lead = leading_xs(circuit)
    assert program.steps[:lead] == circuit.ops[:lead]
    # After them, runs are maximal: no two neighbouring steps fuse together.
    steps = program.steps[lead:]
    for first, second in zip(steps, steps[1:]):
        assert not fusable(set(first.qubits) | set(second.qubits))


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
@given(circuits(), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_shifted_blocks_keep_their_window_and_match_run(circuit, offset, seed):
    # Moved up to SHORT_ROWS or above, no window starts at qubit 0: each one is
    # its run's support range, applied as a batched product (or one product
    # at the top of the register).
    circuit = shifted(circuit, SHORT_ROWS + offset)
    n = circuit.num_qubits
    initial = StateVector(n, random_state(n, np.random.default_rng(seed)))
    program = compile_circuit(circuit)
    expected = run(circuit, initial).amplitudes
    assert np.allclose(program.run(initial).amplitudes, expected, rtol=0, atol=1e-12)
    assert_block_structure(circuit, program)
    for step in program.steps:
        if isinstance(step, FusedBlock):
            assert step.qubits[0] >= SHORT_ROWS + offset


def dense_reference(op, n):
    if isinstance(op, PauliRotation):
        return expm(-1j * op.angle * PauliOperator.from_string(op.string).to_matrix(n))
    return embedded(op, n)


def closed_form_reference(op, n):
    """``dense_reference`` with exp(-i*a*P) written out as cos(a) I - i sin(a) P
    (P squares to I): at 9 qubits several times cheaper than ``expm``."""
    if isinstance(op, PauliRotation):
        string = PauliOperator.from_string(op.string).to_matrix(n)
        return math.cos(op.angle) * np.eye(2**n) - 1j * math.sin(op.angle) * string
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


def pool_ops(draw, pool, count):
    """``count`` random bound ops inside ``pool``: gates of every kind that
    fits and rotations on 1 to len(pool) of its qubits."""
    kinds = sorted(kind for kind, (arity, _) in GATE_KINDS.items() if arity <= len(pool))
    ops = []
    for _ in range(count):
        if draw(st.booleans()):
            support = draw(st.permutations(pool))[: draw(st.integers(1, len(pool)))]
            axes = [draw(st.sampled_from("XYZ")) for _ in support]
            ops.append(PauliRotation(PauliString(dict(zip(support, axes))), draw(angles)))
            continue
        kind = draw(st.sampled_from(kinds))
        arity, takes_angle = GATE_KINDS[kind]
        qubits = draw(st.permutations(pool))[:arity]
        ops.append(Gate(kind, qubits, draw(angles) if takes_angle else None))
    return ops


@st.composite
def low_circuits(draw):
    """Random bound circuits on 4 to 8 qubits whose ops all act below
    WINDOW, inside a pool of qubits that often skips qubit 0 or others below
    the pool's highest."""
    n = draw(st.integers(4, 8))
    pool = draw(st.lists(st.integers(0, WINDOW - 1), min_size=1, max_size=WINDOW, unique=True))
    return Circuit(n, tuple(pool_ops(draw, pool, draw(st.integers(1, 8)))))


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
    # Every op lies below WINDOW, so all but the leading X gates fold into
    # one step.
    lead = leading_xs(circuit)
    assert len(program.steps) - lead <= 1


@st.composite
def placed_circuits(draw):
    """(circuit, window): random bound circuits on 4 to 9 qubits whose ops
    all fall inside one window of 1 to WINDOW qubits placed at qubit 0, at
    SHORT_ROWS or anywhere above it, the top of the register included.  The
    first op is a rotation on the window's two ends, so the run spans all of
    it; the others act inside a pool that often skips qubits between them."""
    n = draw(st.integers(4, 9))
    width = draw(st.integers(1, WINDOW))
    lo = draw(st.sampled_from([0, *range(SHORT_ROWS, n - width + 1)]))
    hi = lo + width - 1
    ends = {lo: draw(st.sampled_from("XYZ")), hi: draw(st.sampled_from("XYZ"))}
    ops = [PauliRotation(PauliString(ends), draw(angles))]
    pool = draw(st.lists(st.integers(lo, hi), min_size=1, max_size=width, unique=True))
    ops += pool_ops(draw, pool, draw(st.integers(1, 8)))
    return Circuit(n, tuple(ops)), tuple(range(lo, hi + 1))


@settings(max_examples=150, deadline=None)
@given(placed_circuits(), st.integers(0, 2**32 - 1))
def test_blocks_at_every_window_placement_match_the_dense_product(case, seed):
    # Each view shape runs: a window from qubit 0 (the 2-D view), one ending
    # at the top qubit (a single product) and one in between (batched).
    circuit, placed = case
    n = circuit.num_qubits
    initial = StateVector(n, random_state(n, np.random.default_rng(seed)))
    expected = initial.amplitudes
    for op in circuit.ops:
        expected = closed_form_reference(op, n) @ expected
    program = compile_circuit(circuit)
    assert np.allclose(program.run(initial).amplitudes, expected, rtol=0, atol=1e-12)
    (block,) = program.steps
    assert isinstance(block, FusedBlock)
    assert block.qubits == placed
    assert len(block.matrix) == 2 ** len(placed)


def test_program_leaves_the_initial_state_unchanged(rng):
    circuit = Circuit(3, (rx(0, 0.3), rx(1, 0.2), Gate("CNOT", (0, 1)), Gate("H", (2,))))
    initial = StateVector(3, random_state(3, rng))
    before = initial.amplitudes.copy()
    compile_circuit(circuit).run(initial)
    assert np.array_equal(initial.amplitudes, before)


def run_both_read_only(circuit, initial):
    """``run`` and ``Program.run`` from ``initial``, whose amplitudes are made
    read-only so that any write to them raises.  Checks that neither result
    shares memory with them and that they are unchanged."""
    before = initial.amplitudes.copy()
    initial.amplitudes.flags.writeable = False
    program = compile_circuit(circuit)
    results = [run(circuit, initial), program.run(initial)]
    for result in results:
        assert not np.shares_memory(result.amplitudes, initial.amplitudes)
        assert result.amplitudes.flags.writeable
    assert np.array_equal(initial.amplitudes, before)
    return program, results


# Two rotations whose windows span more than WINDOW qubits stay kernel steps.
WIDE_ROTATION = PauliRotation(PauliString({0: "X", 5: "Y"}), 0.4)
OTHER_WIDE_ROTATION = PauliRotation(PauliString({1: "Z", 5: "X"}), -0.7)
FIRST_STEPS = {
    "empty": (Circuit(6), None),
    "rotation": (
        Circuit(6, (WIDE_ROTATION, OTHER_WIDE_ROTATION, Gate("H", (5,)))), PauliRotation
    ),
    "gate": (Circuit(6, (Gate("H", (0,)), WIDE_ROTATION)), Gate),
    "fused": (Circuit(6, (Gate("H", (0,)), Gate("CNOT", (0, 1)), WIDE_ROTATION)), FusedBlock),
}


@pytest.mark.parametrize("case", sorted(FIRST_STEPS))
def test_runs_never_write_to_or_alias_the_initial_state(case, rng):
    circuit, first_step = FIRST_STEPS[case]
    initial = StateVector(6, random_state(6, rng))
    program, (by_op, compiled) = run_both_read_only(circuit, initial)
    if first_step is None:
        assert program.steps == ()
        assert np.array_equal(by_op.amplitudes, initial.amplitudes)
        assert np.array_equal(compiled.amplitudes, initial.amplitudes)
    else:
        assert isinstance(program.steps[0], first_step)
        assert np.allclose(compiled.amplitudes, by_op.amplitudes, rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_random_circuit_runs_never_write_to_or_alias_the_initial_state(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    circuit = random_circuit(n, int(rng.integers(0, 12)), rng)
    run_both_read_only(circuit, StateVector(n, random_state(n, rng)))


@settings(max_examples=100, deadline=None)
@given(circuits(), st.integers(0, 2**32 - 1))
def test_mixed_circuit_runs_never_write_to_or_alias_the_initial_state(circuit, seed):
    n = circuit.num_qubits
    run_both_read_only(circuit, StateVector(n, random_state(n, np.random.default_rng(seed))))


@pytest.mark.parametrize("initial", [None, 0, 5])
@pytest.mark.parametrize("case", sorted(FIRST_STEPS))
def test_runs_from_none_or_a_basis_index_return_a_fresh_state_each_time(case, initial):
    circuit = FIRST_STEPS[case][0]
    expected = run(circuit, StateVector.basis(6, initial or 0)).amplitudes
    program = compile_circuit(circuit)
    for execute in (lambda: run(circuit, initial), lambda: program.run(initial)):
        first, second = execute(), execute()
        assert not np.shares_memory(first.amplitudes, second.amplitudes)
        assert np.allclose(first.amplitudes, expected, rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(circuits(), st.data())
def test_runs_from_a_basis_state_equal_runs_from_its_state_vector(circuit, data):
    # A leading run of X gates, folded into the basis index, then any ops.
    n = circuit.num_qubits
    flips = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    circuit = Circuit(n, tuple(Gate("X", (q,)) for q in flips) + circuit.ops)
    program = compile_circuit(circuit)
    initial = data.draw(st.none() | st.integers(0, 2**n - 1))
    start = StateVector.basis(n, initial or 0)
    for execute in (lambda s: run(circuit, s), program.run):
        assert np.array_equal(execute(initial).amplitudes, execute(start).amplitudes)


def test_a_basis_state_prep_applies_no_gate(monkeypatch):
    applied = []
    apply_gate = simulator.apply_gate
    monkeypatch.setattr(
        simulator, "apply_gate", lambda *args: applied.append(args) or apply_gate(*args)
    )
    bits = [i % 2 for i in range(16)]
    state = run(bits_prep(bits))
    assert applied == []
    index = sum(1 << q for q, b in enumerate(bits) if b)
    assert np.array_equal(state.amplitudes, StateVector.basis(16, index).amplitudes)
    assert np.array_equal(run(bits_prep(bits), index).amplitudes, StateVector.zero(16).amplitudes)
    # A later X gate, after another op, still runs through the kernel.
    run(Circuit(2, (Gate("X", (0,)), Gate("H", (1,)), Gate("X", (1,)))))
    assert [gate.kind for _, gate, _ in applied] == ["H", "X"]
    # The compiled H2 ansatz keeps its Hartree-Fock X(0), X(2) as gate steps
    # rather than fusing them, so every objective run folds them into the
    # basis index; after them come a rotation layer and a fused block only.
    ansatz = create_model("h2", {}).state_prep
    program = compile_circuit(ansatz)
    assert program.steps[:2] == (Gate("X", (0,)), Gate("X", (2,)))
    assert not any(isinstance(step, Gate) for step in program.steps[2:])
    values = np.linspace(-1.0, 1.0, ansatz.num_params)
    applied.clear()  # compiling ran the fused blocks' ops through the kernel
    state = program.run(None, values)
    assert applied == []
    # The layer's Kronecker product rounds differently from the rotations
    # one by one.
    bound = ansatz.bind_parameters(values)
    assert np.allclose(
        state.amplitudes, run(bound, StateVector.zero(4)).amplitudes, rtol=0, atol=1e-12
    )
    assert np.allclose(
        state.amplitudes, run(Circuit(4, bound.gates)).amplitudes, rtol=0, atol=1e-12
    )


def test_sixteen_spin_symmetric_xxz_step_compiles_to_9_fused_steps():
    model = create_model("heisenberg", {"num_spins": 16, "Jz": 0.25})
    step = symmetric_trotter_step(model.hamiltonian, 0.05, 16)
    program = compile_circuit(step)
    assert len(step.ops) == 90
    assert all(isinstance(s, FusedBlock) for s in program.steps)
    # Bonds fold three at a time into 4-qubit windows: (0,1)..(2,3) on 0..3,
    # (3,4)..(5,6) on 3..6 and so on up to 12..15, where the top bond runs
    # once and the way back down starts; the way down mirrors the way up.
    up = [tuple(range(lo, lo + 4)) for lo in (0, 3, 6, 9)]
    assert [s.qubits for s in program.steps] == up + [(12, 13, 14, 15)] + up[::-1]
    assert all(len(s.matrix) == 2**4 for s in program.steps)
    assert len(program.steps) == 9
    # Equal runs on shifted windows share one matrix: the first window, the
    # middle ones (equal bonds) and the top.
    assert len({id(block.matrix) for block in program.steps}) == 3
    # Runs are maximal, so each block's ops are the longest run of the
    # remaining ops inside its window.
    ops = list(step.ops)
    for block in program.steps:
        group = []
        while ops and set(window(ops[0].qubits)) <= set(block.qubits):
            group.append(ops.pop(0))
        assert np.array_equal(block.matrix, simulator._block_matrix(group, block.qubits, {}))
    assert ops == []


def test_an_unbound_circuit_compiles_and_running_it_without_values_raises():
    circuit = Circuit(1, (rx(0, Param(0)),), 1)
    program = compile_circuit(circuit)
    assert program.num_params == 1
    with pytest.raises(UnboundParametersError):
        program.run()
    with pytest.raises(UnboundParametersError):
        program.run(StateVector(1), [])


@pytest.mark.parametrize("values", [[0.1], [0.1, 0.2, 0.3]])
def test_running_a_program_with_the_wrong_number_of_values_raises(values):
    circuit = Circuit(2, (rx(0, Param(0)), Gate("CNOT", (0, 1)), rz(1, 2.0 * Param(1))), 2)
    with pytest.raises(ArityMismatchError):
        compile_circuit(circuit).run(None, values)
    with pytest.raises(ArityMismatchError):
        compile_circuit(Circuit(1, (rx(0, 0.3),))).run(None, values)


scales = st.one_of(
    st.sampled_from([1.0, -1.0, 2.0, 0.5]),
    st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def slotted_circuits(draw, widths=st.integers(1, 8), params=st.integers(1, 4)):
    """Random circuits on ``widths`` qubits (1 to 8) whose angles are floats
    or Param slots (scaled or not) of ``params`` parameters (one to four; with
    none, every angle is a float), built in segments inside pools of one to
    three qubits anywhere in the register, so bound runs fuse at every
    window placement between slotted ops."""
    n = draw(widths)
    num_params = draw(params)
    ops = []
    for _ in range(draw(st.integers(0, 5))):
        pool = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
        for op in pool_ops(draw, pool, draw(st.integers(1, 5))):
            if num_params and op.angle is not None and draw(st.booleans()):
                slot = Param(draw(st.integers(0, num_params - 1)), draw(scales))
                if isinstance(op, PauliRotation):
                    op = PauliRotation(op.string, slot)
                else:
                    op = Gate(op.kind, op.qubits, slot)
            ops.append(op)
    return Circuit(n, tuple(ops), num_params)


def draw_initial(start, n, data):
    """None, a basis index or a random StateVector, as ``start`` names."""
    if start == "none":
        return None
    if start == "index":
        return data.draw(st.integers(0, 2**n - 1))
    return StateVector(n, random_state(n, np.random.default_rng(data.draw(st.integers(0)))))


@settings(max_examples=200, deadline=None)
@given(slotted_circuits(), st.sampled_from(["none", "index", "state"]), st.data())
def test_a_slotted_program_run_with_values_equals_the_bound_circuit_run(circuit, start, data):
    n, num_params = circuit.num_qubits, circuit.num_params
    values = data.draw(st.lists(angles, min_size=num_params, max_size=num_params))
    initial = draw_initial(start, n, data)
    program = compile_circuit(circuit)
    assert program.num_params == num_params
    expected = run(circuit.bind_parameters(values), initial).amplitudes
    assert np.allclose(program.run(initial, values).amplitudes, expected, rtol=0, atol=1e-12)
    assert_slotted_structure(circuit, program)


def slotted_gate(op):
    return isinstance(op, Gate) and isinstance(op.angle, Param)


def assert_slotted_structure(circuit, program):
    # Each slotted op becomes a rotation on the same slot, in order; a
    # slotted Rx/Ry/Rz becomes its one-axis rotation at half scale.  Each
    # maximal run of two or more adjacent slotted gates is one
    # RotationLayer, and every other slotted op is a step of its own.
    slotted = [op for op in circuit.ops if isinstance(op.angle, Param)]
    rotations, layers = [], []
    for step in program.steps:
        if isinstance(step, RotationLayer):
            layers.append(len(step.rotations))
            rotations.extend(step.rotations)
        elif isinstance(getattr(step, "angle", None), Param):
            assert isinstance(step, PauliRotation)
            rotations.append(step)
    assert len(rotations) == len(slotted)
    for op, rotation in zip(slotted, rotations):
        assert rotation.qubits == op.qubits
        half = 0.5 if isinstance(op, Gate) else 1.0
        assert rotation.angle == Param(op.angle.index, op.angle.scale * half)
    runs = [len(list(group)) for layered, group in groupby(circuit.ops, slotted_gate) if layered]
    assert layers == [length for length in runs if length >= 2]


PLANNED_WIDTHS = [1, 2, 3, 12, 13, 14]


@settings(max_examples=80, deadline=None)
@given(
    slotted_circuits(widths=st.sampled_from(PLANNED_WIDTHS), params=st.integers(0, 3)),
    st.sampled_from(["none", "index", "state"]),
    st.data(),
)
def test_planned_programs_on_narrow_and_wide_registers_equal_the_gate_level_run(
    circuit, start, data
):
    # Every rotation step runs its strided plan, on small registers and on
    # wide ones alike.  The oracle runs the bound circuit's gate-level
    # expansion, gate by gate.
    n, num_params = circuit.num_qubits, circuit.num_params
    values = data.draw(st.lists(angles, min_size=num_params, max_size=num_params))
    initial = draw_initial(start, n, data)
    program = compile_circuit(circuit)
    gates = Circuit(n, circuit.bind_parameters(values).gates)
    expected = run(gates, initial).amplitudes
    assert np.allclose(program.run(initial, values).amplitudes, expected, rtol=0, atol=1e-12)


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


@st.composite
def slotted_rotation_circuits(draw):
    """One to twelve rotations exp(-i*scale*theta_j*P) on 1 to 10 qubits,
    each on a random non-identity X/Y/Z string and a Param slot of one to
    four parameters."""
    n = draw(st.integers(1, 10))
    num_params = draw(st.integers(1, 4))
    ops = []
    for _ in range(draw(st.integers(1, 12))):
        qubits = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        axes = draw(st.lists(st.sampled_from("XYZ"), min_size=len(qubits), max_size=len(qubits)))
        slot = Param(draw(st.integers(0, num_params - 1)), draw(scales))
        ops.append(PauliRotation(PauliString(dict(zip(qubits, axes))), slot))
    return Circuit(n, tuple(ops), num_params)


@settings(max_examples=150, deadline=None)
@given(slotted_rotation_circuits(), st.sampled_from(["none", "index", "state"]), st.data())
def test_planned_rotations_equal_the_bound_circuit_run_bit_for_bit(circuit, start, data):
    # The program runs the plans it built at compile time; ``run`` builds
    # them for the bound circuit's rotations.  Same angles, same arithmetic.
    n, num_params = circuit.num_qubits, circuit.num_params
    values = data.draw(st.lists(angles, min_size=num_params, max_size=num_params))
    initial = draw_initial(start, n, data)
    program = compile_circuit(circuit)
    assert program.steps == circuit.ops and len(program.plans) == len(program.steps)
    expected = run(circuit.bind_parameters(values), initial).amplitudes
    assert np.array_equal(program.run(initial, values).amplitudes, expected)


LAYER_WIDTHS = [1, 2, 3, 4, 5, 8, 12, 13]


@st.composite
def layered_circuits(draw):
    """Circuits on LAYER_WIDTHS qubits whose runs of slotted Rx/Ry/Rz become
    RotationLayers: each run rotates a random list of qubits (repeats put
    several ops on one qubit, gaps leave qubits out, and a run may span
    several WINDOW-aligned windows) about random axes, on shared slots with
    negated and scaled slots among them; a bound H or CNOT, a slotted ZZ
    rotation or nothing separates runs."""
    n = draw(st.sampled_from(LAYER_WIDTHS))
    num_params = draw(st.integers(1, 3))
    ops = []
    for _ in range(draw(st.integers(1, 3))):
        for q in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)):
            slot = Param(draw(st.integers(0, num_params - 1)), draw(scales))
            ops.append(Gate(draw(st.sampled_from(["Rx", "Ry", "Rz"])), (q,), slot))
        separator = draw(st.sampled_from(["none", "H", "CNOT", "ZZ"]))
        if separator == "H" or (separator == "CNOT" and n == 1):
            ops.append(Gate("H", (draw(st.integers(0, n - 1)),)))
        elif separator == "CNOT":
            ops.append(Gate("CNOT", tuple(draw(st.permutations(range(n)))[:2])))
        elif separator == "ZZ":
            ends = draw(st.permutations(range(n)))[:2]
            ops.append(PauliRotation(PauliString({q: "Z" for q in ends}), Param(0, 0.5)))
    return Circuit(n, tuple(ops), num_params)


@settings(max_examples=150, deadline=None)
@given(layered_circuits(), st.sampled_from(["none", "index", "state"]), st.data())
def test_rotation_layers_equal_the_unfused_bound_run(circuit, start, data):
    n, num_params = circuit.num_qubits, circuit.num_params
    values = data.draw(st.lists(angles, min_size=num_params, max_size=num_params))
    initial = draw_initial(start, n, data)
    if isinstance(initial, StateVector):
        before = initial.amplitudes.copy()
        initial.amplitudes.flags.writeable = False
    program = compile_circuit(circuit)
    assert_slotted_structure(circuit, program)
    expected = run(circuit.bind_parameters(values), initial).amplitudes
    got = program.run(initial, values).amplitudes
    assert np.allclose(got, expected, rtol=0, atol=1e-12)
    if isinstance(initial, StateVector):
        assert np.array_equal(initial.amplitudes, before)
        assert not np.shares_memory(got, initial.amplitudes)


def step_kinds(program):
    return [type(step).__name__ for step in program.steps]


def test_variational_ansaetze_compile_their_rotation_runs_to_layers():
    # QAOA on the 8-node star: the H layer is two fused blocks, then per
    # repetition the 7 ZZ cost rotations stay steps and the Rx mixer is one
    # layer over two windows.
    star = create_star_maxcut(8)
    program = compile_circuit(qaoa_ansatz(star.hamiltonian, 3, 8))
    repetition = ["PauliRotation"] * 7 + ["RotationLayer"]
    assert step_kinds(program) == ["FusedBlock"] * 2 + repetition * 3
    ((los, table),) = program.steps[-1].windows
    assert los == (0, 4) and table.shape == (4, 2, 16, 16)
    # H2: the Hartree-Fock X gates, the Ry+Rz layer and the CNOT chain.
    program = compile_circuit(create_model("h2", {}).state_prep)
    assert step_kinds(program) == ["Gate", "Gate", "RotationLayer", "FusedBlock"]
    (layer,) = program.steps[2:3]
    ((los, table),) = layer.windows
    assert layer.slots.shape == (2, 4) and los == (0,) and not table.flags.writeable
    # Tapered H2: Rx then Ry on its one qubit.
    program = compile_circuit(rx_ry())
    assert step_kinds(program) == ["RotationLayer"]
    assert program.steps[0].slots.tolist() == [[0], [1]]


@pytest.mark.parametrize(
    "values, message",
    [
        ([True, 0.0], "slot 0 needs a finite number, got True"),
        ([0.0, np.True_], "slot 1 needs a finite number, got np.True_"),
        ([float("nan"), 0.0], "slot 0 needs a finite number, got nan"),
        ([0.5, float("inf")], "slot 1 needs a finite number, got inf"),
        (np.array([0.5, -np.inf]), "slot 1 needs a finite number, got -inf"),
    ],
    ids=["bool", "numpy-bool", "nan", "inf", "array-inf"],
)
def test_a_bool_or_non_finite_slot_value_is_refused_naming_its_slot(values, message):
    circuit = Circuit(1, (rx(0, Param(0)), rz(0, Param(1))), 2)
    program = compile_circuit(circuit)
    for refuse in (lambda: program.run(None, values), lambda: circuit.bind_parameters(values)):
        with pytest.raises(ValueError, match=f"parameter {message}$"):
            refuse()
    # Finite values whose sum overflows are each finite: accepted.
    huge = [1e308, 1e308]
    assert circuit.bind_parameters(huge).ops[0].angle == 1e308
