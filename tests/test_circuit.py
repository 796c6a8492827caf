import numpy as np
import pytest
from scipy.linalg import expm

from quasimo.circuit import (
    ArityMismatchError,
    Circuit,
    Gate,
    GATE_KINDS,
    IdentityStringError,
    Param,
    UnboundParametersError,
    WidthMismatchError,
    cancel_adjacent_inverses,
    cnot,
    exp_pauli,
    h,
    rx,
    rz,
    s,
    sdg,
)
from quasimo.pauli import PauliOperator, PauliString
from quasimo.simulator import StateVector, run

from conftest import circuit_unitary, gate_matrix, random_circuit, random_state


def test_every_gate_matrix_is_unitary():
    for kind, (arity, takes_angle) in GATE_KINDS.items():
        gate = Gate(kind, tuple(range(arity)), 0.7 if takes_angle else None)
        m = gate_matrix(gate)
        assert np.allclose(m @ m.conj().T, np.eye(m.shape[0]), atol=1e-12), kind


def test_bind_parameters_literal():
    circuit = Circuit(1, (rx(0, Param(0)),), 1)
    bound = circuit.bind_parameters([1.57079])
    assert bound.num_params == 0
    assert bound.gates[0].angle == pytest.approx(1.57079)


def test_bind_empty_circuit():
    assert Circuit(0).bind_parameters([]) == Circuit(0)


def test_bind_then_unitary_equals_direct_construction(rng):
    values = [0.3, -1.2]
    symbolic = Circuit(2, (rx(0, Param(0)), rz(1, Param(1)), cnot(0, 1)), 2)
    direct = Circuit(2, (rx(0, values[0]), rz(1, values[1]), cnot(0, 1)))
    assert np.allclose(
        circuit_unitary(symbolic.bind_parameters(values)),
        circuit_unitary(direct),
        atol=1e-12,
    )


def test_bind_arity_mismatch():
    circuit = Circuit(1, (rx(0, Param(0)),), 1)
    with pytest.raises(ArityMismatchError):
        circuit.bind_parameters([0.1, 0.2])


def test_param_scaling_binds_scaled_angle():
    circuit = Circuit(1, (rz(0, Param(0, 0.5)),), 1)
    assert circuit.bind_parameters([2.0]).gates[0].angle == pytest.approx(1.0)


def test_inverse_of_h_is_h():
    assert Circuit(1, (h(0),)).inverse() == Circuit(1, (h(0),))


def test_inverse_of_rz_negates_angle():
    inv = Circuit(1, (rz(0, 0.7),)).inverse()
    assert inv.gates[0].angle == pytest.approx(-0.7)


def test_compose_with_inverse_is_identity_on_random_states(rng):
    for _ in range(4):
        circuit = random_circuit(3, 25, rng)
        both = circuit.compose(circuit.inverse())
        state = StateVector(3, random_state(3, rng))
        evolved = run(both, state)
        assert state.fidelity(evolved) == pytest.approx(1.0, abs=1e-10)


def test_compose_width_mismatch():
    with pytest.raises(WidthMismatchError):
        Circuit(2).compose(Circuit(3))


def test_exp_pauli_z_is_single_rz():
    circuit = exp_pauli(0.31, PauliString({0: "Z"}))
    assert len(circuit.gates) == 1
    gate = circuit.gates[0]
    assert gate.kind == "Rz" and gate.angle == pytest.approx(0.62)


def test_exp_pauli_zz_matches_expm():
    theta = 0.417
    string = PauliString({0: "Z", 1: "Z"})
    circuit = exp_pauli(theta, string)
    assert [g.kind for g in circuit.gates] == ["CNOT", "Rz", "CNOT"]
    assert circuit.gates[1].qubits == (1,)
    dense = PauliOperator.from_string(string).to_matrix(2)
    assert np.allclose(circuit_unitary(circuit), expm(-1j * theta * dense), atol=1e-12)


@pytest.mark.parametrize(
    "axes",
    [{0: "X"}, {0: "Y"}, {0: "X", 1: "Y", 2: "Z"}, {0: "Y", 2: "Y"}, {1: "X", 2: "Z"}],
)
def test_exp_pauli_matches_expm(axes, rng):
    string = PauliString(axes)
    n = max(3, string.width)
    theta = float(rng.uniform(-2, 2))
    dense = PauliOperator.from_string(string).to_matrix(n)
    assert np.allclose(
        circuit_unitary(exp_pauli(theta, string, n)),
        expm(-1j * theta * dense),
        atol=1e-12,
    )


def test_exp_pauli_half_pi_x_acts_as_x():
    circuit = exp_pauli(np.pi / 2, PauliString({0: "X"}))
    unitary = circuit_unitary(circuit)
    phase = unitary[1, 0]
    assert np.allclose(unitary / phase, np.array([[0, 1], [1, 0]]), atol=1e-12)


def test_exp_pauli_rejects_identity():
    with pytest.raises(IdentityStringError):
        exp_pauli(0.3, PauliString())


def test_exp_pauli_gate_count():
    # 2 * per-side basis-change gates + 2 * (support - 1) CNOTs + 1 Rz.
    cases = [({0: "Z", 1: "Z"}, 0), ({0: "X", 2: "Z"}, 1), ({0: "Y", 1: "X", 2: "Y"}, 5)]
    for axes, basis_gates in cases:
        string = PauliString(axes)
        circuit = exp_pauli(0.2, string)
        support = len(string.support)
        assert len(circuit.gates) == 2 * basis_gates + 2 * (support - 1) + 1


def test_cancel_adjacent_h_pair():
    assert cancel_adjacent_inverses(Circuit(1, (h(0), h(0)))).gates == ()


def test_cancel_adjacent_cnot_pair():
    assert cancel_adjacent_inverses(Circuit(2, (cnot(0, 1), cnot(0, 1)))).gates == ()


@pytest.mark.parametrize(
    "pair, cancels",
    [
        pytest.param((rz(0, 0.4), rz(0, -0.4)), True, id="rz-opposite-floats"),
        pytest.param((s(0), sdg(0)), True, id="s-sdg"),
        pytest.param((sdg(0), s(0)), True, id="sdg-s"),
        pytest.param((rz(0, Param(0)), rz(0, -Param(0))), True, id="rz-opposite-param"),
        pytest.param((rz(0, Param(0)), rz(0, -Param(1))), False, id="rz-other-param"),
        pytest.param((rz(0, Param(0)), rz(0, 0.5)), False, id="rz-param-float"),
        pytest.param((rx(0, 0.4), rz(0, -0.4)), False, id="rx-rz"),
    ],
)
def test_cancel_rz_opposite_angles(pair, cancels):
    circuit = Circuit(1, pair, 2)
    assert cancel_adjacent_inverses(circuit).gates == (() if cancels else pair)


def _every_gate():
    """Every kind on both qubit orders; rotations at signed zero, +-0.4, +-pi,
    NaN and at Param slots with scales +-1, +-2 and +-0."""
    floats = [0.0, -0.0, 0.4, -0.4, np.pi, -np.pi, float("nan")]
    params = [Param(0, scale) for scale in (1.0, -1.0, 2.0, -2.0, 0.0, -0.0)] + [Param(1)]
    for kind, (arity, takes_angle) in GATE_KINDS.items():
        for qubits in ([(0,), (1,)] if arity == 1 else [(0, 1), (1, 0)]):
            for angle in (floats + params if takes_angle else [None]):
                yield Gate(kind, qubits, angle)


def test_cancel_decides_as_inverse_equality_over_every_pair():
    gates = list(_every_gate())
    for first in gates:
        inverse = first.inverse()
        for second in gates:
            kept = cancel_adjacent_inverses(Circuit(2, (first, second), 2)).gates
            assert kept == (() if inverse == second else (first, second)), (first, second)


def test_cancel_cascades_to_fixed_point():
    circuit = Circuit(2, (h(0), cnot(0, 1), cnot(0, 1), h(0)))
    optimized = cancel_adjacent_inverses(circuit)
    assert optimized.gates == ()
    assert cancel_adjacent_inverses(optimized) == optimized


def test_cancel_preserves_unitary_on_random_circuits(rng):
    for _ in range(5):
        circuit = random_circuit(3, 30, rng)
        optimized = cancel_adjacent_inverses(circuit)
        assert np.allclose(
            circuit_unitary(optimized), circuit_unitary(circuit), atol=1e-10
        )


def test_run_rejects_unbound_circuit():
    circuit = Circuit(1, (rx(0, Param(0)),), 1)
    with pytest.raises(UnboundParametersError):
        run(circuit)


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("CNOT", (1, 1))
    with pytest.raises(ValueError):
        Gate("H", (0, 1))
    with pytest.raises(ValueError):
        Gate("Rx", (0,))
    with pytest.raises(WidthMismatchError):
        Circuit(1, (cnot(0, 1),))


def test_dump_format():
    circuit = exp_pauli(0.25, PauliString({0: "Y", 2: "Z"}), 3)
    assert circuit.dump() == "\n".join(
        [
            "Sdg q0",
            "H q0",
            "CNOT q0,q2",
            "Rz q2(0.5)",
            "CNOT q0,q2",
            "H q0",
            "S q0",
        ]
    )


def test_dump_symbolic_param():
    circuit = Circuit(1, (rz(0, Param(0)), rx(0, Param(1, 2.0))), 2)
    assert circuit.dump() == "Rz q0(p0)\nRx q0(2.0*p1)"
