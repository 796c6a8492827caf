from math import cos, sin

import numpy as np
import pytest

from quasimo.circuit import GATE_KINDS, Circuit, Gate
from quasimo.pauli import _AXIS_MATRIX, PauliOperator, PauliString
from quasimo.simulator import run

RANDOM_GATE_KINDS = ["H", "S", "Sdg", "Rx", "Ry", "Rz", "CNOT", "CZ", "X", "Y", "Z"]


def gate_matrix(gate: Gate) -> np.ndarray:
    """Dense matrix of a bound gate (2x2 or 4x4), the reference the tests
    check ``apply_gate`` against."""
    if gate.kind in ("X", "Y", "Z"):
        return _AXIS_MATRIX[gate.kind]
    if gate.kind == "H":
        return np.array([[1, 1], [1, -1]], dtype=complex) * 2**-0.5
    if gate.kind == "S":
        return np.diag([1, 1j])
    if gate.kind == "Sdg":
        return np.diag([1, -1j])
    if gate.kind == "CNOT":
        return np.array(
            [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
        )  # basis order |t c>: the control is the low bit
    if gate.kind == "CZ":
        return np.diag([1, 1, 1, -1]).astype(complex)
    t = gate.angle
    c, sn = cos(t / 2), sin(t / 2)
    if gate.kind == "Rx":
        return np.array([[c, -1j * sn], [-1j * sn, c]])
    if gate.kind == "Ry":
        return np.array([[c, -sn], [sn, c]])
    if gate.kind == "Rz":
        return np.array([[np.exp(-1j * t / 2), 0], [0, np.exp(1j * t / 2)]])
    raise ValueError(f"no matrix for gate kind {gate.kind!r}")


def embedded(gate, n):
    """Dense 2^n x 2^n matrix of ``gate`` from ``gate_matrix`` and ``np.kron``.

    The gate matrix acts on the low bits of ``kron(I, matrix)`` (its first
    qubit lowest); a permutation of basis indices then moves those bits to
    the gate's qubits.
    """
    qubits = gate.qubits
    full = np.kron(np.eye(2 ** (n - len(qubits))), gate_matrix(gate))
    order = list(qubits) + [q for q in range(n) if q not in qubits]
    perm = np.zeros((2**n, 2**n))
    for k in range(2**n):
        perm[sum(((k >> j) & 1) << q for j, q in enumerate(order)), k] = 1
    return perm @ full @ perm.T


def random_circuit(num_qubits, depth, rng):
    gates = []
    for _ in range(depth):
        kind = RANDOM_GATE_KINDS[rng.integers(len(RANDOM_GATE_KINDS))]
        arity, takes_angle = GATE_KINDS[kind]
        qubits = tuple(rng.choice(num_qubits, size=arity, replace=False).tolist())
        angle = float(rng.uniform(-np.pi, np.pi)) if takes_angle else None
        gates.append(Gate(kind, qubits, angle))
    return Circuit(num_qubits, tuple(gates))


def random_hermitian(num_qubits, num_terms, rng, constant=True):
    op = PauliOperator.zero()
    for _ in range(num_terms):
        axes = {}
        for q in range(num_qubits):
            pick = rng.integers(4)
            if pick:
                axes[q] = "IXYZ"[pick]
        if axes:
            op = op + float(rng.normal()) * PauliOperator.from_string(PauliString(axes))
    if constant:
        op = op + PauliOperator.identity(float(rng.normal()))
    return op


def random_state(num_qubits, rng):
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return amps / np.linalg.norm(amps)


def circuit_unitary(circuit):
    """Column-by-column unitary of a bound circuit via the simulator."""
    dim = 2**circuit.num_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for k in range(dim):
        out[:, k] = run(circuit, k).amplitudes
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
