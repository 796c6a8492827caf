"""Circuit generators: Trotter steps, QAOA layers, and generic variational
ansatz kernels."""

from .circuit import Circuit, Param, PauliRotation, cnot, h, rx, ry, rz
from .pauli import PauliOperator
from .simulator import NonHermitianError


def _hamiltonian_terms(hamiltonian: PauliOperator):
    if not hamiltonian.is_hermitian:
        raise NonHermitianError("time evolution requires a Hermitian Hamiltonian")
    # The constant term only contributes a global phase.
    return [(s, c.real) for s, c in hamiltonian.terms() if not s.is_identity]


def trotter_step(hamiltonian: PauliOperator, dt: float, num_qubits=None) -> Circuit:
    """First-order product step for exp(-i*H*dt).

    One exp(-i*c*dt*P) block per non-constant term, in canonical term order;
    the per-step error scales as dt^2.
    """
    terms = _hamiltonian_terms(hamiltonian)
    n = hamiltonian.width if num_qubits is None else num_qubits
    return Circuit(n, tuple(PauliRotation(string, coeff * dt) for string, coeff in terms))


def symmetric_trotter_step(hamiltonian: PauliOperator, dt: float, num_qubits=None) -> Circuit:
    """Second-order (symmetric) product step: half-steps forward then reversed.

    Per-step error scales as dt^3; this is the default step of the
    time-dependent workflow.
    """
    terms = _hamiltonian_terms(hamiltonian)
    n = hamiltonian.width if num_qubits is None else num_qubits
    half = tuple(PauliRotation(string, coeff * dt / 2) for string, coeff in terms)
    return Circuit(n, half + half[::-1])


def qaoa_ansatz(cost: PauliOperator, steps: int, num_qubits: int) -> Circuit:
    """Alternating cost/mixer ansatz with 2*steps parameters.

    A layer of H prepares the uniform superposition; each repetition applies
    exp(-i*gamma_k*H_C) term by term, then the transverse-field mixer
    exp(-i*beta_k*X_i) as Rx(2*beta_k) on every qubit.  Parameter order is
    (gamma_1, beta_1, ..., gamma_p, beta_p).  The constant term of the cost
    operator is skipped; evaluators account for it analytically.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    terms = _hamiltonian_terms(cost)
    ops = [h(q) for q in range(num_qubits)]
    for k in range(steps):
        gamma = Param(2 * k)
        ops.extend(PauliRotation(string, coeff * gamma) for string, coeff in terms)
        beta = Param(2 * k + 1)
        ops.extend(rx(q, 2.0 * beta) for q in range(num_qubits))
    return Circuit(num_qubits, tuple(ops), 2 * steps)


def hardware_efficient(num_qubits: int, layers: int) -> Circuit:
    """Generic layered ansatz: Ry+Rz on every qubit, then a CNOT chain.

    2*num_qubits parameters per layer.
    """
    if layers < 1:
        raise ValueError(f"layers must be >= 1, got {layers}")
    gates = []
    slot = 0
    for _ in range(layers):
        for q in range(num_qubits):
            gates.append(ry(q, Param(slot)))
            gates.append(rz(q, Param(slot + 1)))
            slot += 2
        gates.extend(cnot(q, q + 1) for q in range(num_qubits - 1))
    return Circuit(num_qubits, tuple(gates), slot)


def rx_ry(qubit: int = 0, num_qubits: int = 1) -> Circuit:
    """One-qubit Rx(phi), Ry(theta) ansatz (2 parameters), e.g. for a
    tapered single-qubit Hamiltonian."""
    gates = (rx(qubit, Param(0)), ry(qubit, Param(1)))
    return Circuit(max(num_qubits, qubit + 1), gates, 2)
