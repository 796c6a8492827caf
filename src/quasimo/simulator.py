"""Dense statevector backend: circuit execution, exact expectation values,
and seeded shot sampling.

Amplitude index convention: qubit 0 is the least-significant bit, so basis
state k has qubit i in state (k >> i) & 1.  Bitstring keys in ShotResult
list qubit 0 first (leftmost), matching ket notation like |100> for a
single X on qubit 0 of a three-qubit register.

Pauli kernel: a Pauli string P, with X/Y factors on the qubits of x_mask and
Z/Y factors on those of z_mask, acts as
    (P psi)[k] = (-i)^#Y * (-1)^popcount(k & z_mask) * psi[k ^ x_mask].
On the [2]*n tensor view of the amplitudes, k ^ x_mask is the view with the
X/Y axes reversed and each Z/Y sign negates one half-slice, so P psi takes
one strided copy plus one in-place negation per Z/Y factor and no index
arrays.  exp(-i*theta*P) psi = cos(theta) psi - i sin(theta) P psi.  A
controlled P acts only on the control = 1 half-slice and copies the rest.
Every gate runs through this kernel: X/Y/Z are strings, Rx/Ry/Rz rotations,
S/Sdg the empty string with phase +-i controlled by their qubit, CNOT/CZ a
controlled X/Z, and H one sum and one difference of its qubit's two
half-slices.  Pauli strings, Pauli-sum operators, expectation values and
exp(-i*theta*P) blocks run through it too.

Compiled programs: ``compile_circuit`` turns a bound circuit that runs many
times (the time-dependent workflow's Trotter step) into a Program.  A run of
ops with joint support S has the window of qubits lo..hi: hi is max(S) and
lo is min(S), or 0 when min(S) < ``SHORT_ROWS``.  Each maximal run of two or
more adjacent ops whose window spans at most ``WINDOW`` qubits becomes one
FusedBlock, the product of the ops' matrices in program order over every
qubit of the window.  Those m qubits are the middle axis of the
(2^(n-1-hi), 2^m, 2^lo) view of the state, so the block is one matrix
product on that view, reading and writing the state once.  The kernel builds
every block matrix by running the ops on the identity's columns
(``_block_matrix``), so every op kind is defined once, in the kernel
dispatch.  Every other op stays a kernel step, run through the same per-op
dispatch as ``run``.  Only bound circuits compile; variational circuits,
whose angles are Param slots, and one-off circuits go through ``run``.

Compiled observables: ``expectation`` splits an operator, once per register
width, into the real diagonal D of its Z-only terms (the constant included)
and the tuple of its X/Y-bearing terms, and memoises both on the immutable
operator.  Every Z-only term is then read at once as D . |psi|^2, one float
temporary and one dot; each remaining term still takes one kernel call and a
vdot.  Sampled tomography (``costfn``) keeps its own compiled form of the
operator, grouped by x mask, and does not use this memo.
"""

from dataclasses import dataclass, field
from math import cos, sin

import numpy as np

from .circuit import Circuit, Gate, PauliRotation, UnboundParametersError, WidthMismatchError
from .pauli import PauliOperator, PauliString, TooManyQubitsError

# Dense amplitudes: 2^24 complex values is ~0.25 GB, a sane desk-scale cap.
MAX_QUBITS = 24

# The widest qubit window a fused block may span (see ``compile_circuit``).
# At 3 and at 5 the 16-spin symmetric XXZ step runs slower than at 4 (one
# BLAS thread).
WINDOW = 4
# A window that reaches below this qubit starts at qubit 0.  A window from
# qubit 1 or 2 would leave rows of 2 or 4 contiguous amplitudes, on which the
# batched product is 2-5x slower (16 qubits, one BLAS thread).
SHORT_ROWS = 3

# How far a sampled state's squared norm may drift from 1 (see ``sample``).
SAMPLE_NORM_TOL = 1e-8

_SQRT2_INV = 2**-0.5


class NonHermitianError(ValueError):
    """Observable expectation values need a Hermitian operator."""


@dataclass
class StateVector:
    """2^n complex amplitudes over an n-qubit register."""

    num_qubits: int
    amplitudes: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.num_qubits > MAX_QUBITS:
            raise TooManyQubitsError(
                f"{self.num_qubits} qubits exceeds the {MAX_QUBITS}-qubit simulator cap"
            )
        if self.amplitudes is None:
            amps = np.zeros(2**self.num_qubits, dtype=complex)
            amps[0] = 1.0
            self.amplitudes = amps
        else:
            self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
            if self.amplitudes.shape != (2**self.num_qubits,):
                raise ValueError(
                    f"expected {2**self.num_qubits} amplitudes, got {self.amplitudes.shape}"
                )

    @classmethod
    def zero(cls, num_qubits: int) -> "StateVector":
        return cls(num_qubits)

    @classmethod
    def basis(cls, num_qubits: int, index: int) -> "StateVector":
        if not 0 <= index < 2**num_qubits:
            raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
        amps = np.zeros(2**num_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(num_qubits, amps)

    @classmethod
    def from_bits(cls, bits) -> "StateVector":
        """Product state from a 0/1 sequence indexed by qubit; any other entry
        raises a ValueError."""
        bits = tuple(bits)
        for b in bits:
            if b not in (0, 1):
                raise ValueError(f"a bit must be 0 or 1, got {b!r}")
        return cls.basis(len(bits), sum(1 << q for q, b in enumerate(bits) if b))

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amplitudes.copy())

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def fidelity(self, other: "StateVector") -> float:
        """|<self|other>|^2."""
        return float(abs(np.vdot(self.amplitudes, other.amplitudes)) ** 2)


@dataclass
class ShotResult:
    """Measurement counts keyed by bitstring (qubit 0 leftmost)."""

    counts: dict
    shots: int

    def frequency(self, bitstring: str) -> float:
        return self.counts.get(bitstring, 0) / self.shots


def bitstring(index: int, num_qubits: int) -> str:
    return "".join(str((index >> q) & 1) for q in range(num_qubits))


_FULL = slice(None)
_REVERSED = slice(None, None, -1)
# The qubit-is-0 and qubit-is-1 halves of an axis.  Slices, not the indices
# 0 and 1, so that even a one-qubit tensor yields writable views.
_HALVES = (slice(0, 1), slice(1, None))

_PAULI_GATES = frozenset("XYZ")
_ROTATION_AXIS = {"Rx": "X", "Ry": "Y", "Rz": "Z"}
_PHASE = {"S": 1j, "Sdg": -1j}
_CONTROLLED_AXIS = {"CNOT": "X", "CZ": "Z"}


def _tensor_index(n: int, qubit_slices) -> tuple:
    """Index into the [2]*n tensor view applying a slice to each given qubit."""
    index = [_FULL] * n
    for q, part in qubit_slices:
        index[n - 1 - q] = part  # axis n-1-q holds qubit q
    return tuple(index)


def _pauli_product(amps: np.ndarray, factors, n: int, scale: complex, control=None) -> np.ndarray:
    """scale * P|psi> as a new flat array; ``factors`` are P's (qubit, axis) pairs.

    With a ``control`` qubit (not in P's support), scale * P acts only where
    that qubit is 1 and the other half of the output is a copy.
    """
    scale *= (-1j) ** sum(axis == "Y" for _, axis in factors)
    flipped = tuple((q, _REVERSED) for q, axis in factors if axis != "Z")
    if control is None:
        on = ()
        out = np.empty_like(amps)
        tensor = target = out.reshape([2] * n)
    else:
        on = ((control, _HALVES[1]),)
        out = amps.copy()
        tensor = out.reshape([2] * n)
        target = tensor[_tensor_index(n, on)]
    source = amps.reshape([2] * n)[_tensor_index(n, on + flipped)]
    if scale != 1:
        np.multiply(source, scale, out=target)
    elif control is None or flipped:  # a controlled Z-only string at scale 1 (CZ) keeps the copy
        np.copyto(target, source)
    for q, axis in factors:
        if axis != "X":
            half = tensor[_tensor_index(n, on + ((q, _HALVES[1]),))]
            # Not np.negative: numpy's complex negation is several times slower.
            np.multiply(half, -1.0, out=half)
    return out


def _hadamard(amps: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """H on one qubit: the sum and the difference of its two half-slices, over sqrt(2)."""
    low, high = (_tensor_index(n, ((qubit, half),)) for half in _HALVES)
    tensor = amps.reshape([2] * n)
    out = np.empty_like(amps)
    result = out.reshape([2] * n)
    np.add(tensor[low], tensor[high], out=result[low])
    np.subtract(tensor[low], tensor[high], out=result[high])
    out *= _SQRT2_INV
    return out


def _pauli_rotation(amps: np.ndarray, factors, theta: float, n: int, out=None) -> np.ndarray:
    """exp(-i*theta*P)|psi>, written to ``out`` (which may be ``amps``) or a
    new array."""
    rotated = _pauli_product(amps, factors, n, -1j * sin(theta))
    out = np.multiply(amps, cos(theta), out=out)
    out += rotated
    return out


def apply_gate(amps: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    """Apply one bound gate to a flat amplitude array; returns a new array."""
    if not gate.is_bound:
        raise UnboundParametersError(f"gate {gate.dump()!r} has an unbound parameter")
    kind, qubit = gate.kind, gate.qubits[0]
    if kind in _PAULI_GATES:
        return _pauli_product(amps, ((qubit, kind),), n, 1.0)
    if kind in _ROTATION_AXIS:
        return _pauli_rotation(amps, ((qubit, _ROTATION_AXIS[kind]),), gate.angle / 2, n)
    if kind in _PHASE:
        return _pauli_product(amps, (), n, _PHASE[kind], control=qubit)
    if kind == "H":
        return _hadamard(amps, qubit, n)
    target = gate.qubits[1]
    return _pauli_product(amps, ((target, _CONTROLLED_AXIS[kind]),), n, 1.0, control=qubit)


def apply_pauli_string(amps: np.ndarray, string: PauliString, n: int) -> np.ndarray:
    """P|psi> for a single Pauli string, as a new amplitude array."""
    return _pauli_product(amps, string.factors, n, 1.0)


def apply_operator(amps: np.ndarray, op: PauliOperator, n: int) -> np.ndarray:
    """A|psi> for a Pauli-sum operator (not unitary in general)."""
    if op.width > n:
        raise WidthMismatchError(
            f"operator touches qubit {op.width - 1} on an {n}-qubit state"
        )
    out = np.zeros_like(amps)
    for string, coeff in op.terms():
        out += coeff * apply_pauli_string(amps, string, n)
    return out


def _execute(ops, n: int, initial) -> StateVector:
    """Apply ``ops`` (circuit ops and FusedBlocks) in order to the initial
    state; returns a new state and never writes to ``initial``.

    A caller's StateVector is not copied up front: FusedBlocks and gates
    read their input and return a new array, and a PauliRotation, which
    rotates the run's own array in place, writes to a new array while
    ``amps`` is still the caller's.  Only when no step runs is the caller's
    array copied, once, at the end.
    """
    owned = True
    if initial is None:
        amps = StateVector.zero(n).amplitudes
    elif isinstance(initial, StateVector):
        if initial.num_qubits != n:
            raise WidthMismatchError(
                f"{initial.num_qubits}-qubit state fed to a {n}-qubit circuit"
            )
        amps, owned = initial.amplitudes, False
    else:
        amps = StateVector.basis(n, int(initial)).amplitudes
    for op in ops:
        if isinstance(op, FusedBlock):
            amps = op.apply(amps)
        elif isinstance(op, PauliRotation):
            out = amps if owned else None
            amps = _pauli_rotation(amps, op.string.factors, op.angle, n, out=out)
        else:
            amps = apply_gate(amps, op, n)
        owned = True
    return StateVector(n, amps if owned else amps.copy())


def run(circuit: Circuit, initial=None) -> StateVector:
    """Execute a fully bound circuit, op by op.

    ``initial`` may be None (all-zeros state), a basis-state index, or a
    StateVector of matching width, which is never modified; the result never
    shares memory with it.

    Raises:
        UnboundParametersError: the circuit still has symbolic parameters.
        WidthMismatchError: initial state width differs from the circuit.
    """
    if not circuit.is_bound:
        raise UnboundParametersError(
            f"circuit has {circuit.num_params} unbound parameter(s); bind first"
        )
    return _execute(circuit.ops, circuit.num_qubits, initial)


def _block_matrix(group, qubits: tuple) -> np.ndarray:
    """Unitary of the bound ops ``group`` on ``qubits`` (m of them, the i-th
    qubit being bit i of the matrix index), built by the kernel.

    The ops move onto qubits m..2m-1 of a 2m-qubit register and run on the
    state whose amplitude r * 2^m + c is [r == c].  They touch only the high
    bits r, so column c of the identity becomes column c of their product.
    """
    m = len(qubits)
    where = {q: m + i for i, q in enumerate(qubits)}
    moved = [
        PauliRotation(PauliString({where[q]: axis for q, axis in op.string.factors}), op.angle)
        if isinstance(op, PauliRotation)
        else Gate(op.kind, tuple(where[q] for q in op.qubits), op.angle)
        for op in group
    ]
    identity = StateVector(2 * m, np.eye(1 << m, dtype=complex).ravel())
    return _execute(moved, 2 * m, identity).amplitudes.reshape(1 << m, 1 << m)


class FusedBlock:
    """A run of adjacent bound ops, as one small unitary built by the kernel
    (``_block_matrix``).

    ``qubits`` is the run's window lo..hi, ascending (see ``compile_circuit``),
    and ``matrix`` acts on all m of them, the i-th being bit i of the matrix
    index.  Applying the block is one matrix product on the
    (2^(n-1-hi), 2^m, 2^lo) view of an n-qubit state; when lo = 0 it is the
    2-D (2^(n-m), 2^m) view times the transpose, since a batched product with
    a trailing axis of 1 is several times slower.
    """

    __slots__ = ("qubits", "matrix")

    def __init__(self, group, qubits: tuple):
        self.qubits = qubits
        self.matrix = _block_matrix(group, qubits)

    def apply(self, amps: np.ndarray) -> np.ndarray:
        """The block applied to a flat n-qubit amplitude array, as a new array."""
        m = len(self.matrix)
        if self.qubits[0] == 0:
            return (amps.reshape(-1, m) @ self.matrix.T).ravel()
        return np.matmul(self.matrix, amps.reshape(-1, m, 1 << self.qubits[0])).ravel()


@dataclass(frozen=True)
class Program:
    """A bound circuit compiled for repeated runs (see ``compile_circuit``)."""

    num_qubits: int
    steps: tuple  # circuit ops and FusedBlocks, in program order

    def run(self, initial=None) -> StateVector:
        """Same contract as ``run(circuit, initial)``: ``initial`` is never
        modified, and the result never shares memory with it.  A
        StateVector's amplitudes are read in place, not copied first (see
        ``_execute``)."""
        return _execute(self.steps, self.num_qubits, initial)


def compile_circuit(circuit: Circuit) -> Program:
    """Compile a bound circuit once for many runs.

    Walks the ops once and folds every maximal run of two or more adjacent
    ops whose window spans at most ``WINDOW`` qubits into one FusedBlock,
    the product of the ops' matrices in program order.  A run's window is
    min(S)..max(S) of its joint support S, or 0..max(S) when min(S) <
    ``SHORT_ROWS``.  Nothing is reordered, so the program is the circuit's
    unitary up to rounding; every other op stays a kernel step, among them
    every op whose own window is wider than ``WINDOW``.

    Raises:
        UnboundParametersError: the circuit still has symbolic parameters.
    """
    if not circuit.is_bound:
        raise UnboundParametersError(
            f"circuit has {circuit.num_params} unbound parameter(s); bind first"
        )
    steps = []
    group, lo, hi = [], 0, 0

    def close():
        if len(group) == 1:
            steps.append(group[0])
        elif group:
            steps.append(FusedBlock(group, tuple(range(lo, hi + 1))))

    for op in circuit.ops:
        low = min(op.qubits) if min(op.qubits) >= SHORT_ROWS else 0
        high = max(op.qubits)
        if group and max(hi, high) - min(lo, low) < WINDOW:
            group.append(op)
            lo, hi = min(lo, low), max(hi, high)
        else:
            close()
            group, lo, hi = [op], low, high
    close()
    return Program(circuit.num_qubits, tuple(steps))


def _compiled_observable(op: PauliOperator, n: int) -> tuple:
    """``op``'s expectation form on an n-qubit register, (diagonal, rest),
    memoised on the operator for the last width asked.

    ``diagonal`` is the read-only real vector
    D[k] = sum of c * (-1)^popcount(k & z) over the Z-only terms, the
    constant included; ``rest`` holds the X/Y-bearing (string, coefficient)
    pairs in ``terms()`` order.
    """
    memo = op._compiled
    if memo is not None and memo[0] == n:
        return memo[1], memo[2]
    diagonal = np.zeros(1 << n)
    tensor = diagonal.reshape([2] * n)
    rest = []
    for string, coeff in op.terms():
        if string.x:
            rest.append((string, coeff))
            continue
        # The term's signs live on a tensor over its own qubits (size 1 on the
        # others), so adding it is one broadcast pass over the diagonal.
        signs = np.full([2 if string.z >> (n - 1 - a) & 1 else 1 for a in range(n)], coeff.real)
        for q, _ in string.factors:
            signs[_tensor_index(n, ((q, _HALVES[1]),))] *= -1.0
        tensor += signs
    diagonal.flags.writeable = False
    rest = tuple(rest)
    op._compiled = (n, diagonal, rest)
    return diagonal, rest


def expectation(state: StateVector, op: PauliOperator) -> float:
    """<psi|op|psi> for a Hermitian operator.

    Computed as D . |psi|^2 plus sum(c * <psi|P|psi>) over the X/Y-bearing
    terms P, with D the operator's compiled diagonal (built once per register
    width, then reused).  The result is the real part of that sum; its
    imaginary part, which the coefficients' imaginary parts below
    ``COEFF_EPS`` and rounding leave, is dropped unchecked.

    Raises:
        NonHermitianError: op has a coefficient whose imaginary part is at
            least ``COEFF_EPS``.
        WidthMismatchError: op touches a qubit outside the state.
    """
    if not op.is_hermitian:
        raise NonHermitianError("expectation value requires a Hermitian operator")
    n = state.num_qubits
    if op.width > n:
        raise WidthMismatchError(f"operator touches qubit {op.width - 1} on a {n}-qubit state")
    diagonal, rest = _compiled_observable(op, n)
    amps = state.amplitudes
    probs = np.abs(amps)
    probs *= probs
    value = complex(diagonal @ probs)
    for string, coeff in rest:
        value += coeff * np.vdot(amps, apply_pauli_string(amps, string, n))
    return float(value.real)


def sample(state: StateVector, shots: int, seed=0) -> ShotResult:
    """Draw ``shots`` i.i.d. bitstrings from |amplitude|^2.

    The state must be normalised: a squared norm that is not finite or is
    further than ``SAMPLE_NORM_TOL`` (1e-8) from 1 raises a ValueError.  A
    rounding drift within that tolerance is divided out.  Identical (state,
    shots, seed) gives identical counts; the generator is numpy's PCG64
    seeded with ``seed``.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = state.probabilities()
    total = float(probs.sum())
    if not abs(total - 1.0) <= SAMPLE_NORM_TOL:  # also catches NaN
        raise ValueError(
            f"sampling needs a normalised state: squared norm is {total!r}, "
            f"not within {SAMPLE_NORM_TOL} of 1"
        )
    rng = np.random.default_rng(seed)
    probs /= total
    drawn = rng.multinomial(shots, probs)
    counts = {}
    for index in np.flatnonzero(drawn):
        counts[bitstring(int(index), state.num_qubits)] = int(drawn[index])
    return ShotResult(counts, shots)
