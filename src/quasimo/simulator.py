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
``_pauli_plan`` prepares those view indices and the phase once per (string,
n, control), and ``_pauli_product`` and ``_pauli_rotation`` run a plan.  A
Program keeps its rotation steps' plans and a compiled observable its
gathers'; every other call, a gate step's included, plans on the fly.  On
at most ``ROW_PLAN_QUBITS`` qubits a Program's rotation of a string with an
X/Y factor is a row plan instead, (P psi)[k] = row[k] * psi[k ^ x]: fewer
numpy calls, the same products.  Z-only strings stay strided: their +-1/+-i
rows would add memory the benchmark's peak-RSS bound has no room for yet.
Every gate runs through this kernel: X/Y/Z are strings, Rx/Ry/Rz rotations,
S/Sdg the empty string with phase +-i controlled by their qubit, CNOT/CZ a
controlled X/Z, and H one sum and one difference of its qubit's two
half-slices.  Pauli strings, Pauli-sum operators, expectation values and
exp(-i*theta*P) blocks run through it too.  ``pauli_rows`` writes the same
action for a batch of strings as one table (x masks, int8 sign rows, phases),
which sampled tomography and the QITE step share.

Compiled programs: ``compile_circuit`` turns a circuit that runs many times
(a Trotter step, a variational ansatz) into a Program.  A run of bound ops
with joint support S has the window of qubits lo..hi: hi is max(S) and lo is
min(S), or 0 when min(S) < ``SHORT_ROWS``.  Each maximal run of two or more
adjacent bound ops whose window spans at most ``WINDOW`` qubits becomes one
FusedBlock, the product of the ops' matrices in program order over every
qubit of the window.  Those m qubits are the middle axis of the
(2^(n-1-hi), 2^m, 2^lo) view of the state, so the block is one matrix
product on that view, reading and writing the state once.  The kernel builds
every block matrix by running the ops on the identity's columns
(``_block_matrix``), so every op kind is defined once, in the kernel
dispatch; runs equal up to their window's offset share one matrix.  An op
on a Param slot is never fused: it is a PauliRotation step whose angle each
run reads from its values.  Leading X gates stay gate steps, which a run from
a basis state folds into its index.  Every other op stays a kernel step.  A
Program plans its rotation steps once, when made, so a run only fills in
angles; ``run`` executes a circuit's ops unfused, through the same executor.

Compiled observables: ``compile_observable`` turns an operator, once per
register width, into the one form that ``apply_operator`` and
``parity_masses`` read (no other module reads its fields): per x mask, x = 0
first, D_x[k] = sum of c * (-i)^#Y * (-1)^popcount(k & z) over its terms
(and the constant, for x = 0), a scalar if none has a Z/Y factor, and the
plan of the gather psi[k ^ x].  H psi = D_0 psi plus D_x psi[k ^ x] per X/Y
group, and ``expectation`` is Re <psi|H psi>.  ``parity_masses`` gets every
term's ||psi +/- P psi||^2 in one vectorised pass per group, max(1,
``CHUNK_AMPLITUDES`` >> n) terms at a time, from sign rows that its first
call on a width builds; both are sums of squares, so p_even lies in [0, 1]
unclamped, and their sum, 4 ||psi||^2, checks the state's norm for free.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from math import cos, sin
from typing import NamedTuple

import numpy as np

from .circuit import ArityMismatchError, Circuit, Gate, Param, PauliRotation
from .circuit import UnboundParametersError, WidthMismatchError
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

CHUNK_AMPLITUDES = 1 << 16  # parity_masses' temporaries, in amplitudes

# Widest register whose X/Y rotation steps run as row plans.  A gather beat
# the strided view on every string tried up to 12 qubits; X on the top qubit
# took 20.8 -> 21.7 us at 13 and 135 -> 191 us at 16 (timeit minimum, 2 vCPUs).
ROW_PLAN_QUBITS = 12

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
        if isinstance(index, bool) or not isinstance(index, (int, np.integer)):
            raise ValueError(f"a basis index must be an int, got {index!r}")
        if not 0 <= index < 2**num_qubits:
            raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
        amps = np.zeros(2**num_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(num_qubits, amps)

    @classmethod
    def from_bits(cls, bits) -> "StateVector":
        """Product state from a 0/1 sequence indexed by qubit; any other entry,
        a bool included, raises a ValueError."""
        bits = tuple(bits)
        for b in bits:
            if isinstance(b, (bool, np.bool_)) or b not in (0, 1):
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


def _pauli_plan(factors, n: int, control=None) -> tuple:
    """P's kernel plan on n qubits, ``factors`` being P's (qubit, axis) pairs:
    the view's shape, the phase (-i)^#Y, the source index (X/Y axes
    reversed), the output's control = 1 half (None without a ``control``
    qubit, which must lie outside P's support) and one output half-slice
    index per Z/Y factor."""
    on = () if control is None else ((control, _HALVES[1]),)
    return (
        (2,) * n,
        (-1j) ** sum(axis == "Y" for _, axis in factors),
        _tensor_index(n, on + tuple((q, _REVERSED) for q, axis in factors if axis != "Z")),
        None if control is None else _tensor_index(n, on),
        tuple(_tensor_index(n, on + ((q, _HALVES[1]),)) for q, axis in factors if axis != "X"),
    )


def _pauli_product(amps: np.ndarray, plan: tuple, scale: complex, out=None) -> np.ndarray:
    """scale * P|psi> by P's ``plan``, written to ``out`` (not ``amps``) or a
    new flat array; with a control, the control = 0 half is a copy."""
    shape, phase, source, controlled, negated = plan
    scale *= phase
    out = np.empty_like(amps) if out is None else out
    tensor = target = out.reshape(shape)
    if controlled is not None:
        np.copyto(out, amps)
        target = tensor[controlled]
    source = amps.reshape(shape)[source]
    if scale != 1:
        np.multiply(source, scale, out=target)
    else:
        np.copyto(target, source)
    for index in negated:
        half = tensor[index]
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


@lru_cache(maxsize=256)
def _flip_index(n: int, x: int) -> np.ndarray:
    """The read-only gather index k ^ x over n qubits' amplitudes."""
    index = np.arange(1 << n) ^ x
    index.flags.writeable = False
    return index


def _row_plan(string: PauliString, n: int) -> tuple:
    """P's row plan on n qubits (P with an X/Y factor): the index k ^ x and, with
    a Z/Y factor, the read-only row (-i)^#Y * (-1)^popcount(k & z)."""
    row = None
    if string.z:
        phase = (-1j) ** (string.x & string.z).bit_count()
        row = np.where(np.bitwise_count(_flip_index(n, 0) & string.z) & 1, -phase, phase)
        row.flags.writeable = False
    return _flip_index(n, string.x), row


def _pauli_rotation(amps: np.ndarray, plan: tuple, theta: float, out=None) -> np.ndarray:
    """exp(-i*theta*P)|psi> by P's strided or row ``plan`` (the same products),
    written to ``out`` (which may be ``amps``) or a new array."""
    if len(plan) == 2:
        index, row = plan
        rotated = amps[index]
        if row is not None:
            rotated *= row
        rotated *= -1j * sin(theta)
    else:
        rotated = _pauli_product(amps, plan, -1j * sin(theta))
    out = np.multiply(amps, cos(theta), out=out)
    out += rotated
    return out


def apply_gate(amps: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    """Apply one bound gate to a flat amplitude array; returns a new array."""
    if not gate.is_bound:
        raise UnboundParametersError(f"gate {gate.dump()!r} has an unbound parameter")
    kind, qubit = gate.kind, gate.qubits[0]
    if kind in _PAULI_GATES:
        return _pauli_product(amps, _pauli_plan(((qubit, kind),), n), 1.0)
    if kind in _ROTATION_AXIS:
        plan = _pauli_plan(((qubit, _ROTATION_AXIS[kind]),), n)
        return _pauli_rotation(amps, plan, gate.angle / 2)
    if kind in _PHASE:
        return _pauli_product(amps, _pauli_plan((), n, control=qubit), _PHASE[kind])
    if kind == "H":
        return _hadamard(amps, qubit, n)
    plan = _pauli_plan(((gate.qubits[1], _CONTROLLED_AXIS[kind]),), n, control=qubit)
    return _pauli_product(amps, plan, 1.0)


def apply_pauli_string(amps: np.ndarray, string: PauliString, n: int) -> np.ndarray:
    """P|psi> for a single Pauli string, as a new amplitude array."""
    return _pauli_product(amps, _pauli_plan(string.factors, n), 1.0)


def pauli_rows(strings, n: int) -> tuple:
    """(x, signs, phases) with (P_i psi)[k] = phases[i] * signs[i, k] * psi[k ^ x[i]]."""
    x = np.array([s.x for s in strings], dtype=np.int64)
    z = np.array([s.z for s in strings], dtype=np.int64)
    phases = np.array([(-1j) ** (s.x & s.z).bit_count() for s in strings], dtype=complex)
    signs = 1 - 2 * (np.bitwise_count(np.arange(1 << n) & z[:, None]) & 1).astype(np.int8)
    return x, signs, phases


def pauli_overlaps(rows: tuple, amps: np.ndarray, other: np.ndarray) -> np.ndarray:
    """<P_i psi|other> for every row i of a ``pauli_rows`` table, by one gather."""
    x, signs, phases = rows
    rotated = phases[:, None] * signs * amps[np.arange(len(amps)) ^ x[:, None]]
    return rotated.conj() @ other


def _execute(program: "Program", initial, values=()) -> StateVector:
    """Run ``program``'s steps (circuit ops and FusedBlocks, Param angles read
    from ``values``) in order on the initial state; returns a new state and
    never writes to ``initial``.

    A caller's StateVector is not copied up front: FusedBlocks and gates
    read their input and return a new array, and a PauliRotation, which
    rotates the run's own array in place, writes to a new array while
    ``amps`` is still the caller's.  Only when no step runs is the caller's
    array copied, once, at the end.
    """
    n, steps, plans = program.num_qubits, program.steps, program.plans
    owned = True
    if isinstance(initial, StateVector):
        if initial.num_qubits != n:
            raise WidthMismatchError(
                f"{initial.num_qubits}-qubit state fed to a {n}-qubit circuit"
            )
        amps, owned = initial.amplitudes, False
    else:
        # A basis state: each leading X gate only moves its one amplitude.
        index = 0 if initial is None else initial
        amps = StateVector.basis(n, index).amplitudes
        lead = 0
        for op in steps:
            if not (isinstance(op, Gate) and op.kind == "X"):
                break
            amps[index] = 0.0
            index ^= 1 << op.qubits[0]
            amps[index] = 1.0
            lead += 1
        steps, plans = steps[lead:], plans[lead:]
    for op, plan in zip(steps, plans):
        if isinstance(op, FusedBlock):
            amps = op.apply(amps)
        elif isinstance(op, PauliRotation):
            angle = op.angle
            if isinstance(angle, Param):
                angle = angle.scale * values[angle.index]
            out = amps if owned else None
            amps = _pauli_rotation(amps, plan, angle, out=out)
        else:
            amps = apply_gate(amps, op, n)
        owned = True
    return StateVector(n, amps if owned else amps.copy())


def run(circuit: Circuit, initial=None) -> StateVector:
    """Execute a fully bound circuit, op by op.

    ``initial`` may be None (all-zeros state), an int basis-state index, or a
    StateVector of matching width, which is never modified; the result never
    shares memory with it.

    Raises:
        UnboundParametersError: the circuit still has symbolic parameters.
        WidthMismatchError: initial state width differs from the circuit.
    """
    return Program(circuit.num_qubits, circuit.ops, circuit.num_params).run(initial)


def _block_matrix(group, qubits: tuple, built: dict) -> np.ndarray:
    """Unitary of the bound ops ``group`` on ``qubits`` (m of them, the i-th
    qubit being bit i of the matrix index), built by the kernel.

    The ops move onto qubits m..2m-1 of a 2m-qubit register and run on the
    state whose amplitude r * 2^m + c is [r == c].  They touch only the high
    bits r, so column c of the identity becomes column c of their product.
    ``built`` maps (m, moved ops) to a matrix already built, so equal
    window-relative runs share one.
    """
    m = len(qubits)
    where = {q: m + i for i, q in enumerate(qubits)}
    moved = tuple(
        PauliRotation(PauliString({where[q]: axis for q, axis in op.string.factors}), op.angle)
        if isinstance(op, PauliRotation)
        else Gate(op.kind, tuple(where[q] for q in op.qubits), op.angle)
        for op in group
    )
    if (m, moved) not in built:
        identity = StateVector(2 * m, np.eye(1 << m, dtype=complex).ravel())
        matrix = _execute(Program(2 * m, moved), identity).amplitudes.reshape(1 << m, 1 << m)
        built[m, moved] = matrix
    return built[m, moved]


class FusedBlock:
    """A run of adjacent bound ops, as one small unitary built by the kernel
    (``_block_matrix``, sharing ``built`` matrices).

    ``qubits`` is the run's window lo..hi, ascending (see ``compile_circuit``),
    and ``matrix`` acts on all m of them, the i-th being bit i of the matrix
    index.  Applying the block is one matrix product on the
    (2^(n-1-hi), 2^m, 2^lo) view of an n-qubit state; when lo = 0 it is the
    2-D (2^(n-m), 2^m) view times the transpose, since a batched product with
    a trailing axis of 1 is several times slower.
    """

    __slots__ = ("qubits", "matrix")

    def __init__(self, group, qubits: tuple, built: dict):
        self.qubits = qubits
        self.matrix = _block_matrix(group, qubits, built)

    def apply(self, amps: np.ndarray) -> np.ndarray:
        """The block applied to a flat n-qubit amplitude array, as a new array."""
        m = len(self.matrix)
        if self.qubits[0] == 0:
            return (amps.reshape(-1, m) @ self.matrix.T).ravel()
        return np.matmul(self.matrix, amps.reshape(-1, m, 1 << self.qubits[0])).ravel()


@dataclass(frozen=True)
class Program:
    """A circuit compiled for repeated runs (see ``compile_circuit``)."""

    num_qubits: int
    steps: tuple  # circuit ops and FusedBlocks, in program order
    num_params: int = 0  # Param slots, filled from each run's values
    # Per step, a PauliRotation's row or strided plan, built once; else None.
    plans: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        plans = tuple(
            None
            if not isinstance(step, PauliRotation)
            else _row_plan(step.string, self.num_qubits)
            if step.string.x and self.num_qubits <= ROW_PLAN_QUBITS
            else _pauli_plan(step.string.factors, self.num_qubits)
            for step in self.steps
        )
        object.__setattr__(self, "plans", plans)

    def run(self, initial=None, values=()) -> StateVector:
        """As ``run(circuit, initial)``, with one value per slot.

        Raises:
            UnboundParametersError: a slotted program got no values.
            ArityMismatchError: values has other than one entry per slot.
            WidthMismatchError: initial state width differs from the program.
        """
        values = [float(v) for v in values]
        if len(values) != self.num_params:
            error = ArityMismatchError if values else UnboundParametersError
            raise error(f"circuit has {self.num_params} parameter(s), got {len(values)} value(s)")
        return _execute(self, initial, values)


def compile_circuit(circuit: Circuit) -> Program:
    """Compile a circuit, bound or with Param slots, once for many runs.

    Walks the ops once and folds every maximal run of two or more adjacent
    bound ops whose window spans at most ``WINDOW`` qubits into one
    FusedBlock, the product of the ops' matrices in program order; runs
    equal up to their window's offset share one matrix.  A run's window is
    min(S)..max(S) of its joint support S, or 0..max(S) when min(S) <
    ``SHORT_ROWS``.  An op on a Param slot ends the run and is a
    PauliRotation step (Rx/Ry/Rz at half the slot's scale).  Nothing is
    reordered, so the program is the circuit's unitary up to rounding; every
    other op stays a kernel step, among them the circuit's leading X gates
    (which a run from a basis state folds into its index) and every op whose
    own window is wider than ``WINDOW``.
    """
    ops = circuit.ops
    lead = next((i for i, op in enumerate(ops) if getattr(op, "kind", "") != "X"), len(ops))
    steps = list(ops[:lead])
    group, lo, hi = [], 0, 0
    built = {}

    def close():
        if len(group) == 1:
            steps.append(group[0])
        elif group:
            steps.append(FusedBlock(group, tuple(range(lo, hi + 1)), built))

    for op in ops[lead:]:
        if isinstance(op.angle, Param):
            close()
            group = []
            if isinstance(op, Gate):
                axis = PauliString({op.qubits[0]: _ROTATION_AXIS[op.kind]})
                op = PauliRotation(axis, op.angle * 0.5)
            steps.append(op)
            continue
        low = min(op.qubits) if min(op.qubits) >= SHORT_ROWS else 0
        high = max(op.qubits)
        if group and max(hi, high) - min(lo, low) < WINDOW:
            group.append(op)
            lo, hi = min(lo, low), max(hi, high)
        else:
            close()
            group, lo, hi = [op], low, high
    close()
    return Program(circuit.num_qubits, tuple(steps), circuit.num_params)


class CompiledObservable(NamedTuple):
    """An operator on one width; measured terms' slots run by x mask, then term."""

    num_qubits: int
    groups: tuple  # per x mask, ascending from 0: (x, D_x, gather plan, first slot, end slot)
    terms: tuple  # (c.real, slot) in terms() order; slot -1 for the constant
    rows: tuple = None  # per slot, int8 sign rows and (-i)^#Y as a column; see parity_masses


def _diagonal(terms, n: int, dtype):
    """D[k] = sum of c * (-1)^popcount(k & z) over the (z, c) ``terms``, as
    [D0 + D1, D0 - D1] split on the top qubit; a scalar when no z is set."""
    if not any(z for z, _ in terms):
        return sum(c for _, c in terms)
    half = 1 << (n - 1)
    low = _diagonal([(z, c) for z, c in terms if not z & half], n - 1, dtype)
    high = _diagonal([(z ^ half, c) for z, c in terms if z & half], n - 1, dtype)
    out = np.empty(2 * half, dtype)
    np.add(low, high, out=out[:half])
    np.subtract(low, high, out=out[half:])
    return out


def compile_observable(op: PauliOperator, n: int) -> CompiledObservable:
    """``op``'s one compiled form on n qubits (see the module docstring),
    memoised on the operator for the last width asked and replaced whole, so
    a racing thread can only drop work, which the next call redoes.  It holds
    no sign rows until ``parity_masses`` adds them.

    Raises:
        WidthMismatchError: op touches a qubit outside the register.
    """
    compiled = op._compiled
    if compiled is None or compiled.num_qubits != n:
        if op.width > n:
            raise WidthMismatchError(f"operator touches qubit {op.width - 1} on a {n}-qubit state")
        terms = op.terms()
        by_mask = {0: []}  # x -> (z, c * (-i)^#Y) in terms() order, the constant under x = 0
        for s, c in terms:
            by_mask.setdefault(s.x, []).append((s.z, c * (-1j) ** (s.x & s.z).bit_count()))
        groups, end = [], 0
        for x in sorted(by_mask):
            parts = by_mask[x]
            dtype = complex if any(c.imag for _, c in parts) else float
            parts = [(z, c if dtype is complex else c.real) for z, c in parts]
            diagonal = np.asarray(_diagonal(parts, n, dtype), dtype)
            diagonal.flags.writeable = False  # shared by every thread that reads op
            gather = _pauli_plan(PauliString.from_masks(x, 0).factors, n) if x else None
            first, end = end, end + sum(1 for z, _ in parts if x or z)
            groups.append((x, diagonal, gather, first, end))
        measured = sorted((s.x, k) for k, (s, _) in enumerate(terms) if not s.is_identity)
        slot_of = {k: slot for slot, (_, k) in enumerate(measured)}
        terms = tuple((c.real, slot_of.get(k, -1)) for k, (_, c) in enumerate(terms))
        compiled = op._compiled = CompiledObservable(n, tuple(groups), terms)
    return compiled


def apply_operator(amps: np.ndarray, op: PauliOperator, n: int) -> np.ndarray:
    """A|psi> for a Pauli-sum operator (not unitary in general): D_0 psi plus
    D_x psi[k ^ x] per X/Y group of its compiled form, one gather each."""
    (_, diagonal, *_), *groups = compile_observable(op, n).groups
    out = diagonal * amps
    flipped = np.empty_like(amps) if groups else None
    for _, diagonal, gather, *_ in groups:
        _pauli_product(amps, gather, 1.0, flipped)
        flipped *= diagonal
        out += flipped
    return out


def parity_masses(amps: np.ndarray, op: PauliOperator, n: int) -> list:
    """(c, p_even) per term of ``op`` in ``terms()`` order, p_even None for the
    constant (see the module docstring); a state whose squared norm is not
    finite or is further than ``SAMPLE_NORM_TOL`` from 1 raises a ValueError."""
    compiled = compile_observable(op, n)
    if compiled.rows is None:
        order = sorted(zip(compiled.terms, op.terms()), key=lambda pair: pair[0][1])
        _, signs, phases = pauli_rows([s for (_, slot), (s, _) in order if slot >= 0], n)
        phases = phases[:, None]
        signs.flags.writeable = phases.flags.writeable = False
        compiled = op._compiled = compiled._replace(rows=(signs, phases))
    signs, phases = compiled.rows
    at_once = max(1, CHUNK_AMPLITUDES >> n)
    # Row 0: ||psi + P psi||^2 per slot; row 1: ||psi - P psi||^2.
    norms = np.empty((2, len(signs)))
    for x, _, gather, start, stop in compiled.groups:
        flipped = _pauli_product(amps, gather, 1.0) if x else amps
        for lo in range(start, stop, at_once):
            hi = min(lo + at_once, stop)
            pair = np.empty((2, hi - lo, len(amps)), dtype=complex)
            np.multiply(signs[lo:hi], flipped, out=pair[1])  # P psi
            pair[1] *= phases[lo:hi]
            np.add(amps, pair[1], out=pair[0])
            np.subtract(amps, pair[1], out=pair[1])
            parts = pair.view(np.float64)
            np.einsum("ijk,ijk->ij", parts, parts, out=norms[:, lo:hi])
    mass = norms[0] + norms[1]  # 4 ||psi||^2, once per term
    for squared_norm in (mass * 0.25).tolist():
        if not abs(squared_norm - 1.0) <= SAMPLE_NORM_TOL:  # also catches NaN
            raise ValueError(
                f"sampled tomography needs a normalised state: squared norm is "
                f"{squared_norm!r}, not within {SAMPLE_NORM_TOL} of 1"
            )
    p_even = (norms[0] / mass).tolist() + [None]  # the constant's slot, -1, reads None
    return [(coeff, p_even[slot]) for coeff, slot in compiled.terms]


def expectation(state: StateVector, op: PauliOperator) -> float:
    """<psi|op|psi> for a Hermitian operator, as Re <psi|op psi> from
    ``apply_operator``.  The imaginary part, which the coefficients'
    imaginary parts below ``COEFF_EPS`` and rounding leave, is dropped
    unchecked.

    Raises:
        NonHermitianError: op has a coefficient whose imaginary part is at
            least ``COEFF_EPS``.
        WidthMismatchError: op touches a qubit outside the state.
    """
    if not op.is_hermitian:
        raise NonHermitianError("expectation value requires a Hermitian operator")
    amps = state.amplitudes
    return float(np.vdot(amps, apply_operator(amps, op, state.num_qubits)).real)


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
