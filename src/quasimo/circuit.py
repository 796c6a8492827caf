"""Gate-level circuit representation for state preparation and ansatz kernels.

Rotation convention: Rz(phi) = exp(-i*phi*Z/2), and Rx/Ry analogously.
Global phase is not tracked.  Circuits are immutable after construction.

A circuit is a sequence of ops: single gates and exp(-i*theta*P) blocks
(``PauliRotation``).  The simulator runs a block as one Pauli rotation;
``Circuit.gates`` expands every block into its basis-change, CNOT-ladder and
Rz gates, so gate counts, the text dump and the cancellation pass see the
gate-level circuit.

Debug text dump: one gate per line, ``KIND q<i>[,q<j>][(angle)]``; symbolic
angles print as ``(p<slot>)``, scaled slots as ``(<scale>*p<slot>)``.
"""

from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from math import isfinite
from numbers import Integral, Real

import numpy as np

from .pauli import PauliString

# kind -> (arity, takes_angle)
GATE_KINDS = {
    "X": (1, False),
    "Y": (1, False),
    "Z": (1, False),
    "H": (1, False),
    "S": (1, False),
    "Sdg": (1, False),
    "Rx": (1, True),
    "Ry": (1, True),
    "Rz": (1, True),
    "CNOT": (2, False),
    "CZ": (2, False),
}

_SELF_INVERSE = {"X", "Y", "Z", "H", "CNOT", "CZ"}
_INVERSE_PAIR = {"S": "Sdg", "Sdg": "S"}


class WidthMismatchError(ValueError):
    """Circuits or states of incompatible qubit counts."""


class ArityMismatchError(ValueError):
    """Wrong number of parameter values supplied to bind_parameters."""


class IdentityStringError(ValueError):
    """exp_pauli needs a non-identity Pauli string."""


class UnboundParametersError(ValueError):
    """Operation requires a fully bound circuit."""


@dataclass(frozen=True, slots=True)
class Param:
    """A symbolic angle: ``scale * values[index]`` once bound.

    ``index`` must be an int (a numpy integer converts; a bool is refused)
    and ``scale`` a finite number; anything else raises a ValueError.
    """

    index: int
    scale: float = 1.0

    def __post_init__(self):
        # A plain int and float, as the ansatz builders pass, need no
        # conversion (set-up cost: the numbers ABCs are slow to check).
        if type(self.index) is not int:
            if isinstance(self.index, bool) or not isinstance(self.index, Integral):
                raise ValueError(f"a parameter slot must be an int, got {self.index!r}")
            object.__setattr__(self, "index", int(self.index))
        if type(self.scale) is not float and isinstance(self.scale, Real):
            object.__setattr__(self, "scale", float(self.scale))
        if type(self.scale) is not float or not isfinite(self.scale):
            raise ValueError(f"a parameter scale must be a finite number, got {self.scale!r}")

    def __mul__(self, factor):
        return Param(self.index, self.scale * factor)

    __rmul__ = __mul__

    def __neg__(self):
        return Param(self.index, -self.scale)

    def __str__(self):
        if self.scale == 1.0:
            return f"p{self.index}"
        return f"{self.scale!r}*p{self.index}"


def slot_values(values) -> list:
    """``values``, one per Param slot, as floats (``Circuit.bind_parameters``
    and ``Program.run`` share it); a bool or a value that is not a finite
    number raises a ValueError naming its slot."""
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        values = values.tolist()  # an optimizer's point: no bool in it
        if isfinite(sum(values)):  # else a NaN, an infinity or an overflowed sum
            return values
    values = list(values)
    for slot, value in enumerate(values):
        if isinstance(value, (bool, np.bool_)) or not isfinite(float(value)):
            raise ValueError(f"parameter slot {slot} needs a finite number, got {value!r}")
    return [float(value) for value in values]


def _bound(op, values):
    """``op`` with its slot's scaled value from ``values`` as its angle, as
    ``Program.run`` reads it; a product that is not finite fails as in ``slot_values``."""
    if not isinstance(op.angle, Param):
        return op
    angle = float(op.angle.scale * values[op.angle.index])
    if not isfinite(angle):
        raise ValueError(f"parameter slot {op.angle.index} needs a finite number, got {angle!r}")
    copy = object.__new__(type(op))
    for name in type(op).__slots__:
        object.__setattr__(copy, name, getattr(op, name))
    object.__setattr__(copy, "angle", angle)
    return copy


@dataclass(frozen=True, slots=True)
class Gate:
    """One gate: ``qubits`` are non-negative ints (numpy integers convert) and
    ``angle`` a finite float, a Param slot or None; else a ValueError names it."""

    kind: str
    qubits: tuple
    angle: object = None  # float | Param | None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        arity, takes_angle = GATE_KINDS[self.kind]
        qubits = tuple(self.qubits)
        if not all(type(q) is int and q >= 0 for q in qubits):  # builders pass plain ints
            for q in qubits:
                if isinstance(q, bool) or not isinstance(q, Integral) or q < 0:
                    raise ValueError(f"{self.kind} qubit must be a non-negative int, got {q!r}")
            qubits = tuple(map(int, qubits))
        object.__setattr__(self, "qubits", qubits)
        if len(qubits) != arity:
            raise ValueError(f"{self.kind} takes {arity} qubit(s), got {qubits}")
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"duplicate qubits in {self.kind} gate: {qubits}")
        if takes_angle:
            if self.angle is None:
                raise ValueError(f"{self.kind} needs an angle")
            if not isinstance(self.angle, Param):
                object.__setattr__(self, "angle", float(self.angle))
                if not isfinite(self.angle):
                    raise ValueError(f"{self.kind} needs a finite angle, got {self.angle!r}")
        elif self.angle is not None:
            raise ValueError(f"{self.kind} takes no angle")

    @property
    def is_bound(self) -> bool:
        return not isinstance(self.angle, Param)

    bound = _bound

    def inverse(self) -> "Gate":
        if self.kind in _SELF_INVERSE:
            return self
        if self.kind in _INVERSE_PAIR:
            return Gate(_INVERSE_PAIR[self.kind], self.qubits)
        return Gate(self.kind, self.qubits, -self.angle)

    @property
    def gates(self) -> tuple:
        return (self,)

    def dump(self) -> str:
        text = f"{self.kind} " + ",".join(f"q{q}" for q in self.qubits)
        if self.angle is not None:
            angle = str(self.angle) if isinstance(self.angle, Param) else repr(self.angle)
            text += f"({angle})"
        return text

    def __str__(self):
        return self.dump()


@dataclass(frozen=True, slots=True)
class PauliRotation:
    """The block exp(-i*angle*P) for a non-identity Pauli string P.

    ``angle`` is a finite float or a Param slot.  ``qubits`` is the string's
    support.  ``gates`` is the gate-level expansion: change of basis into Z,
    CNOT ladder onto the highest-index support qubit, Rz(2*angle), then undo.

    Raises:
        IdentityStringError: if ``string`` is the identity.
        ValueError: if a bound ``angle`` is a NaN or an infinity.
    """

    string: PauliString
    angle: object  # float | Param
    qubits: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.string.is_identity:
            raise IdentityStringError("exp_pauli of the identity string is a global phase")
        if not isinstance(self.angle, Param):
            object.__setattr__(self, "angle", float(self.angle))
            if not isfinite(self.angle):
                raise ValueError(f"exp_pauli({self.string}) needs a finite angle, got {self.angle!r}")
        object.__setattr__(self, "qubits", self.string.support)

    bound = _bound

    def inverse(self) -> "PauliRotation":
        return PauliRotation(self.string, -self.angle)

    @property
    def gates(self) -> tuple:
        pre = basis_change_gates(self.string)
        support = self.qubits
        ladder = tuple(cnot(support[i], support[i + 1]) for i in range(len(support) - 1))
        return (
            pre
            + ladder
            + (rz(support[-1], 2.0 * self.angle),)
            + ladder[::-1]
            + tuple(g.inverse() for g in reversed(pre))
        )

    def dump(self) -> str:
        return "\n".join(g.dump() for g in self.gates)


@dataclass(frozen=True, slots=True)
class Circuit:
    """An ordered list of ops (gates and PauliRotation blocks) over a
    fixed-width register.

    ``num_params`` counts the distinct symbolic parameter slots; a fully
    bound circuit has ``num_params == 0``.  ``gates`` is the gate-level
    expansion of ``ops``.
    """

    num_qubits: int
    ops: tuple = ()
    num_params: int = 0

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        if self.num_qubits < 0:
            raise ValueError("num_qubits must be non-negative")
        for op in self.ops:
            for q in op.qubits:
                if q >= self.num_qubits:
                    raise WidthMismatchError(
                        f"gate {op.dump()!r} touches qubit {q} on a "
                        f"{self.num_qubits}-qubit circuit"
                    )
            if isinstance(op.angle, Param) and not 0 <= op.angle.index < self.num_params:
                raise ValueError(
                    f"parameter slot {op.angle.index} out of range "
                    f"(num_params={self.num_params})"
                )

    @property
    def gates(self) -> tuple:
        return tuple(gate for op in self.ops for gate in op.gates)

    @property
    def is_bound(self) -> bool:
        return self.num_params == 0

    @property
    def num_gates(self) -> int:
        return len(self.gates)

    def gate_counts(self) -> dict:
        """Per-kind counts of the gate-level expansion plus a ``"total"`` entry.

        Counted without building the expansion: a PauliRotation on w qubits
        adds its factors' basis changes into Z and back, 2(w-1) CNOTs and one
        Rz (see ``PauliRotation.gates``).  One numpy pass over all rotations'
        mask bytes counts popcount(x & ~z) X factors, popcount(x & z) Y factors
        and w = popcount(x | z); each axis's basis changes are added once.
        """
        counts = Counter(op.kind for op in self.ops if isinstance(op, Gate))
        strings = [op.string for op in self.ops if not isinstance(op, Gate)]
        size = (self.num_qubits + 7) // 8  # bytes per mask
        x = np.frombuffer(b"".join(s.x.to_bytes(size, "little") for s in strings), np.uint8)
        z = np.frombuffer(b"".join(s.z.to_bytes(size, "little") for s in strings), np.uint8)
        counts["CNOT"] += 2 * (int(np.bitwise_count(x | z).sum()) - len(strings))
        counts["Rz"] += len(strings)
        for axis, bits in (("X", x & ~z), ("Y", x & z)):
            number = int(np.bitwise_count(bits).sum())
            for kind, count in _basis_change_counts(axis).items():
                counts[kind] += number * count
        counts = {kind: count for kind, count in counts.items() if count}
        counts["total"] = sum(counts.values())
        return counts

    def bind_parameters(self, values) -> "Circuit":
        """Replace every symbolic angle; ``values`` must have one finite
        number per slot (see ``slot_values``)."""
        values = slot_values(values)
        if len(values) != self.num_params:
            raise ArityMismatchError(
                f"circuit has {self.num_params} parameter(s), got {len(values)} value(s)"
            )
        return Circuit(self.num_qubits, tuple(op.bound(values) for op in self.ops), 0)

    def compose(self, other: "Circuit") -> "Circuit":
        """This circuit followed by ``other`` (program order)."""
        if other.num_qubits != self.num_qubits:
            raise WidthMismatchError(
                f"cannot compose {self.num_qubits}-qubit and {other.num_qubits}-qubit circuits"
            )
        return Circuit(
            self.num_qubits,
            self.ops + other.ops,
            max(self.num_params, other.num_params),
        )

    def inverse(self) -> "Circuit":
        """Circuit implementing the adjoint unitary."""
        return Circuit(
            self.num_qubits,
            tuple(op.inverse() for op in reversed(self.ops)),
            self.num_params,
        )

    def dump(self) -> str:
        return "\n".join(g.dump() for g in self.gates)


# -- gate constructors -------------------------------------------------------


def x(q):
    return Gate("X", (q,))


def y(q):
    return Gate("Y", (q,))


def z(q):
    return Gate("Z", (q,))


def h(q):
    return Gate("H", (q,))


def s(q):
    return Gate("S", (q,))


def sdg(q):
    return Gate("Sdg", (q,))


def rx(q, angle):
    return Gate("Rx", (q,), angle)


def ry(q, angle):
    return Gate("Ry", (q,), angle)


def rz(q, angle):
    return Gate("Rz", (q,), angle)


def cnot(control, target):
    return Gate("CNOT", (control, target))


def cz(a, b):
    return Gate("CZ", (a, b))


def basis_change_gates(string: PauliString) -> tuple:
    """Gates rotating each factor of ``string`` into the Z basis.

    H for an X factor; Sdg then H for a Y factor.  Used by the gate
    expansion of an exp_pauli block (``PauliRotation.gates``).
    """
    gates = []
    for q, axis in string.factors:
        if axis == "X":
            gates.append(h(q))
        elif axis == "Y":
            gates.append(sdg(q))
            gates.append(h(q))
    return tuple(gates)


@cache
def _basis_change_counts(axis: str) -> Counter:
    """Per-kind counts of the gates a factor on ``axis`` adds to a
    PauliRotation's expansion: its basis change and the undo.  Shared by
    every caller, so never mutated."""
    pre = basis_change_gates(PauliString({0: axis}))
    return Counter(g.kind for g in pre + tuple(g.inverse() for g in pre))


def exp_pauli(theta, string: PauliString, num_qubits=None) -> Circuit:
    """One-block circuit for exp(-i*theta*P), P a non-identity Pauli string.

    ``theta`` may be a Param slot.  The block's gate expansion is described
    under PauliRotation.

    Raises:
        IdentityStringError: if ``string`` is the identity.
    """
    block = PauliRotation(string, theta)
    n = string.width if num_qubits is None else num_qubits
    if n < string.width:
        raise WidthMismatchError(f"string {string} does not fit on {n} qubits")
    num_params = theta.index + 1 if isinstance(theta, Param) else 0
    return Circuit(n, (block,), num_params)


def cancel_adjacent_inverses(circuit: Circuit) -> Circuit:
    """Remove adjacent G, G-dagger pairs on identical qubits; unitary-preserving.

    Cancellation cascades (a removed pair can expose a new adjacent pair),
    so the result is a fixed point of the pass.
    """
    stack = []
    for gate in circuit.gates:
        if stack and _cancels(stack[-1], gate):
            stack.pop()
        else:
            stack.append(gate)
    return Circuit(circuit.num_qubits, tuple(stack), circuit.num_params)


def _cancels(first: Gate, second: Gate) -> bool:
    """``first.inverse() == second``, decided without building a Gate."""
    if first.qubits != second.qubits:
        return False
    kind = first.kind
    if kind in _SELF_INVERSE:
        return second.kind == kind
    if kind in _INVERSE_PAIR:
        return second.kind == _INVERSE_PAIR[kind]
    if second.kind != kind:
        return False
    a, b = first.angle, second.angle
    if isinstance(a, Param):
        return isinstance(b, Param) and a.index == b.index and -a.scale == b.scale
    return not isinstance(b, Param) and -a == b
