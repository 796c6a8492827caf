"""Problem models: an observable, an optional distinct Hamiltonian and a
state-preparation (or ansatz) circuit, plus the factory and builder that
assemble them."""

import dataclasses
import importlib.resources
from dataclasses import dataclass, field

from . import ansatz
from .circuit import Circuit, cnot, h as h_gate, x
from .optimizer import as_int, config_value
from .pauli import PauliOperator, PauliString, parse

H2_DATA_FILE = "h2_4q.op"


class UnknownObservableError(ValueError):
    """Observable name not recognised by the factory."""


class UnknownModelError(ValueError):
    """Model kind not recognised by the factory."""


class MissingObservableError(ValueError):
    """ModelBuilder.build called without an observable."""


@dataclass(frozen=True)
class QuantumSimulationModel:
    """What a workflow solves or simulates for.

    ``observable`` is the quantity a workflow reports; ``hamiltonian``
    drives the dynamics and defaults to the observable.  ``state_prep``
    holds the initial-state kernel (|0...0> when none is given); for
    variational workflows it is the parameterized ansatz.  The register
    width and the parameter count are those of ``state_prep``.
    """

    observable: PauliOperator
    hamiltonian: PauliOperator = None
    state_prep: Circuit = None
    name: str = ""

    def __post_init__(self):
        if self.hamiltonian is None:
            object.__setattr__(self, "hamiltonian", self.observable)
        if not self.observable.is_hermitian:
            raise ValueError("observable must be Hermitian")
        if not self.hamiltonian.is_hermitian:
            raise ValueError("hamiltonian must be Hermitian")
        operator_width = max(self.observable.width, self.hamiltonian.width)
        prep = self.state_prep
        if prep is None:
            prep = Circuit(operator_width)
        if prep.num_qubits < operator_width:
            raise ValueError(
                f"state_prep acts on {prep.num_qubits} qubit(s) but the "
                f"operators touch qubit {operator_width - 1}"
            )
        if prep.num_qubits == 0:
            # Only constant operators get here; simulate them on one qubit.
            prep = Circuit(1, prep.ops, prep.num_params)
        object.__setattr__(self, "state_prep", prep)

    @property
    def num_qubits(self) -> int:
        return self.state_prep.num_qubits

    @property
    def num_params(self) -> int:
        return self.state_prep.num_params


@dataclass
class HeisenbergParams:
    """Couplings and initial state of an open-chain Heisenberg model.

    ``jz`` plays the role of the anisotropy g when jx = jy = 1.
    """

    jx: float = 1.0
    jy: float = 1.0
    jz: float = 1.0
    h_ext: float = 0.0
    num_spins: int = 2
    initial_spins: list = field(default_factory=list)
    observable_name: str = "staggered_magnetization"

    def __post_init__(self):
        self.initial_spins = _bits(self.initial_spins) or [0] * self.num_spins
        if len(self.initial_spins) != self.num_spins:
            raise ValueError(
                f"initial_spins has {len(self.initial_spins)} entries "
                f"for {self.num_spins} spins"
            )


def staggered_magnetization(num_spins: int) -> PauliOperator:
    """(1/N) * sum_i (-1)^i Z_i, the antiferromagnetic order parameter.

    The alternating sign starts positive at site 0; |0> is spin-up.
    """
    weight = 1.0 / num_spins
    return PauliOperator((PauliString({i: "Z"}), (-1) ** i * weight) for i in range(num_spins))


def _bits(values) -> list:
    """Spin entries as 0/1 ints (1.0 and "0" convert); any other entry,
    a bool included, raises a ValueError."""
    bits = []
    for value in values:
        bit = as_int(value)
        if isinstance(value, bool) or bit not in (0, 1):
            raise ValueError(f"a spin entry must be 0 or 1, got {value!r}")
        bits.append(bit)
    return bits


def bits_prep(bits) -> Circuit:
    """X gates on every qubit whose entry is 1."""
    bits = _bits(bits)
    return Circuit(len(bits), tuple(x(q) for q, b in enumerate(bits) if b))


def create_heisenberg(params: HeisenbergParams) -> QuantumSimulationModel:
    """Open-chain Heisenberg model with nearest-neighbour couplings.

    H = sum_i [jx XX + jy YY + jz ZZ] + h_ext * sum_i Z_i.

    Raises:
        UnknownObservableError: observable_name is not supported.
    """
    if params.num_spins < 2:
        raise ValueError("Heisenberg chain needs at least 2 spins")
    n = params.num_spins
    couplings = (("X", params.jx), ("Y", params.jy), ("Z", params.jz))
    terms = [(PauliString({i: a, i + 1: a}), c) for i in range(n - 1) for a, c in couplings]
    if params.h_ext != 0.0:
        terms += [(PauliString({i: "Z"}), params.h_ext) for i in range(n)]
    h = PauliOperator(terms)
    if params.observable_name == "staggered_magnetization":
        observable = staggered_magnetization(n)
    elif params.observable_name == "energy":
        observable = h
    else:
        raise UnknownObservableError(
            f"unknown observable {params.observable_name!r}; "
            "expected 'staggered_magnetization' or 'energy'"
        )
    return QuantumSimulationModel(
        observable=observable,
        hamiltonian=h,
        state_prep=bits_prep(params.initial_spins),
        name="heisenberg",
    )


def create_tfim(jz: float, hx: float, num_spins: int) -> QuantumSimulationModel:
    """Open-chain transverse-field Ising model:
    H = jz * sum Z_i Z_{i+1} + hx * sum X_i."""
    if num_spins < 2:
        raise ValueError("TFIM chain needs at least 2 spins")
    bonds = [(PauliString({i: "Z", i + 1: "Z"}), jz) for i in range(num_spins - 1)]
    h = PauliOperator(bonds + [(PauliString({i: "X"}), hx) for i in range(num_spins)])
    return QuantumSimulationModel(
        observable=h,
        state_prep=Circuit(num_spins),
        name="tfim",
    )


def create_star_maxcut(num_qubits: int) -> QuantumSimulationModel:
    """Unweighted MaxCut cost operator for the star graph S_n:
    H_C = sum_{k>=1} -0.5 * (1 - Z_0 Z_k), ground energy -(n-1)."""
    if num_qubits < 2:
        raise ValueError("star graph needs at least 2 qubits")
    constant = (PauliString(), -0.5 * (num_qubits - 1))
    edges = [(PauliString({0: "Z", k: "Z"}), 0.5) for k in range(1, num_qubits)]
    return QuantumSimulationModel(observable=PauliOperator([constant] + edges), name="star-maxcut")


def create_from_parts(
    state_prep: Circuit,
    observable: PauliOperator,
    hamiltonian: PauliOperator = None,
    name: str = "",
) -> QuantumSimulationModel:
    """Package an ansatz/prep circuit with an observable directly."""
    return QuantumSimulationModel(
        observable=observable, hamiltonian=hamiltonian, state_prep=state_prep, name=name
    )


def load_h2_hamiltonian() -> PauliOperator:
    """The bundled 4-qubit minimal-basis H2 Hamiltonian (equilibrium
    geometry), stored in the operator text grammar."""
    text = (
        importlib.resources.files("quasimo.data").joinpath(H2_DATA_FILE).read_text()
    )
    return parse_operator_file_text(text)


def parse_operator_file_text(text: str) -> PauliOperator:
    """Parse a .op file: the operator grammar, with '#' comment lines."""
    lines = [ln for ln in text.splitlines() if not ln.strip().startswith("#")]
    return parse("\n".join(lines))


class ModelBuilder:
    """Stepwise construction of a QuantumSimulationModel.

    Raises:
        MissingObservableError: build() called before set_observable.
    """

    def __init__(self):
        self._observable = None
        self._hamiltonian = None
        self._state_prep = None
        self._name = ""

    def set_observable(self, observable: PauliOperator) -> "ModelBuilder":
        self._observable = observable
        return self

    def set_hamiltonian(self, hamiltonian: PauliOperator) -> "ModelBuilder":
        self._hamiltonian = hamiltonian
        return self

    def set_state_prep(self, circuit: Circuit) -> "ModelBuilder":
        self._state_prep = circuit
        return self

    def set_name(self, name: str) -> "ModelBuilder":
        self._name = name
        return self

    def build(self) -> QuantumSimulationModel:
        if self._observable is None:
            raise MissingObservableError("a model needs an observable; call set_observable")
        return QuantumSimulationModel(
            observable=self._observable,
            hamiltonian=self._hamiltonian,
            state_prep=self._state_prep,
            name=self._name,
        )


def _model_options(kind: str, options: dict, spec: dict) -> dict:
    """The options present, each converted by its ``spec`` entry (key ->
    converter); a value that does not convert raises a ValueError naming
    the key.

    Raises:
        UnknownModelError: a key has no entry in ``spec``.
    """
    for key in options:
        if key not in spec:
            raise UnknownModelError(f"unknown {kind} option {key!r}")
    return {key: config_value(options, key, spec[key]) for key in options}


# Factory-option keys follow the external config spelling ("Jx", "h_ext", ...);
# the HeisenbergParams field of each is the key in lower case, except that
# "observable" fills observable_name.
_HEISENBERG_OPTIONS = {
    "Jx": float,
    "Jy": float,
    "Jz": float,
    "h_ext": float,
    "num_spins": int,
    "initial_spins": _bits,
    "observable": str,
}
_TFIM_OPTIONS = {
    "Jz": float,
    "hx": float,
    "num_spins": int,
    "initial_spins": _bits,
    "initial-state": str,
}


def _heisenberg_from_options(options: dict) -> QuantumSimulationModel:
    values = _model_options("Heisenberg", options, _HEISENBERG_OPTIONS)
    if "observable" in values:
        values["observable_name"] = values.pop("observable")
    return create_heisenberg(HeisenbergParams(**{k.lower(): v for k, v in values.items()}))


def _tfim_from_options(options: dict) -> QuantumSimulationModel:
    values = _model_options("TFIM", options, _TFIM_OPTIONS)
    m = create_tfim(values.get("Jz", -1.0), values.get("hx", -1.0), values.get("num_spins", 3))
    prep = _initial_state_prep(values, m.num_qubits)
    return m if prep is None else dataclasses.replace(m, state_prep=prep)


def _initial_state_prep(values: dict, num_qubits: int) -> Circuit | None:
    if "initial_spins" in values and "initial-state" in values:
        raise ValueError(
            "config keys 'initial_spins' and 'initial-state' both set the initial state; give one"
        )
    if "initial_spins" in values:
        return _spins_prep("initial_spins", values["initial_spins"], num_qubits)
    if "initial-state" in values:
        label = values["initial-state"]
        if label == "ghz":
            gates = [h_gate(0)] + [cnot(0, q) for q in range(1, num_qubits)]
            return Circuit(num_qubits, tuple(gates))
        if set(label) <= {"0", "1"}:
            return _spins_prep("initial-state", label, num_qubits)
        raise UnknownModelError(f"unknown initial-state {label!r}")
    return None


def _spins_prep(key: str, bits, num_spins: int) -> Circuit:
    if len(bits) != num_spins:
        raise ValueError(f"config key '{key}' has {len(bits)} entries for {num_spins} spins")
    return bits_prep(bits)


def _star_from_options(options: dict) -> QuantumSimulationModel:
    values = _model_options("star-maxcut", options, {"num_qubits": int})
    return create_star_maxcut(values.get("num_qubits", 2))


def _h2_from_options(options: dict) -> QuantumSimulationModel:
    values = _model_options("h2", options, {"ansatz": str, "layers": int})
    h = load_h2_hamiltonian()
    kind = values.get("ansatz", "hardware-efficient")
    if kind != "hardware-efficient":
        raise UnknownModelError(f"unknown ansatz {kind!r}")
    # X(0), X(2) ahead of the entangler chain makes the zero-parameter point
    # the Hartree-Fock determinant |1100>, a sane variational reference.
    reference = Circuit(4, (x(0), x(2)))
    prep = reference.compose(ansatz.hardware_efficient(4, values.get("layers", 1)))
    return create_from_parts(prep, h, name="h2")


_MODEL_KINDS = {
    "heisenberg": _heisenberg_from_options,
    "tfim": _tfim_from_options,
    "star-maxcut": _star_from_options,
    "h2": _h2_from_options,
}


def create_model(kind: str, options: dict | None = None) -> QuantumSimulationModel:
    """Name-keyed factory over the built-in model kinds.

    Raises:
        UnknownModelError: the kind (or one of its options) is not recognised.
    """
    if kind not in _MODEL_KINDS:
        raise UnknownModelError(
            f"unknown model kind {kind!r}; known: {sorted(_MODEL_KINDS)}"
        )
    return _MODEL_KINDS[kind](dict(options or {}))


def list_models() -> list:
    return sorted(_MODEL_KINDS)
