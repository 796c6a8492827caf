"""Hybrid quantum/classical workflows behind a name-keyed registry.

Workflows are configured with a string-keyed option map (the external
spelling: "dt", "steps", "step-size", "optimizer", "shots", "seed",
"starts", "circuit-optimizer"), execute against a QuantumSimulationModel,
and return a WorkflowResult.  Every key is read and converted once, at
``initialize``, so a malformed value raises BadConfigError or a ValueError
naming the key before anything runs.  What needs the model (the length of
"initial-params", the smallest "budget" the optimizer accepts over the
ansatz's parameters, QITE's width cap, a bound state prep for the
time-dependent and QITE workflows) is checked by ``check_model``, which
the CLI calls before ``execute`` and ``execute`` calls again.  Instances are
single-use; independent executions may run concurrently.

WorkflowResult keys by workflow:
    time-dependent: "exp-vals", "final-circuit-stats"
    vqe:            "energy", "opt-params", "trace", "evaluations"
    qaoa:           "energy", "opt-params", "trace", "evaluations"
    qite:           "exp-vals", "energy", "final-circuit-stats"

vqe and qaoa share one driver, ``_minimize``, which compiles the ansatz
once per execution: for qaoa, "energy", "opt-params" and "trace" belong to
the best start, while "evaluations" is the total over all starts.  Each
workflow's ``csv_table`` lays out its result as the CLI's CSV.
"""

import itertools

import numpy as np

from . import ansatz
from .circuit import Circuit, PauliRotation, cancel_adjacent_inverses
from .costfn import CostFunctionEvaluator, EvaluatorConfig
from .model import QuantumSimulationModel
from .optimizer import OPTION_KEYS, Optimizer, config_value, create_optimizer
from .pauli import PauliString, TooManyQubitsError
from .simulator import StateVector, apply_operator, compile_circuit, pauli_overlaps, pauli_rows
from .simulator import rotate_rows, run
from .tapering import SingularSystemError
from .validation import QuantumValidationModel

QITE_MAX_QUBITS = 5
QITE_REGULARIZATION = 1e-8
# Workflow keys handed to a named optimizer; "seed" also seeds the evaluator.
OPTIMIZER_KEYS = OPTION_KEYS - {"seed"}


class UnknownWorkflowError(KeyError):
    """No workflow registered under that name."""


class BadConfigError(ValueError):
    """Config rejected; the message names the offending key."""


class NoOptimizerError(BadConfigError):
    """Variational workflow configured without an optimizer."""


class QiteNormalizationError(ValueError):
    """A QITE step's first-order norm factor 1 - 2*dbeta*<H> is not positive."""


class WorkflowResult(dict):
    """Heterogeneous keyed result container."""


def _require(condition, message):
    if not condition:
        raise BadConfigError(message)


def _finite_vector(value) -> np.ndarray:
    """A number or a flat list of numbers as a 1-d float array; anything else,
    a bool or a NaN or infinite entry included, raises a ValueError."""
    entries = value if isinstance(value, list) else [value]
    if any(isinstance(entry, bool) for entry in entries):
        raise ValueError
    vector = np.array(value, dtype=float, ndmin=1)
    if vector.ndim != 1 or not np.isfinite(vector).all():
        raise ValueError
    return vector


class QuantumSimulationWorkflow:
    """Base workflow: validate config at initialize, compute at execute."""

    name = ""
    allowed_keys = frozenset()
    required_keys = frozenset()

    def __init__(self):
        self.config = {}
        self.evaluator = CostFunctionEvaluator()

    def initialize(self, config: dict | None = None) -> "QuantumSimulationWorkflow":
        config = dict(config or {})
        common = {"shots", "seed"}
        for key in config:
            if key not in self.allowed_keys and key not in common:
                raise BadConfigError(f"unknown config key '{key}' for workflow '{self.name}'")
        for key in self.required_keys:
            if key not in config:
                raise BadConfigError(f"workflow '{self.name}' requires config key '{key}'")
        self.config = config
        self.seed = config_value(config, "seed", int, 0)
        _require(self.seed >= 0, f"config key 'seed' must be >= 0, got {self.seed}")
        shots = config_value(config, "shots", int, 0)
        self.evaluator = CostFunctionEvaluator(EvaluatorConfig(shots, self.seed))
        self._check_config()
        return self

    def _check_config(self):
        pass

    def check_model(self, model: QuantumSimulationModel) -> None:
        """Check the config against ``model``; raises a ValueError naming the
        key (or the model's defect) before anything runs."""

    def execute(self, model: QuantumSimulationModel) -> WorkflowResult:
        raise NotImplementedError

    def csv_table(self, result: WorkflowResult):
        """(header, rows) of the result's CSV: ``eval,energy`` per trace entry,
        or one row holding the energy when the result has no trace."""
        if "trace" not in result:
            return ["eval", "energy"], [[0, float(result["energy"])]]
        return ["eval", "energy"], [[k, v] for k, v in result["trace"]]

    def validate(self, result: WorkflowResult, validation_model: QuantumValidationModel):
        """Delegate to a QuantumValidationModel: (accepted, measured distance)."""
        return validation_model.accept_results(result)

    # -- shared helpers ------------------------------------------------------

    def _resolve_optimizer(self) -> Optimizer:
        value = self.config.get("optimizer")
        if value is None:
            raise NoOptimizerError(f"workflow '{self.name}' requires config key 'optimizer'")
        options = {key: self.config[key] for key in sorted(OPTIMIZER_KEYS & self.config.keys())}
        if isinstance(value, Optimizer):
            if options:
                raise BadConfigError(
                    f"config key '{next(iter(options))}' cannot be set beside an "
                    "Optimizer instance; pass it to the Optimizer instead"
                )
            return value
        return create_optimizer(str(value), {"seed": self.seed, **options})

    def _check_bound_prep(self, model: QuantumSimulationModel):
        if model.num_params:
            raise ValueError(
                f"workflow '{self.name}' needs a bound state prep; the model's has "
                f"{model.num_params} parameter(s)"
            )

    def _check_budget(self, dim: int):
        needed = self.optimizer.min_budget(dim)
        _require(
            self.optimizer.budget >= needed,
            f"config key 'budget' is {self.optimizer.budget}; {self.optimizer.name} "
            f"over {dim} parameter(s) needs at least {needed}",
        )

    def _minimize(self, circuit: Circuit, observable, starts) -> WorkflowResult:
        """Minimize ``observable``'s expectation over ``circuit``'s parameters,
        running the optimizer from each start in order.  "energy", "opt-params"
        and "trace" come from the best start (the earliest on a tie);
        "evaluations" is the total over all starts.  The circuit is compiled
        once; each objective call runs the program with its angles."""
        program = compile_circuit(circuit)

        def objective(theta):
            return self.evaluator.evaluate_state(program.run(None, theta), observable)

        best = None
        evaluations = 0
        for x0 in starts:
            opt = self.optimizer.minimize(objective, x0)
            evaluations += opt.evaluations_used
            if best is None or opt.best_value < best.best_value:
                best = opt
        return WorkflowResult(
            {
                "energy": best.best_value,
                "opt-params": list(best.best_params),
                "trace": best.trace,
                "evaluations": evaluations,
            }
        )


class TimeDependentWorkflow(QuantumSimulationWorkflow):
    """Trotterized real-time evolution, recording the observable after every
    step (step 0 included).

    Config: "dt" (> 0, required), "steps" (>= 0, required), "trotter-order"
    (1 or 2, default 2).  The default symmetric step reproduces reference
    magnetization curves well inside their tolerance; order 1 is the plain
    per-term product.
    """

    name = "time-dependent"
    allowed_keys = frozenset({"dt", "steps", "trotter-order"})
    required_keys = frozenset({"dt", "steps"})

    def _check_config(self):
        self.dt = config_value(self.config, "dt", float)
        self.steps = config_value(self.config, "steps", int)
        self.order = config_value(self.config, "trotter-order", int, 2)
        _require(self.dt > 0, "config key 'dt' must be > 0")
        _require(self.steps >= 0, "config key 'steps' must be >= 0")
        _require(self.order in (1, 2), "config key 'trotter-order' must be 1 or 2")

    def check_model(self, model: QuantumSimulationModel) -> None:
        self._check_bound_prep(model)

    def execute(self, model: QuantumSimulationModel) -> WorkflowResult:
        self.check_model(model)
        n = model.num_qubits
        prep = model.state_prep
        if self.order == 1:
            step = ansatz.trotter_step(model.hamiltonian, self.dt, n)
        else:
            step = ansatz.symmetric_trotter_step(model.hamiltonian, self.dt, n)
        program = compile_circuit(step)
        state = run(prep)
        values = [self.evaluator.evaluate_state(state, model.observable)]
        for _ in range(self.steps):
            state = program.run(state)
            values.append(self.evaluator.evaluate_state(state, model.observable))
        stats = prep.gate_counts()
        if self.steps:  # a kind appears only with a nonzero count
            for kind, count in step.gate_counts().items():
                stats[kind] = stats.get(kind, 0) + self.steps * count
        return WorkflowResult({"exp-vals": values, "final-circuit-stats": stats})

    def csv_table(self, result: WorkflowResult):
        rows = [[k, k * self.dt, v] for k, v in enumerate(result["exp-vals"])]
        return ["step", "time", "exp_val"], rows


class VqeWorkflow(QuantumSimulationWorkflow):
    """Variational minimization of the observable's expectation value.

    Config: "optimizer" (name or Optimizer instance, required); "budget",
    "tolerance", "perturbation" and "stability" (passed to a named optimizer;
    refused beside an instance); "initial-params" (a number or a flat list of
    finite numbers, one per ansatz parameter; defaults to all zeros).
    """

    name = "vqe"
    allowed_keys = frozenset({"optimizer", "initial-params"}) | OPTIMIZER_KEYS
    required_keys = frozenset()

    def _check_config(self):
        self.optimizer = self._resolve_optimizer()
        self.initial_params = config_value(self.config, "initial-params", _finite_vector)

    def check_model(self, model: QuantumSimulationModel) -> None:
        if model.num_params < 1:
            raise ValueError("VQE needs a parameterized ansatz (num_params >= 1)")
        x0 = self.initial_params
        if x0 is not None and x0.size != model.num_params:
            raise BadConfigError(
                f"config key 'initial-params' has {x0.size} entries, "
                f"model needs {model.num_params}"
            )
        self._check_budget(model.num_params)

    def execute(self, model: QuantumSimulationModel) -> WorkflowResult:
        self.check_model(model)
        x0 = self.initial_params
        if x0 is None:
            x0 = np.zeros(model.num_params)
        return self._minimize(model.state_prep, model.observable, [x0])


class QaoaWorkflow(QuantumSimulationWorkflow):
    """QAOA over the model's cost Hamiltonian with a transverse-field mixer.

    Config: "steps" (p >= 1, required), "optimizer" (required), "starts"
    (default 10); "budget", "tolerance", "perturbation" and "stability" as
    for vqe.  Start s draws uniform initial angles in [0, 2*pi)^(2p) from the
    generator seeded with (seed, s); the reported energy is the smallest over
    starts.
    """

    name = "qaoa"
    allowed_keys = frozenset({"steps", "optimizer", "starts"}) | OPTIMIZER_KEYS
    required_keys = frozenset({"steps"})

    def _check_config(self):
        self.steps = config_value(self.config, "steps", int)
        self.starts = config_value(self.config, "starts", int, 10)
        _require(self.steps >= 1, "config key 'steps' must be >= 1")
        _require(self.starts >= 1, "config key 'starts' must be >= 1")
        self.optimizer = self._resolve_optimizer()

    def check_model(self, model: QuantumSimulationModel) -> None:
        self._check_budget(2 * self.steps)

    def execute(self, model: QuantumSimulationModel) -> WorkflowResult:
        self.check_model(model)
        circuit = ansatz.qaoa_ansatz(model.hamiltonian, self.steps, model.num_qubits)
        starts = (
            np.random.default_rng([self.seed, s]).uniform(0.0, 2 * np.pi, size=2 * self.steps)
            for s in range(self.starts)
        )
        return self._minimize(circuit, model.observable, starts)


def _full_pauli_basis(n: int) -> list:
    """All 4^n - 1 non-identity strings on n qubits, canonical order."""
    masks = itertools.product(range(1 << n), repeat=2)
    strings = (PauliString.from_masks(x, z) for x, z in masks if x | z)
    return sorted(strings, key=PauliString.sort_key)


class QiteWorkflow(QuantumSimulationWorkflow):
    """Imaginary-time evolution by per-step unitary fits (Motta et al. 2020).

    At each step the target state e^{-dbeta*H}|psi>, normalized to first
    order via c = 1 - 2*dbeta*<H> (by design, a step with c <= 0, where dbeta
    is too large for that expansion, raises QiteNormalizationError rather
    than fall back to the exact norm), is matched by a unitary generated over
    the full non-identity Pauli basis.  The fit's system
    (S + S^T + lambda*I) a = 2*Im<P_I psi|H psi> / sqrt(c), S_IJ =
    <P_I psi|P_J psi>, lambda = 1e-8, needs no solve: as the sum of P rho P
    over all 4^n Paulis is 2^n tr(rho) I, S + S^T is 2^n on the right-hand
    side's span, so a_I = 2*Im<P_I psi|H psi> / (sqrt(c) * (2^n + lambda)).
    The state takes exp(-i*a_I*dbeta*P_I) in canonical order from the
    basis's ``pauli_rows`` table, as the overlaps do.  The circuit gets the
    kept rotations when it is read: per step by a "circuit-optimizer" pass,
    and once after the last step.

    Config: "steps" (required), "step-size" (dbeta > 0, required),
    "circuit-optimizer" (pass name or callable, optional).
    """

    name = "qite"
    allowed_keys = frozenset({"steps", "step-size", "circuit-optimizer"})
    required_keys = frozenset({"steps", "step-size"})

    def _check_config(self):
        self.steps = config_value(self.config, "steps", int)
        self.dbeta = config_value(self.config, "step-size", float)
        _require(self.steps >= 0, "config key 'steps' must be >= 0")
        _require(self.dbeta > 0, "config key 'step-size' must be > 0")
        self.circuit_optimizer = self._resolve_circuit_optimizer()

    def _resolve_circuit_optimizer(self):
        value = self.config.get("circuit-optimizer")
        if value is None or callable(value):
            return value
        if str(value) in _CIRCUIT_OPTIMIZERS:
            return _CIRCUIT_OPTIMIZERS[str(value)]
        raise BadConfigError(
            f"unknown circuit-optimizer '{value}'; known: {sorted(_CIRCUIT_OPTIMIZERS)}"
        )

    def check_model(self, model: QuantumSimulationModel) -> None:
        self._check_bound_prep(model)
        if model.num_qubits > QITE_MAX_QUBITS:
            raise TooManyQubitsError(
                f"QITE uses the full 4^n Pauli basis; capped at {QITE_MAX_QUBITS} "
                f"qubits, got {model.num_qubits}"
            )

    def execute(self, model: QuantumSimulationModel) -> WorkflowResult:
        self.check_model(model)
        n = model.num_qubits
        basis = _full_pauli_basis(n)
        rows = pauli_rows(basis, n)

        circuit = model.state_prep
        pending = []
        state = run(circuit)
        amps = state.amplitudes
        values = [self.evaluator.evaluate_state(state, model.observable)]
        for _ in range(self.steps):
            thetas = self._solve_step(amps, model.hamiltonian, rows, self.dbeta, n) * self.dbeta
            picks = np.flatnonzero(np.abs(thetas) >= 1e-12)
            pending += [PauliRotation(basis[i], thetas[i]) for i in picks]
            if self.circuit_optimizer is not None:
                circuit = self.circuit_optimizer(circuit.compose(Circuit(n, tuple(pending))))
                pending = []
            amps = rotate_rows(rows, amps, picks, thetas)
            amps = amps / np.linalg.norm(amps)
            values.append(self.evaluator.evaluate_state(StateVector(n, amps), model.observable))
        circuit = circuit.compose(Circuit(n, tuple(pending)))
        return WorkflowResult(
            {
                "exp-vals": values,
                "energy": values[-1],
                "final-circuit-stats": circuit.gate_counts(),
            }
        )

    @staticmethod
    def _solve_step(amps, hamiltonian, rows, dbeta, n):
        h_amps = apply_operator(amps, hamiltonian, n)
        energy = float(np.real(np.vdot(amps, h_amps)))
        norm_factor = 1.0 - 2.0 * dbeta * energy
        if norm_factor <= 0.0:
            raise QiteNormalizationError(
                f"QITE norm factor 1 - 2*step-size*<H> = {norm_factor!r} is not positive "
                f"(step-size {dbeta!r}, <H> = {energy!r}); reduce 'step-size'"
            )
        rhs = 2.0 * np.imag(pauli_overlaps(rows, amps, h_amps)) / np.sqrt(norm_factor)
        coeffs = rhs / ((1 << n) + QITE_REGULARIZATION)
        if not np.all(np.isfinite(coeffs)):
            raise SingularSystemError("QITE step produced a non-finite update")
        return coeffs

    def csv_table(self, result: WorkflowResult):
        rows = [[k, k * self.dbeta, v] for k, v in enumerate(result["exp-vals"])]
        return ["step", "beta", "energy"], rows


_CIRCUIT_OPTIMIZERS = {"cancel-inverses": cancel_adjacent_inverses}


def register_circuit_optimizer(name: str, optimizer_pass) -> None:
    """Expose a Circuit -> Circuit pass under a config-addressable name."""
    _CIRCUIT_OPTIMIZERS[name] = optimizer_pass


_REGISTRY = {}


def register_workflow(name: str, factory) -> None:
    """Register a workflow factory; user plugins may be added before use."""
    _REGISTRY[name] = factory


def get_workflow(name: str, config: dict | None = None) -> QuantumSimulationWorkflow:
    """Construct and initialize a registered workflow.

    Raises:
        UnknownWorkflowError: nothing is registered under ``name``.
        BadConfigError: the config fails validation.
    """
    if name not in _REGISTRY:
        raise UnknownWorkflowError(
            f"unknown workflow '{name}'; known: {sorted(_REGISTRY)}"
        )
    workflow = _REGISTRY[name]()
    workflow.initialize(config)
    return workflow


def list_workflows() -> list:
    return sorted(_REGISTRY)


for _cls in (TimeDependentWorkflow, VqeWorkflow, QaoaWorkflow, QiteWorkflow):
    register_workflow(_cls.name, _cls)
