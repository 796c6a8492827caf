"""quasimo: composable hybrid quantum/classical simulation workflows over a
dense statevector simulator.

The usual entry points:

    from quasimo import pauli, model, workflow
    m = model.create_model("tfim", {"num_spins": 3})
    flow = workflow.get_workflow("qite", {"steps": 20, "step-size": 0.45})
    result = flow.execute(m)
"""

from .ansatz import hardware_efficient, qaoa_ansatz, rx_ry, symmetric_trotter_step, trotter_step
from .circuit import Circuit, Gate, Param, PauliRotation, cancel_adjacent_inverses, exp_pauli
from .costfn import CostFunctionEvaluator, EvaluatorConfig, evaluate
from .model import (
    HeisenbergParams,
    ModelBuilder,
    QuantumSimulationModel,
    create_from_parts,
    create_heisenberg,
    create_model,
    create_star_maxcut,
    create_tfim,
    load_h2_hamiltonian,
)
from .optimizer import OptResult, create_optimizer, nelder_mead_minimize, spsa_minimize
from .pauli import PauliOperator, PauliString, X, Y, Z, commutator, parse
from .simulator import Program, ShotResult, StateVector, compile_circuit, expectation, run, sample
from .tapering import auto_sector, find_z2_symmetries, taper
from .validation import (
    ValidationCriteria,
    accept_results,
    exact_evolution,
    exact_ground_energy,
)
from .workflow import (
    QuantumSimulationWorkflow,
    WorkflowResult,
    get_workflow,
    list_workflows,
    register_workflow,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "CostFunctionEvaluator",
    "EvaluatorConfig",
    "Gate",
    "HeisenbergParams",
    "ModelBuilder",
    "OptResult",
    "Param",
    "PauliRotation",
    "PauliOperator",
    "PauliString",
    "Program",
    "QuantumSimulationModel",
    "QuantumSimulationWorkflow",
    "ShotResult",
    "StateVector",
    "ValidationCriteria",
    "WorkflowResult",
    "X",
    "Y",
    "Z",
    "accept_results",
    "auto_sector",
    "cancel_adjacent_inverses",
    "commutator",
    "compile_circuit",
    "create_from_parts",
    "create_heisenberg",
    "create_model",
    "create_optimizer",
    "create_star_maxcut",
    "create_tfim",
    "evaluate",
    "exact_evolution",
    "exact_ground_energy",
    "expectation",
    "exp_pauli",
    "find_z2_symmetries",
    "get_workflow",
    "hardware_efficient",
    "list_workflows",
    "load_h2_hamiltonian",
    "nelder_mead_minimize",
    "parse",
    "qaoa_ansatz",
    "register_workflow",
    "run",
    "rx_ry",
    "sample",
    "spsa_minimize",
    "symmetric_trotter_step",
    "taper",
    "trotter_step",
]
