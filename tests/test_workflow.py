import numpy as np
import pytest

from quasimo import simulator
from quasimo import workflow as workflow_mod
from quasimo.ansatz import qaoa_ansatz, rx_ry
from quasimo.circuit import Circuit, Gate, PauliRotation, cancel_adjacent_inverses, h
from quasimo.costfn import EvaluatorConfig, evaluate
from quasimo.model import (
    HeisenbergParams,
    QuantumSimulationModel,
    bits_prep,
    create_from_parts,
    create_heisenberg,
    create_model,
    create_star_maxcut,
    create_tfim,
)
from quasimo.optimizer import Optimizer, create_optimizer, nelder_mead_minimize
from quasimo.pauli import PauliOperator, TooManyQubitsError, X, Z, parse
from quasimo.simulator import apply_operator, apply_pauli_string, pauli_rows
from quasimo.validation import CriteriaValidationModel, ValidationCriteria, exact_ground_energy
from quasimo.workflow import (
    QITE_REGULARIZATION,
    BadConfigError,
    QiteNormalizationError,
    QiteWorkflow,
    QuantumSimulationWorkflow,
    UnknownWorkflowError,
    WorkflowResult,
    _full_pauli_basis,
    get_workflow,
    list_workflows,
    register_circuit_optimizer,
    register_workflow,
)

from conftest import random_hermitian, random_state


def neel_heisenberg(g, num_spins=9):
    return create_heisenberg(
        HeisenbergParams(
            jz=g,
            num_spins=num_spins,
            initial_spins=[i % 2 for i in range(num_spins)],
        )
    )


# -- registry ----------------------------------------------------------------


def test_builtin_registry():
    assert list_workflows() == ["qaoa", "qite", "time-dependent", "vqe"]


def test_get_workflow_qite():
    flow = get_workflow("qite", {"steps": 20, "step-size": 0.45})
    assert flow.name == "qite"
    assert flow.config["steps"] == 20


def test_get_workflow_unknown_name():
    with pytest.raises(UnknownWorkflowError):
        get_workflow("nope", {})


def test_register_custom_workflow_round_trips():
    class EchoWorkflow(QuantumSimulationWorkflow):
        name = "echo"
        allowed_keys = frozenset({"value"})

        def execute(self, model):
            return WorkflowResult({"energy": self.config.get("value", 0.0)})

    register_workflow("echo", EchoWorkflow)
    try:
        assert "echo" in list_workflows()
        result = get_workflow("echo", {"value": 4.0}).execute(None)
        assert result["energy"] == 4.0
    finally:
        from quasimo.workflow import _REGISTRY

        del _REGISTRY["echo"]


def test_unknown_config_key_names_the_key():
    with pytest.raises(BadConfigError, match="bogus"):
        get_workflow("qite", {"steps": 5, "step-size": 0.4, "bogus": 1})


def test_missing_required_key():
    with pytest.raises(BadConfigError, match="step-size"):
        get_workflow("qite", {"steps": 5})


# -- time-dependent ------------------------------------------------------------


def test_time_dependent_nine_spin_early_steps():
    flow = get_workflow("time-dependent", {"dt": 0.05, "steps": 2})
    values = flow.execute(neel_heisenberg(0.0))["exp-vals"]
    assert values[0] == pytest.approx(1.0, abs=1e-12)
    assert values[1] == pytest.approx(0.964846, abs=5e-3)


def test_time_dependent_g4_step_two():
    flow = get_workflow("time-dependent", {"dt": 0.05, "steps": 2})
    values = flow.execute(neel_heisenberg(4.0))["exp-vals"]
    assert values[2] == pytest.approx(0.88355, abs=1e-2)


def test_time_dependent_zero_steps():
    flow = get_workflow("time-dependent", {"dt": 0.05, "steps": 0})
    result = flow.execute(neel_heisenberg(1.0, num_spins=4))
    assert result["exp-vals"] == [pytest.approx(1.0, abs=1e-12)]


def test_time_dependent_zero_hamiltonian_is_constant():
    model = QuantumSimulationModel(
        observable=Z(0) * Z(1),
        hamiltonian=PauliOperator.zero(),
        state_prep=bits_prep([1, 0]),
    )
    flow = get_workflow("time-dependent", {"dt": 0.1, "steps": 5})
    values = flow.execute(model)["exp-vals"]
    assert values == [pytest.approx(-1.0)] * 6


def test_time_dependent_tolerates_missing_state_prep():
    model = QuantumSimulationModel(observable=Z(0), hamiltonian=X(0))
    flow = get_workflow("time-dependent", {"dt": 0.1, "steps": 1})
    values = flow.execute(model)["exp-vals"]
    assert values[0] == pytest.approx(1.0)


def test_time_dependent_first_order_option():
    flow = get_workflow("time-dependent", {"dt": 0.05, "steps": 1, "trotter-order": 1})
    values = flow.execute(neel_heisenberg(0.0, num_spins=5))["exp-vals"]
    assert len(values) == 2


def test_time_dependent_config_validation():
    with pytest.raises(BadConfigError, match="dt"):
        get_workflow("time-dependent", {"dt": 0.0, "steps": 5})


# -- vqe -----------------------------------------------------------------------


def test_vqe_reduced_h2_nelder_mead():
    op = parse("-0.328717 + 0.181289*X(0) - 0.787967*Z(0)")
    model = create_from_parts(rx_ry(), op)
    flow = get_workflow("vqe", {"optimizer": "nelder-mead", "budget": 200})
    result = flow.execute(model)
    assert result["energy"] == pytest.approx(-1.13727017466, abs=1e-4)
    assert result["evaluations"] < 200
    assert len(result["opt-params"]) == 2


def test_vqe_constant_observable():
    model = create_from_parts(rx_ry(), PauliOperator.identity(2.0))
    flow = get_workflow("vqe", {"optimizer": "nelder-mead", "budget": 50})
    assert flow.execute(model)["energy"] == pytest.approx(2.0)


def test_vqe_requires_optimizer():
    with pytest.raises(BadConfigError, match="optimizer"):
        get_workflow("vqe", {})


def test_vqe_requires_parameterized_ansatz():
    model = create_from_parts(Circuit(1), Z(0))
    flow = get_workflow("vqe", {"optimizer": "nelder-mead"})
    with pytest.raises(ValueError):
        flow.execute(model)


def test_vqe_energy_respects_variational_bound():
    op = parse("-0.328717 + 0.181289*X(0) - 0.787967*Z(0)")
    model = create_from_parts(rx_ry(), op)
    flow = get_workflow("vqe", {"optimizer": "nelder-mead", "budget": 120})
    result = flow.execute(model)
    assert result["energy"] >= exact_ground_energy(op) - 1e-9


def test_vqe_accepts_optimizer_instance():
    op = parse("0.787967*Z(0)")
    model = create_from_parts(rx_ry(), op)
    flow = get_workflow(
        "vqe",
        {"optimizer": create_optimizer("nelder-mead", {"budget": 150, "tolerance": 1e-12})},
    )
    assert flow.execute(model)["energy"] == pytest.approx(-0.787967, abs=1e-4)


@pytest.mark.parametrize("key", ["budget", "tolerance", "perturbation", "stability"])
def test_optimizer_option_beside_an_instance_names_the_key(key):
    with pytest.raises(BadConfigError, match=f"'{key}'"):
        get_workflow("vqe", {"optimizer": create_optimizer("spsa", {"budget": 30}), key: 5})


def test_vqe_initial_params_convert_at_initialize():
    model = create_from_parts(rx_ry(), parse("0.3*X(0) - 0.8*Z(0)"))
    config = {"optimizer": "nelder-mead", "budget": 30}
    strings = get_workflow("vqe", {**config, "initial-params": ["0.1", 0.2]})
    numbers = get_workflow("vqe", {**config, "initial-params": [0.1, 0.2]})
    assert strings.execute(model) == numbers.execute(model)
    # A bare number is a one-entry vector; the length is checked against the model.
    bare = get_workflow("vqe", {**config, "initial-params": 0.3})
    with pytest.raises(BadConfigError, match="'initial-params' has 1 entries, model needs 2"):
        bare.execute(model)


# -- qaoa ----------------------------------------------------------------------


def test_qaoa_two_qubit_matches_grid_search_oracle():
    model = create_star_maxcut(2)
    circuit = qaoa_ansatz(model.hamiltonian, 1, 2)
    cfg = EvaluatorConfig()
    grid = np.linspace(0.0, np.pi, 121)  # pi/120 step keeps pi/2, pi/8 on-grid
    oracle = min(
        evaluate(circuit.bind_parameters([g, b]), model.observable, cfg)
        for g in grid
        for b in grid
    )
    assert oracle == pytest.approx(-1.0, abs=1e-3)
    flow = get_workflow(
        "qaoa", {"steps": 1, "optimizer": "nelder-mead", "starts": 10, "seed": 3}
    )
    result = flow.execute(model)
    assert result["energy"] == pytest.approx(-1.0, abs=1e-3)
    assert result["energy"] >= exact_ground_energy(model.hamiltonian) - 1e-9


def test_qaoa_star5_reaches_ground_energy():
    flow = get_workflow(
        "qaoa",
        {"steps": 2, "optimizer": "nelder-mead", "starts": 10, "seed": 7, "budget": 400},
    )
    result = flow.execute(create_star_maxcut(5))
    assert result["energy"] == pytest.approx(-4.0, abs=1e-2)


def test_qaoa_from_zero_angles_never_worse_than_superposition():
    model = create_star_maxcut(2)
    circuit = qaoa_ansatz(model.hamiltonian, 1, 2)
    cfg = EvaluatorConfig()

    def objective(angles):
        return evaluate(circuit.bind_parameters(angles), model.observable, cfg)

    result = nelder_mead_minimize(objective, np.zeros(2), budget=100)
    assert result.best_value <= -0.5


def test_qaoa_requires_optimizer_and_steps():
    with pytest.raises(BadConfigError):
        get_workflow("qaoa", {"steps": 2})
    with pytest.raises(BadConfigError, match="steps"):
        get_workflow("qaoa", {"optimizer": "nelder-mead"})


# -- qite ----------------------------------------------------------------------


def test_qite_tfim_from_zero_state():
    model = create_model("tfim", {"num_spins": 3, "initial-state": "000"})
    flow = get_workflow("qite", {"steps": 20, "step-size": 0.45})
    result = flow.execute(model)
    values = result["exp-vals"]
    assert len(values) == 21
    assert values[0] == pytest.approx(-2.0, abs=1e-12)
    assert values[-1] == pytest.approx(-3.49396, abs=1e-2)
    assert result["energy"] == values[-1]
    assert result["final-circuit-stats"]["total"] > 0


def test_qite_100_first_step_energy():
    model = create_model("tfim", {"num_spins": 3, "initial-state": "100"})
    flow = get_workflow("qite", {"steps": 2, "step-size": 0.45})
    values = flow.execute(model)["exp-vals"]
    assert values[0] == pytest.approx(0.0, abs=1e-12)
    assert values[1] == pytest.approx(-1.81, abs=0.15)


def test_qite_eigenstate_is_a_fixed_point():
    # |+> is the exact ground state of -X0.
    model = QuantumSimulationModel(observable=-X(0), state_prep=Circuit(1, (h(0),)))
    flow = get_workflow("qite", {"steps": 10, "step-size": 0.45})
    values = flow.execute(model)["exp-vals"]
    assert np.allclose(values, -1.0, atol=1e-6)


def test_qite_energies_non_increasing():
    model = create_model("tfim", {"num_spins": 3, "initial-state": "110"})
    flow = get_workflow("qite", {"steps": 20, "step-size": 0.45})
    values = np.array(flow.execute(model)["exp-vals"])
    assert np.max(np.diff(values)) < 1e-3


def test_qite_qubit_cap():
    model = create_tfim(-1.0, -1.0, 6)
    flow = get_workflow("qite", {"steps": 1, "step-size": 0.45})
    with pytest.raises(TooManyQubitsError):
        flow.execute(model)


def test_qite_circuit_optimizer_pass_shrinks_circuit():
    model = create_model("tfim", {"num_spins": 3, "initial-state": "000"})
    plain = get_workflow("qite", {"steps": 4, "step-size": 0.45}).execute(model)
    optimized = get_workflow(
        "qite", {"steps": 4, "step-size": 0.45, "circuit-optimizer": "cancel-inverses"}
    ).execute(model)
    assert optimized["final-circuit-stats"]["total"] < plain["final-circuit-stats"]["total"]
    assert optimized["exp-vals"] == pytest.approx(plain["exp-vals"], abs=1e-10)


def dense_qite_system(amps, hamiltonian, basis, dbeta, n):
    """A QITE step's linear system written out densely: the matrix
    (S + S^T).real + lambda*I with S_IJ = <P_I psi|P_J psi>, its right-hand
    side 2*Im<P_I psi|H psi>/sqrt(c), the rows P_I psi from the kernel, and
    the LU solution."""
    rotated = np.stack([apply_pauli_string(amps, p, n) for p in basis])
    overlap = rotated.conj() @ rotated.T
    h_amps = apply_operator(amps, hamiltonian, n)
    norm_factor = 1.0 - 2.0 * dbeta * np.vdot(amps, h_amps).real
    matrix = (overlap + overlap.T).real + QITE_REGULARIZATION * np.eye(len(basis))
    rhs = 2.0 * np.imag(rotated.conj() @ h_amps) / np.sqrt(norm_factor)
    return matrix, rhs, rotated, np.linalg.solve(matrix, rhs)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_qite_closed_form_step_solves_the_dense_system(n):
    rng = np.random.default_rng(n)
    basis = _full_pauli_basis(n)
    rows = pauli_rows(basis, n)
    for _ in range(3):
        amps = random_state(n, rng)
        hamiltonian = random_hermitian(n, 6, rng)
        dbeta = 0.01
        matrix, rhs, rotated, solved = dense_qite_system(amps, hamiltonian, basis, dbeta, n)
        closed = QiteWorkflow._solve_step(amps, hamiltonian, rows, dbeta, n)
        # Both residuals measure at most 1.4e-15 over n = 1..5 in double precision.
        for coeffs in (solved, closed):
            residual = np.linalg.norm(matrix @ coeffs - rhs) / np.linalg.norm(rhs)
            assert residual < 1e-14
        # The two solutions may differ along the matrix's null space, which the
        # generator sum_I a_I P_I psi does not see.
        assert np.max(np.abs(closed @ rotated - solved @ rotated)) < 1e-12


def test_qite_unknown_circuit_optimizer():
    with pytest.raises(BadConfigError, match="circuit-optimizer"):
        get_workflow("qite", {"steps": 1, "step-size": 0.45, "circuit-optimizer": "minify"})


def test_registered_circuit_optimizer_runs_once_per_qite_step(monkeypatch):
    registry = dict(workflow_mod._CIRCUIT_OPTIMIZERS)
    monkeypatch.setattr(workflow_mod, "_CIRCUIT_OPTIMIZERS", registry)
    inputs, outputs = [], []

    def recording_pass(circuit):
        inputs.append(circuit)
        outputs.append(cancel_adjacent_inverses(circuit))
        return outputs[-1]

    register_circuit_optimizer("recording", recording_pass)
    model = create_model("tfim", {"num_spins": 3, "initial-state": "000"})
    result = get_workflow(
        "qite", {"steps": 3, "step-size": 0.45, "circuit-optimizer": "recording"}
    ).execute(model)
    assert len(inputs) == 3
    # Each step's pass sees the previous pass's output with the new chunk appended.
    for before, after in zip(outputs, inputs[1:]):
        assert after.ops[: len(before.ops)] == before.ops
    assert result["final-circuit-stats"] == outputs[-1].gate_counts()


# -- cross-cutting ---------------------------------------------------------------


def test_workflows_deterministic_under_fixed_seed():
    model = create_star_maxcut(3)
    config = {"steps": 1, "optimizer": "nelder-mead", "starts": 3, "seed": 5}
    first = get_workflow("qaoa", config).execute(model)
    second = get_workflow("qaoa", config).execute(model)
    assert first == second


def test_tomography_evaluator_via_shots_config():
    model = neel_heisenberg(0.0, num_spins=3)
    config = {"dt": 0.05, "steps": 1, "shots": 2048, "seed": 9}
    first = get_workflow("time-dependent", config).execute(model)
    second = get_workflow("time-dependent", config).execute(model)
    assert first["exp-vals"] == second["exp-vals"]
    assert first["exp-vals"][0] == pytest.approx(1.0, abs=1e-12)


def test_workflow_validate_delegates():
    flow = get_workflow("time-dependent", {"dt": 0.1, "steps": 0})
    result = flow.execute(neel_heisenberg(1.0, num_spins=4))
    criteria = ValidationCriteria("rmse", 1e-6, reference=[1.0], key="exp-vals")
    accepted, measured = flow.validate(result, CriteriaValidationModel(criteria))
    assert accepted
    assert measured == pytest.approx(0.0, abs=1e-10)


# -- work accounting and numerical guards ---------------------------------------


class CountingOptimizer(Optimizer):
    """Records each minimize call's evaluation count."""

    def __init__(self, name, options=None):
        super().__init__(name, options)
        self.per_start = []

    def minimize(self, f, x0):
        result = super().minimize(f, x0)
        self.per_start.append(result.evaluations_used)
        return result


def test_qaoa_evaluations_total_all_starts():
    optimizer = CountingOptimizer("nelder-mead", {"budget": 60})
    flow = get_workflow("qaoa", {"steps": 1, "optimizer": optimizer, "starts": 4, "seed": 3})
    result = flow.execute(create_star_maxcut(3))
    assert len(optimizer.per_start) == 4
    assert result["evaluations"] == sum(optimizer.per_start)
    assert result["evaluations"] > max(optimizer.per_start)


def inline_minimize(optimizer, circuit, observable, cfg, starts):
    """The variational loop written out: one objective, each start in order,
    the earliest best start kept, evaluations summed."""

    def objective(theta):
        return evaluate(circuit.bind_parameters(theta), observable, cfg)

    best, evaluations = None, 0
    for x0 in starts:
        opt = optimizer.minimize(objective, x0)
        evaluations += opt.evaluations_used
        if best is None or opt.best_value < best.best_value:
            best = opt
    return {
        "energy": best.best_value,
        "opt-params": list(best.best_params),
        "trace": best.trace,
        "evaluations": evaluations,
    }


def test_qaoa_and_vqe_match_the_inline_loop():
    model = create_star_maxcut(4)
    flow = get_workflow(
        "qaoa", {"steps": 1, "optimizer": "nelder-mead", "starts": 3, "seed": 6, "budget": 80}
    )
    starts = [np.random.default_rng([6, s]).uniform(0.0, 2 * np.pi, size=2) for s in range(3)]
    expected = inline_minimize(
        create_optimizer("nelder-mead", {"budget": 80, "seed": 6}),
        qaoa_ansatz(model.hamiltonian, 1, 4),
        model.observable,
        EvaluatorConfig(),
        starts,
    )
    assert flow.execute(model) == expected

    model = create_model("h2", {})
    x0 = np.linspace(-0.2, 0.2, model.num_params)
    flow = get_workflow(
        "vqe",
        {
            "optimizer": "spsa",
            "budget": 90,
            "seed": 4,
            "shots": 500,
            "initial-params": x0.tolist(),
        },
    )
    expected = inline_minimize(
        create_optimizer("spsa", {"budget": 90, "seed": 4}),
        model.state_prep,
        model.observable,
        EvaluatorConfig(500, 4),
        [x0],
    )
    assert flow.execute(model) == expected


class ConstructionCountingOptimizer(Optimizer):
    """Records how many objects (Circuits, ops or kernel plans) each
    objective call constructs, as counted into ``built``."""

    def __init__(self, name, options, built):
        super().__init__(name, options)
        self.built, self.per_call = built, []

    def minimize(self, f, x0):
        def counted(x):
            before = len(self.built)
            value = f(x)
            self.per_call.append(len(self.built) - before)
            return value

        return super().minimize(counted, x0)


@pytest.mark.parametrize("case", ["qaoa", "vqe-sampled"])
def test_objective_calls_after_the_first_construct_no_circuit_or_op(case, monkeypatch):
    built = []
    for cls in (Circuit, Gate, PauliRotation):
        init = cls.__dict__["__post_init__"]

        def counted(self, init=init, cls=cls):
            built.append(cls)
            init(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    if case == "qaoa":
        model = create_star_maxcut(5)
        optimizer = ConstructionCountingOptimizer("nelder-mead", {"budget": 40}, built)
        config = {"steps": 2, "optimizer": optimizer, "starts": 2}
    else:
        model = create_model("h2", {})
        optimizer = ConstructionCountingOptimizer("spsa", {"budget": 100}, built)
        config = {"optimizer": optimizer, "shots": 100}
    result = get_workflow(case.split("-")[0], config).execute(model)
    assert len(optimizer.per_call) == result["evaluations"] > 1
    assert optimizer.per_call[1:] == [0] * (len(optimizer.per_call) - 1)


@pytest.mark.parametrize("case", ["qaoa", "vqe-sampled"])
def test_objective_calls_after_the_first_build_no_kernel_plan_or_tensor_index(case, monkeypatch):
    # The compiled ansatz holds every rotation step's plan, strided or row,
    # and the observable's compiled form (built by the first call) its
    # gathers'.  A gate left unfused, such as the fifth H of a 5-node QAOA,
    # still plans per call; on 8 nodes every H is in a fused block.
    built = []
    for name in ("_pauli_plan", "_row_plan", "_tensor_index"):
        function = getattr(simulator, name)

        def counted(*args, function=function, name=name, **kwargs):
            built.append(name)
            return function(*args, **kwargs)

        monkeypatch.setattr(simulator, name, counted)
    if case == "qaoa":
        model = create_star_maxcut(8)
        optimizer = ConstructionCountingOptimizer("nelder-mead", {"budget": 40}, built)
        config = {"steps": 3, "optimizer": optimizer, "starts": 2}
    else:
        model = create_model("h2", {})
        optimizer = ConstructionCountingOptimizer("spsa", {"budget": 100}, built)
        config = {"optimizer": optimizer, "shots": 100}
    result = get_workflow(case.split("-")[0], config).execute(model)
    assert "_row_plan" in built  # compiling the ansatz built its plans
    assert len(optimizer.per_call) == result["evaluations"] > 1
    assert optimizer.per_call[1:] == [0] * (len(optimizer.per_call) - 1)


@pytest.mark.parametrize("name", ["time-dependent", "qite"])
def test_a_parameterised_model_is_refused_by_check_model(name):
    config = {"dt": 0.1, "steps": 1} if name == "time-dependent" else {"steps": 1, "step-size": 0.1}
    flow = get_workflow(name, config)
    model = create_model("h2", {})
    for check in (flow.check_model, flow.execute):
        with pytest.raises(ValueError, match="8 parameter"):
            check(model)


def test_qite_rejects_non_positive_norm_factor():
    # |000> has <H> = +2 under Jz = hx = +1, so 1 - 2*0.45*2 = -0.8.
    model = create_model("tfim", {"Jz": 1.0, "hx": 1.0, "num_spins": 3, "initial-state": "000"})
    flow = get_workflow("qite", {"steps": 1, "step-size": 0.45})
    with pytest.raises(QiteNormalizationError, match=r"step-size.*<H> = 2\.0"):
        flow.execute(model)
