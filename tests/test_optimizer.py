import numpy as np
import pytest

from quasimo import parse
from quasimo.ansatz import rx_ry
from quasimo.costfn import EvaluatorConfig, evaluate
from quasimo.optimizer import (
    BudgetTooSmallError,
    NonFiniteObjectiveError,
    Optimizer,
    Trace,
    create_optimizer,
    nelder_mead_minimize,
    spsa_minimize,
)
from quasimo.validation import exact_ground_energy


def quadratic(x):
    return float((x[0] - 1.0) ** 2)


def reduced_h2_objective():
    op = parse("-0.328717 + 0.181289*X(0) - 0.787967*Z(0)")
    circuit = rx_ry()
    cfg = EvaluatorConfig()

    def objective(theta):
        return evaluate(circuit.bind_parameters(theta), op, cfg)

    return objective, exact_ground_energy(op)


def test_spsa_converges_on_1d_quadratic():
    result = spsa_minimize(quadratic, np.zeros(1), budget=200, seed=3)
    assert result.best_value < 1e-3


def test_spsa_reduced_h2_within_1e2():
    objective, exact = reduced_h2_objective()
    result = spsa_minimize(objective, np.zeros(2), budget=200, seed=0)
    assert abs(result.best_value - exact) < 1e-2


def test_spsa_never_worse_than_start():
    result = spsa_minimize(quadratic, np.ones(1), budget=200, seed=5)
    assert result.best_value <= quadratic(np.ones(1))


def test_spsa_bit_reproducible():
    a = spsa_minimize(quadratic, np.zeros(1), budget=120, seed=11)
    b = spsa_minimize(quadratic, np.zeros(1), budget=120, seed=11)
    assert a.trace == b.trace
    assert a.best_value == b.best_value
    assert np.array_equal(a.best_params, b.best_params)


def test_spsa_budget_too_small():
    with pytest.raises(BudgetTooSmallError):
        spsa_minimize(quadratic, np.zeros(1), budget=20, seed=0)


def test_nelder_mead_2d_quadratic():
    result = nelder_mead_minimize(
        lambda x: float(x[0] ** 2 + x[1] ** 2), np.array([1.0, 1.0]), budget=200
    )
    assert result.best_value < 1e-6
    assert result.evaluations_used <= 200


def test_nelder_mead_cosine_landscape():
    # <Ry(theta) 0| 0.787967*Z |Ry(theta) 0> = 0.787967*cos(theta); the
    # value spread near the flat minimum must be tighter than the wanted
    # 1e-4 parameter accuracy (0.39 * (1e-4)^2).
    objective = lambda x: float(0.787967 * np.cos(x[0]))
    result = nelder_mead_minimize(objective, np.array([2.0]), budget=300, tolerance=1e-12)
    assert result.best_params[0] == pytest.approx(np.pi, abs=1e-4)
    assert result.best_value == pytest.approx(-0.787967, abs=1e-9)


def test_nelder_mead_budget_one_returns_start():
    result = nelder_mead_minimize(quadratic, np.array([0.3]), budget=1)
    assert result.best_value == quadratic(np.array([0.3]))
    assert result.evaluations_used == 1


def test_nelder_mead_budget_too_small():
    with pytest.raises(BudgetTooSmallError):
        nelder_mead_minimize(quadratic, np.array([0.3]), budget=0)


@pytest.mark.parametrize("name", ["spsa", "nelder-mead"])
def test_best_value_is_min_of_trace(name):
    opt = create_optimizer(name, {"budget": 150, "seed": 2})
    result = opt.minimize(quadratic, np.array([3.0]))
    values = [v for _, v in result.trace]
    assert result.best_value == min(values)
    assert result.evaluations_used == len(values) <= 150


@pytest.mark.parametrize("name", ["spsa", "nelder-mead"])
def test_both_reach_1q_landscape_minimum(name):
    objective, exact = reduced_h2_objective()
    opt = create_optimizer(name, {"budget": 200, "seed": 1})
    result = opt.minimize(objective, np.zeros(2))
    assert abs(result.best_value - exact) < 1e-2


def test_unknown_optimizer_name():
    with pytest.raises(ValueError):
        create_optimizer("adam")


def test_unknown_option_key_names_the_key():
    with pytest.raises(ValueError, match="'budgte'"):
        create_optimizer("spsa", {"budgte": 10})


@pytest.mark.parametrize(
    "name, options, key",
    [
        ("spsa", {"tolerance": 5.0}, "tolerance"),
        ("nelder-mead", {"perturbation": 5.0, "stability": 3}, "perturbation"),
        ("nelder-mead", {"stability": 3}, "stability"),
    ],
)
def test_an_option_the_method_does_not_read_names_the_key(name, options, key):
    with pytest.raises(ValueError, match=f"'{key}'"):
        create_optimizer(name, options)


@pytest.mark.parametrize("name", ["spsa", "nelder-mead"])
def test_a_negative_seed_names_the_key(name):
    with pytest.raises(ValueError, match="'seed'"):
        Optimizer(name, {"seed": -1})


def test_every_method_takes_a_budget_and_a_seed():
    # A workflow hands its seed to every optimizer; Nelder-Mead draws nothing.
    for name in ("spsa", "nelder-mead"):
        opt = create_optimizer(name, {"budget": 60, "seed": 3})
        assert (opt.name, opt.budget, opt.seed) == (name, 60, 3)
    runs = [create_optimizer("nelder-mead", {"seed": s}).minimize(quadratic, [0.0]) for s in (1, 2)]
    assert runs[0].trace == runs[1].trace


@pytest.mark.parametrize("name", ["spsa", "nelder-mead"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_objective_raises_naming_the_evaluation(name, bad):
    calls = []

    def objective(x):
        calls.append(x)
        return bad if len(calls) == 4 else quadratic(x)

    opt = create_optimizer(name, {"budget": 150, "seed": 2})
    with pytest.raises(NonFiniteObjectiveError, match=rf"evaluation 3 returned {bad!r}"):
        opt.minimize(objective, np.array([3.0]))


@pytest.mark.parametrize("name", ["spsa", "nelder-mead"])
def test_nan_start_raises_at_the_first_evaluation(name):
    # Binding the start's angles refuses the NaN, naming its slot; on an
    # objective that returns the NaN, the optimizer names the evaluation.
    objective, _ = reduced_h2_objective()
    calls = []
    opt = create_optimizer(name, {"budget": 200, "seed": 1})
    with pytest.raises(ValueError, match="parameter slot 0 needs a finite number, got nan"):
        opt.minimize(lambda x: calls.append(x) or objective(x), np.array([np.nan, 0.0]))
    assert len(calls) == 1
    with pytest.raises(NonFiniteObjectiveError, match="evaluation 0 returned nan"):
        opt.minimize(lambda x: float(np.sum(x)), np.array([np.nan, 0.0]))


def test_trace_reads_as_index_value_pairs():
    result = nelder_mead_minimize(quadratic, np.array([0.3]), budget=12)
    trace = result.trace
    assert len(trace) == result.evaluations_used == 12
    assert trace.values.typecode == "d"  # one array of doubles, 8 bytes per evaluation
    pairs = list(trace)
    assert all(type(k) is int and type(v) is float for k, v in pairs)
    assert [k for k, _ in pairs] == list(range(12))
    assert pairs[0] == (0, quadratic(np.array([0.3])))
    assert trace[-1] == (11, pairs[-1][1]) and trace[-12] == pairs[0]
    assert trace[2:4] == pairs[2:4]
    with pytest.raises(IndexError):
        trace[12]
    assert trace == Trace(v for _, v in pairs) and trace == pairs
    assert trace != Trace(v for _, v in pairs[:-1]) and trace != pairs[1:]
    assert min(v for _, v in trace) == result.best_value

