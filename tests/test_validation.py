import numpy as np
import pytest

from quasimo.ansatz import trotter_step
from quasimo.circuit import Circuit, h
from quasimo.model import HeisenbergParams, create_heisenberg, staggered_magnetization
from quasimo.pauli import TooManyQubitsError, X, Z, parse
from quasimo.simulator import StateVector, expectation, run
from quasimo.validation import (
    AlwaysAcceptValidationModel,
    CriteriaValidationModel,
    MissingKeyError,
    ValidationCriteria,
    accept_results,
    distance,
    exact_evolution,
    exact_ground_energy,
)


def test_exact_ground_energy_tfim3():
    hamiltonian = -(Z(0) * Z(1) + Z(1) * Z(2) + X(0) + X(1) + X(2))
    assert exact_ground_energy(hamiltonian) == pytest.approx(-3.49396, abs=1e-4)


def test_exact_ground_energy_reduced_h2():
    op = parse("-0.328717 + 0.181289*X(0) - 0.787967*Z(0)")
    # 6-digit coefficients reproduce the published 11-digit energy to ~3e-7.
    assert exact_ground_energy(op) == pytest.approx(-1.13727017466, abs=5e-7)


def test_exact_ground_energy_single_z():
    assert exact_ground_energy(Z(0)) == pytest.approx(-1.0)


def test_exact_ground_energy_scales_linearly():
    hamiltonian = X(0) * X(1) + 0.5 * Z(0)
    base = exact_ground_energy(hamiltonian)
    for alpha in (0.5, 2.0, 7.25):
        assert exact_ground_energy(alpha * hamiltonian) == pytest.approx(alpha * base)


def test_exact_evolution_zero_time_is_identity(rng):
    from conftest import random_state

    state = StateVector(3, random_state(3, rng))
    evolved = exact_evolution(X(0) + Z(1), state, 0.0)
    assert np.allclose(evolved.amplitudes, state.amplitudes, atol=1e-12)


def test_exact_evolution_z_rotation_closed_form():
    plus = run(Circuit(1, (h(0),)))
    for t in (0.1, 0.7, 2.0):
        evolved = exact_evolution(Z(0), plus, t)
        assert expectation(evolved, X(0)) == pytest.approx(np.cos(2 * t), abs=1e-12)


def test_exact_evolution_qubit_cap():
    with pytest.raises(TooManyQubitsError):
        exact_evolution(Z(0), StateVector.zero(11), 0.1)


def test_trotter_series_tracks_exact_evolution():
    # N=5, g=0 quench: RMSE of the staggered magnetization over 40 steps.
    params = HeisenbergParams(jz=0.0, num_spins=5, initial_spins=[0, 1, 0, 1, 0])
    model = create_heisenberg(params)
    dt, steps = 0.05, 40
    observable = staggered_magnetization(5)
    step = trotter_step(model.hamiltonian, dt, 5)
    state = run(model.state_prep)
    initial = state.copy()
    trotter_values = [expectation(state, observable)]
    for _ in range(steps):
        state = run(step, state)
        trotter_values.append(expectation(state, observable))
    exact_values = [
        expectation(exact_evolution(model.hamiltonian, initial, dt * k), observable)
        for k in range(steps + 1)
    ]
    rmse = np.sqrt(np.mean((np.array(trotter_values) - np.array(exact_values)) ** 2))
    assert rmse < 0.05


def test_accept_results_energy_abs_diff():
    criteria = ValidationCriteria("abs-diff", 1e-3, reference=-1.13727)
    accepted, measured = accept_results({"energy": -1.1372}, criteria)
    assert accepted
    assert measured == pytest.approx(7e-5, abs=1e-6)


def test_accept_results_identical_series_rmse():
    series = [0.0, 0.5, 1.0]
    criteria = ValidationCriteria("rmse", 1e-9, reference=series, key="exp-vals")
    accepted, measured = accept_results({"exp-vals": list(series)}, criteria)
    assert accepted and measured == 0.0


def test_rmse_of_empty_series_is_refused():
    # np.mean of an empty array warns and returns NaN, which no threshold accepts.
    with pytest.raises(ValueError, match="value and reference are both empty"):
        distance("rmse", [], [])
    criteria = ValidationCriteria("rmse", 1.0, reference=[], key="exp-vals")
    with pytest.raises(ValueError, match="both empty"):
        accept_results({"exp-vals": []}, criteria)


def test_zero_threshold_rejected():
    with pytest.raises(ValueError):
        ValidationCriteria("abs-diff", 0.0, reference=1.0)


def test_accept_results_missing_key():
    criteria = ValidationCriteria("abs-diff", 1.0, reference=0.0, key="energy")
    with pytest.raises(MissingKeyError):
        accept_results({"exp-vals": [1.0]}, criteria)


def test_acceptance_monotone_in_threshold():
    result = {"energy": -1.0}
    for threshold in (0.05, 0.1, 1.0):
        accepted, _ = accept_results(
            result, ValidationCriteria("abs-diff", threshold, reference=-1.04)
        )
        assert accepted == (threshold >= 0.04)


def test_validation_model_implementations():
    criteria = ValidationCriteria("abs-diff", 1e-2, reference=2.0)
    model = CriteriaValidationModel(criteria)
    assert model.accept_results({"energy": 2.005}) == (True, pytest.approx(0.005))
    assert AlwaysAcceptValidationModel().accept_results({}) == (True, 0.0)
