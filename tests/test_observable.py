"""Compiled observables: ``expectation`` against the dense quadratic form and
the term-by-term kernel sum.

``expectation`` reads every Z-only term (the constant included) from one
memoised real diagonal and runs only the X/Y-bearing terms through the
kernel; the oracles here apply every term on its own.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasimo import simulator
from quasimo.ansatz import symmetric_trotter_step, trotter_step
from quasimo.costfn import EvaluatorConfig, evaluate_state
from quasimo.model import create_model, staggered_magnetization
from quasimo.pauli import PauliOperator, PauliString
from quasimo.simulator import StateVector, expectation, run
from quasimo.workflow import get_workflow

from conftest import random_state

coefficients = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def operators(draw, n):
    """A constant plus Z-only, Y-bearing and arbitrary terms on n qubits."""
    full = (1 << n) - 1
    masks = st.integers(1, full)
    terms = {PauliString(): draw(coefficients)}
    for _ in range(draw(st.integers(0, 6))):
        terms[PauliString.from_masks(0, draw(masks))] = draw(coefficients)
    for _ in range(draw(st.integers(0, 4))):
        x = draw(masks)
        y = x & draw(masks) or x  # the Y factors, at least one
        z = y | (draw(st.integers(0, full)) & ~x)
        terms[PauliString.from_masks(x, z)] = draw(coefficients)
    for _ in range(draw(st.integers(0, 4))):
        terms[PauliString.from_masks(draw(st.integers(0, full)), draw(st.integers(0, full)))] = (
            draw(coefficients)
        )
    return PauliOperator(terms)


def _dense(op, amps, n):
    return float(np.real(np.vdot(amps, op.to_matrix(n) @ amps)))


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_expectation_matches_the_dense_form_across_widths(data, n, seed):
    op = data.draw(operators(n))
    unmeasured = PauliOperator(op.terms())
    before = (repr(op), hash(op), op.terms())
    rng = np.random.default_rng(seed)
    # n, then n + 2, then n again: the memo is replaced each time.
    for width in (n, n + 2, n):
        amps = random_state(width, rng)
        value = expectation(StateVector(width, amps), op)
        assert value == pytest.approx(_dense(op, amps, width), rel=0, abs=1e-12)
        assert op._compiled[0] == width
    assert (repr(op), hash(op), op.terms()) == before
    assert op == unmeasured and unmeasured == op
    diagonal = op._compiled[1]
    assert not diagonal.flags.writeable
    with pytest.raises(ValueError):
        diagonal[0] = 1.0


@pytest.fixture
def pauli_calls(monkeypatch):
    """Counts ``simulator.apply_pauli_string`` calls."""
    calls = []
    kernel = simulator.apply_pauli_string

    def counted(amps, string, n):
        calls.append(string)
        return kernel(amps, string, n)

    monkeypatch.setattr(simulator, "apply_pauli_string", counted)
    return calls


def test_z_only_observable_makes_no_kernel_call(pauli_calls, rng):
    state = StateVector(8, random_state(8, rng))
    observable = staggered_magnetization(8)
    evaluate_state(state, observable, EvaluatorConfig())
    evaluate_state(state, observable, EvaluatorConfig())
    assert pauli_calls == []


def test_heisenberg_energy_makes_one_kernel_call_per_xy_term(pauli_calls, rng):
    hamiltonian = create_model("heisenberg", {"num_spins": 8, "Jz": 0.25}).hamiltonian
    state = StateVector(8, random_state(8, rng))
    xy_terms = [s for s, _ in hamiltonian.terms() if s.x]
    assert 0 < len(xy_terms) < hamiltonian.num_terms
    for _ in range(2):
        pauli_calls.clear()
        evaluate_state(state, hamiltonian, EvaluatorConfig())
        assert pauli_calls == xy_terms


def _term_by_term(state, op):
    amps, n = state.amplitudes, state.num_qubits
    total = sum(c * np.vdot(amps, simulator.apply_pauli_string(amps, s, n)) for s, c in op.terms())
    return float(total.real)


@pytest.mark.parametrize("order", [1, 2])
def test_time_dependent_series_matches_the_term_by_term_sum(order):
    spins = 8
    model = create_model(
        "heisenberg",
        {"num_spins": spins, "Jz": 0.25, "initial_spins": [i % 2 for i in range(spins)]},
    )
    flow = get_workflow("time-dependent", {"dt": 0.05, "steps": 6, "trotter-order": order})
    values = flow.execute(model)["exp-vals"]
    make_step = trotter_step if order == 1 else symmetric_trotter_step
    step = make_step(model.hamiltonian, 0.05, spins)
    state = run(model.state_prep)
    expected = [_term_by_term(state, model.observable)]
    for _ in range(6):
        state = run(step, state)
        expected.append(_term_by_term(state, model.observable))
    assert np.allclose(values, expected, rtol=0, atol=1e-12)
