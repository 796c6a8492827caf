import dataclasses
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasimo.circuit import Circuit, WidthMismatchError, basis_change_gates, h, rx, ry, x
from quasimo.costfn import (
    MAX_SHOTS,
    CostFunctionEvaluator,
    EvaluatorConfig,
    evaluate,
    evaluate_state,
)
from quasimo.model import bits_prep, staggered_magnetization
from quasimo.pauli import PauliOperator, PauliString, X, Y, Z
from quasimo.simulator import NonHermitianError, StateVector, expectation, gate_matrix, run

from conftest import random_circuit, random_hermitian, random_state


def test_exact_x_prep_z_observable():
    assert evaluate(Circuit(1, (x(0),)), Z(0), EvaluatorConfig()) == -1.0


def test_tomography_constant_is_exact():
    cfg = EvaluatorConfig(shots=7, seed=1)
    assert evaluate(Circuit(1), PauliOperator.identity(2.5), cfg) == 2.5


def test_tomography_neel_staggered_magnetization():
    # Parity of a computational basis state is deterministic, so sampling
    # noise vanishes.
    cfg = EvaluatorConfig(shots=8192, seed=3)
    prep = bits_prep([i % 2 for i in range(9)])
    value = evaluate(prep, staggered_magnetization(9), cfg)
    assert value == pytest.approx(1.0, abs=0.02)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_tomography_matches_exact_within_shot_bound(rng):
    shots = 10**5
    within = 0
    for trial in range(20):
        prep = random_circuit(3, 15, rng)
        obs = random_hermitian(3, 5, rng)
        exact = evaluate(prep, obs, EvaluatorConfig())
        estimate = evaluate(prep, obs, EvaluatorConfig(shots=shots, seed=trial))
        bound = 4 * sum(abs(c) for s, c in obs.terms() if not s.is_identity)
        bound /= np.sqrt(shots)
        within += abs(estimate - exact) < bound
    assert within >= 19


def test_tomography_unbiased_across_seeds(rng):
    prep = random_circuit(3, 12, rng)
    obs = random_hermitian(3, 4, rng)
    exact = evaluate(prep, obs, EvaluatorConfig())
    estimates = [
        evaluate(prep, obs, EvaluatorConfig(shots=2000, seed=s))
        for s in range(100)
    ]
    sigma_of_mean = np.std(estimates) / np.sqrt(len(estimates))
    assert abs(np.mean(estimates) - exact) < 3 * sigma_of_mean + 1e-12


def test_tomography_deterministic_under_seed(rng):
    prep = random_circuit(3, 10, rng)
    obs = random_hermitian(3, 4, rng)
    cfg = EvaluatorConfig(shots=512, seed=7)
    assert evaluate(prep, obs, cfg) == evaluate(prep, obs, cfg)


def test_rejects_non_hermitian():
    from quasimo.pauli import Y

    with pytest.raises(NonHermitianError):
        evaluate(Circuit(1), 1j * Y(0), EvaluatorConfig())


def test_rejects_unbound_prep():
    from quasimo.circuit import Param, UnboundParametersError

    circuit = Circuit(1, (rx(0, Param(0)),), 1)
    with pytest.raises(UnboundParametersError):
        evaluate(circuit, Z(0), EvaluatorConfig())


def test_evaluator_config_validation():
    assert [f.name for f in dataclasses.fields(EvaluatorConfig)] == ["shots", "seed"]
    for shots in (-1, MAX_SHOTS + 1):
        with pytest.raises(ValueError, match="'shots'"):
            EvaluatorConfig(shots=shots)
    # The largest count numpy's binomial accepts still draws.
    assert evaluate(Circuit(1), Z(0), EvaluatorConfig(shots=MAX_SHOTS)) == 1.0
    # shots == 0 is the exact evaluator, on any state and any seed.
    prep = Circuit(1, (rx(0, 0.7),))
    value = evaluate(prep, Z(0), EvaluatorConfig(shots=0, seed=5))
    assert value == expectation(run(prep), Z(0))


def test_evaluator_object_wraps_config():
    evaluator = CostFunctionEvaluator(EvaluatorConfig())
    assert evaluator.evaluate(Circuit(1, (x(0),)), Z(0)) == -1.0


def test_observable_wider_than_prep_is_padded():
    assert evaluate(Circuit(1, (x(0),)), Z(2), EvaluatorConfig()) == 1.0


def test_tomography_rejects_observable_wider_than_state():
    state = run(Circuit(2, (x(0),)))
    with pytest.raises(WidthMismatchError):
        evaluate_state(state, X(3) * X(2), EvaluatorConfig(shots=100, seed=1))


def _embedded(gate, n):
    """A one-qubit gate's dense matrix on an n-qubit register (qubit 0 is the low bit)."""
    (q,) = gate.qubits
    return reduce(np.kron, (np.eye(2 ** (n - 1 - q)), gate_matrix(gate), np.eye(2**q)))


def _even_parity_mass(amps, string, n):
    """Dense oracle for p_even: rotate into the string's eigenbasis with each
    basis-change gate's matrix and sum the outcomes of even parity on its support."""
    rotated = reduce(lambda v, g: _embedded(g, n) @ v, basis_change_gates(string), amps)
    support = sum(1 << q for q, _ in string.factors)
    return sum(abs(a) ** 2 for k, a in enumerate(rotated) if (k & support).bit_count() % 2 == 0)


# "YY" weights Y twice as heavily as X or Z; a Y factor needs the Sdg in its basis change.
@st.composite
def observables(draw, max_qubits=5):
    """(num_qubits, observable of 1-4 strings, identity allowed, state seed)."""
    n = draw(st.integers(1, max_qubits))
    string = st.dictionaries(st.integers(0, n - 1), st.sampled_from("XYYZ")).map(PauliString)
    terms = draw(st.lists(st.tuples(string, st.floats(0.1, 2.0)), min_size=1, max_size=4))
    return n, PauliOperator(terms), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(observables(), st.integers(0, 2**16))
def test_tomography_draws_use_dense_even_parity_mass(case, seed):
    n, obs, state_seed = case
    amps = random_state(n, np.random.default_rng(state_seed))
    draws = []
    default_rng = np.random.default_rng

    class RecordingRng:
        def __init__(self, stream):
            self.stream, self.rng = stream, default_rng(stream)

        def binomial(self, shots, p_even):
            draws.append((self.stream, p_even))
            return self.rng.binomial(shots, p_even)

    with mock.patch.object(np.random, "default_rng", RecordingRng):
        evaluate_state(StateVector(n, amps), obs, EvaluatorConfig(shots=64, seed=seed))
    measured = [(k, s) for k, (s, _) in enumerate(obs.terms()) if not s.is_identity]
    assert [stream for stream, _ in draws] == [[seed, k] for k, _ in measured]
    for (_, p_even), (_, string) in zip(draws, measured):
        assert 0.0 <= p_even <= 1.0
        assert abs(p_even - _even_parity_mass(amps, string, n)) < 1e-12


def test_tomography_term_mean_and_variance_over_seeds():
    # One measured term: its estimate is (2*Binomial(shots, (1 + <P>)/2) - shots)/shots,
    # with mean <P> and variance (1 - <P>^2)/shots.
    prep = Circuit(3, (h(0), rx(1, -0.6), ry(2, 0.5)))  # <XYZ> = sin(0.6) cos(0.5)
    term = X(0) * Y(1) * Z(2)
    amps = run(prep).amplitudes
    exact = float(np.real(np.vdot(amps, term.to_matrix(3) @ amps)))
    shots, seeds = 40, 2000
    estimates = np.array(
        [evaluate(prep, term, EvaluatorConfig(shots=shots, seed=s)) for s in range(seeds)]
    )
    variance = (1 - exact**2) / shots
    assert 0.2 < abs(exact) < 0.8
    assert abs(estimates.mean() - exact) < 4 * np.sqrt(variance / seeds)
    assert abs(estimates.var(ddof=1) / variance - 1) < 4 * np.sqrt(2 / (seeds - 1))
