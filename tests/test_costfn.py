import dataclasses
import sys
import threading
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasimo import costfn, simulator
from quasimo.circuit import Circuit, WidthMismatchError, basis_change_gates, h, rx, ry, x
from quasimo.costfn import (
    MAX_SHOTS,
    CostFunctionEvaluator,
    EvaluatorConfig,
    evaluate,
    evaluate_state,
)
from quasimo.model import bits_prep, create_model, staggered_magnetization
from quasimo.pauli import PauliOperator, PauliString, X, Y, Z
from quasimo.simulator import (
    NonHermitianError,
    StateVector,
    apply_pauli_string,
    expectation,
    run,
)

from conftest import gate_matrix, random_circuit, random_hermitian, random_state


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
    # numpy's default_rng would refuse a negative seed only at the first draw, unnamed.
    with pytest.raises(ValueError, match="'seed'"):
        EvaluatorConfig(shots=100, seed=-1)
    # The largest count numpy's binomial accepts still draws.
    assert evaluate(Circuit(1), Z(0), EvaluatorConfig(shots=MAX_SHOTS)) == 1.0
    # shots == 0 is the exact evaluator, on any state and any seed.
    prep = Circuit(1, (rx(0, 0.7),))
    value = evaluate(prep, Z(0), EvaluatorConfig(shots=0, seed=5))
    assert value == expectation(run(prep), Z(0))


def test_evaluator_config_converts_its_fields_to_ints():
    cfg = EvaluatorConfig(shots=np.int64(1000), seed=9.0)
    assert (cfg.shots, cfg.seed) == (1000, 9)
    assert type(cfg.shots) is int and type(cfg.seed) is int
    # 2.5 shots would draw Binomial(2, p) but divide by 2.5; True would read as 1.
    for name, value in [
        ("shots", 2.5), ("shots", True), ("shots", np.True_), ("shots", None),
        ("seed", 1.5), ("seed", False), ("seed", "x"), ("seed", float("nan")),
    ]:
        with pytest.raises(ValueError, match=f"'{name}'"):
            EvaluatorConfig(**{name: value})


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

    class RecordingGenerator:
        """Stands in for the thread's generator: records the stream state each
        draw starts from and the p_even it is given."""

        def __init__(self):
            self.generator = np.random.default_rng()
            self.bit_generator = self.generator.bit_generator

        def binomial(self, shots, p_even):
            draws.append((self.bit_generator.state, p_even))
            return self.generator.binomial(shots, p_even)

    recorder = RecordingGenerator()
    with mock.patch.object(costfn, "_thread_generator", lambda: recorder):
        evaluate_state(StateVector(n, amps), obs, EvaluatorConfig(shots=64, seed=seed))
    measured = [(k, s) for k, (s, _) in enumerate(obs.terms()) if not s.is_identity]
    # Each draw starts where a fresh default_rng([seed, k]) starts, in term order.
    streams = [np.random.default_rng([seed, k]).bit_generator.state for k, _ in measured]
    assert [state for state, _ in draws] == streams
    for (_, p_even), (_, string) in zip(draws, measured):
        assert 0.0 <= p_even <= 1.0
        assert abs(p_even - _even_parity_mass(amps, string, n)) < 1e-12


def _reference_tomography(state, obs, shots, seed):
    """Sampled tomography term by term: P psi from the kernel, the parity
    masses from two vdots, and a fresh default_rng([seed, k]) per term."""
    amps, n = state.amplitudes, state.num_qubits
    total = 0.0
    for k, (string, coeff) in enumerate(obs.terms()):
        if string.is_identity:
            total += coeff.real
            continue
        flipped = apply_pauli_string(amps, string, n)
        plus, minus = amps + flipped, amps - flipped
        even, odd = np.vdot(plus, plus).real, np.vdot(minus, minus).real
        hits = np.random.default_rng([seed, k]).binomial(shots, even / (even + odd))
        total += coeff.real * (2 * hits - shots) / shots
    return total


@st.composite
def shared_mask_observables(draw, max_qubits=5):
    """(num_qubits, observable, state seed): terms drawn from one to three x
    masks (the empty mask among them), so groups hold several terms, with Y
    factors wherever x and z overlap, and a constant."""
    n = draw(st.integers(1, max_qubits))
    full = (1 << n) - 1
    x_masks = draw(st.lists(st.integers(0, full), min_size=1, max_size=3))
    coefficients = st.floats(0.1, 2.0) | st.floats(-2.0, -0.1)
    terms = {PauliString(): draw(coefficients)}
    for _ in range(draw(st.integers(1, 8))):
        x = draw(st.sampled_from(x_masks))
        z = draw(st.integers(0, full))
        if x | z:
            terms[PauliString.from_masks(x, z)] = draw(coefficients)
    return n, PauliOperator(terms), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(shared_mask_observables(), st.sampled_from([1, 64, 1000]), st.integers(0, 2**16))
def test_sampled_evaluation_equals_the_term_by_term_reference(case, shots, seed):
    n, obs, state_seed = case
    rng = np.random.default_rng(state_seed)
    cfg = EvaluatorConfig(shots=shots, seed=seed)
    # Two states, then the second seed: the compiled form and the saved
    # streams are reused, then the streams are replaced.
    for cfg in (cfg, cfg, EvaluatorConfig(shots, seed + 1)):
        state = StateVector(n, random_state(n, rng))
        assert evaluate_state(state, obs, cfg) == _reference_tomography(
            state, obs, cfg.shots, cfg.seed
        )


@pytest.mark.parametrize("n, chunk", [(5, 1), (5, 64), (14, simulator.CHUNK_AMPLITUDES)])
def test_groups_taken_in_chunks_equal_the_reference(n, chunk, monkeypatch, rng):
    # A group takes max(1, chunk >> n) terms at a time: one or two at n = 5,
    # and four of the 27 Z-only terms at n = 14 under the shipped constant.
    monkeypatch.setattr(simulator, "CHUNK_AMPLITUDES", chunk)
    obs = create_model("heisenberg", {"num_spins": n, "Jz": 0.25, "h_ext": 0.3}).hamiltonian
    obs = obs + PauliOperator.identity(0.7)
    for seed in (1, 2):
        state = StateVector(n, random_state(n, rng))
        cfg = EvaluatorConfig(shots=1000, seed=seed)
        assert evaluate_state(state, obs, cfg) == _reference_tomography(state, obs, 1000, seed)


def test_threads_with_distinct_seeds_match_sequential_calls(rng):
    # More threads than cores, switching often, all on one operator: each
    # thread's draws must be those of its own seed's sequential calls.
    n = 4
    obs = create_model("h2", {}).observable
    states = [StateVector(n, random_state(n, rng)) for _ in range(30)]
    seeds = (11, 12, 13, 14)
    expected = {
        seed: [evaluate_state(s, obs, EvaluatorConfig(1000, seed)) for s in states]
        for seed in seeds
    }
    barrier = threading.Barrier(len(seeds))
    got = {}

    def worker(seed):
        barrier.wait()
        got[seed] = [evaluate_state(s, obs, EvaluatorConfig(1000, seed)) for s in states]

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == expected
    assert len({tuple(values) for values in expected.values()}) == len(seeds)


MIXED_OBSERVABLE = PauliOperator.identity(0.5) + X(0) * X(1) + 0.3 * Z(1) + 0.2 * Y(0)


@pytest.mark.parametrize(
    "amps, squared_norm",
    [
        ([0, 0, 0, 0], "0.0"),
        ([np.nan, 0, 0, 1], "nan"),
        ([2, 0, 0, 0], "4.0"),
        ([1, 0, 0, 1e-3], "1.000001"),
    ],
)
def test_tomography_refuses_an_unnormalised_state(amps, squared_norm):
    state = StateVector(2, np.array(amps, dtype=complex))
    with pytest.raises(ValueError, match=f"squared norm is {squared_norm}"):
        evaluate_state(state, MIXED_OBSERVABLE, EvaluatorConfig(shots=100, seed=1))


def test_tomography_samples_a_state_within_the_norm_tolerance():
    # A squared norm 2e-10 from 1 is rounding drift, well inside SAMPLE_NORM_TOL.
    state = StateVector(2, np.array([1 + 1e-10, 0, 0, 0], dtype=complex))
    cfg = EvaluatorConfig(shots=100, seed=1)
    expected = _reference_tomography(state, MIXED_OBSERVABLE, 100, 1)
    assert evaluate_state(state, MIXED_OBSERVABLE, cfg) == expected


def test_compiled_tomography_is_kept_per_width(monkeypatch, rng):
    # The exact path builds no sign rows; the first sampled call on a width
    # builds them once, and neither another seed nor the exact path compiles
    # that width again.
    built = []
    pauli_rows = simulator.pauli_rows
    monkeypatch.setattr(
        simulator, "pauli_rows", lambda strings, n: built.append(n) or pauli_rows(strings, n)
    )
    obs = create_model("h2", {}).observable
    state = StateVector(4, random_state(4, rng))
    value = evaluate_state(state, obs, EvaluatorConfig())
    exact = obs._compiled
    assert evaluate_state(state, obs, EvaluatorConfig()) == value
    assert obs._compiled is exact and built == []
    evaluate_state(state, obs, EvaluatorConfig(100, 3))
    memo = obs._compiled
    assert built == [4]
    for cfg in (EvaluatorConfig(100, 3), EvaluatorConfig(100, 4), EvaluatorConfig()):
        expected = _reference_tomography(state, obs, 100, cfg.seed) if cfg.shots else value
        assert evaluate_state(state, obs, cfg) == expected
        assert obs._compiled is memo
    assert built == [4]
    wide = StateVector(5, random_state(5, rng))
    assert evaluate_state(wide, obs, EvaluatorConfig(100, 4)) == _reference_tomography(
        wide, obs, 100, 4
    )
    assert built == [4, 5]


def test_a_second_observable_reuses_the_generator_states_of_a_seed(monkeypatch, rng):
    # A term's stream depends on (seed, k) alone, so a second observable
    # sampled with a seed already used builds no generator state.
    obs = create_model("h2", {}).observable
    state = StateVector(4, random_state(4, rng))
    evaluate_state(state, obs, EvaluatorConfig(1000, 21))
    built = []
    default_rng = np.random.default_rng

    def counted(*args, **kwargs):
        built.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    for other in (PauliOperator(obs.terms()), 0.5 * obs):
        assert other._compiled is None
        value = evaluate_state(state, other, EvaluatorConfig(1000, 21))
        assert built == []
        assert value == _reference_tomography(state, other, 1000, 21)
        built.clear()  # the reference draws from fresh generators


def test_alternating_seeds_build_no_generator_state_after_each_first_call(monkeypatch, rng):
    obs = create_model("h2", {}).observable
    states = [StateVector(4, random_state(4, rng)) for _ in range(6)]
    first = [evaluate_state(s, obs, EvaluatorConfig(1000, seed)) for s in states[:2] for seed in (7, 8)]
    built = []
    default_rng = np.random.default_rng

    def counted(*args, **kwargs):
        built.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    again = [evaluate_state(s, obs, EvaluatorConfig(1000, seed)) for s in states[:2] for seed in (7, 8)]
    assert again == first and built == []
    for state in states[2:]:
        for seed in (7, 8):
            value = evaluate_state(state, obs, EvaluatorConfig(1000, seed))
            assert built == []
            assert value == _reference_tomography(state, obs, 1000, seed)
            built.clear()  # the reference draws from fresh generators


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
