import numpy as np
import pytest

from quasimo.circuit import Circuit, WidthMismatchError, cnot, h, rx, x
from quasimo.model import staggered_magnetization
from quasimo.pauli import PauliOperator, TooManyQubitsError, X, Z
from quasimo.simulator import (
    NonHermitianError,
    StateVector,
    bitstring,
    compile_circuit,
    expectation,
    run,
    sample,
)

from conftest import random_circuit, random_state


def test_hadamard_on_zero():
    state = run(Circuit(1, (h(0),)))
    assert np.allclose(state.amplitudes, [2**-0.5, 2**-0.5])


def test_x_on_qubit_zero_prepares_100():
    state = run(Circuit(3, (x(0),)))
    assert state.amplitudes[1] == pytest.approx(1.0)
    assert bitstring(1, 3) == "100"


def test_run_composition_equals_sequential(rng):
    for _ in range(4):
        a = random_circuit(3, 10, rng)
        b = random_circuit(3, 10, rng)
        initial = StateVector(3, random_state(3, rng))
        assert np.allclose(
            run(a.compose(b), initial).amplitudes,
            run(b, run(a, initial)).amplitudes,
            atol=1e-12,
        )


def test_run_accepts_basis_index():
    state = run(Circuit(2), 3)
    assert state.amplitudes[3] == 1.0


@pytest.mark.parametrize("index", [1.5, True], ids=["float", "bool"])
def test_run_refuses_a_basis_index_that_is_not_an_int(index):
    # int() would truncate both to basis state 1.
    with pytest.raises(ValueError, match=repr(index)):
        run(Circuit(2), index)
    with pytest.raises(ValueError, match=repr(index)):
        compile_circuit(Circuit(2)).run(index)


@pytest.mark.parametrize("index", [-1, 4, np.int64(4)], ids=repr)
def test_run_refuses_a_basis_index_out_of_range(index):
    message = f"basis index {index} out of range for 2 qubits"
    with pytest.raises(ValueError, match=message):
        run(Circuit(2), index)
    with pytest.raises(ValueError, match=message):
        compile_circuit(Circuit(2)).run(index)
    with pytest.raises(ValueError, match=message):
        StateVector.basis(2, index)


def test_run_width_mismatch():
    with pytest.raises(WidthMismatchError):
        run(Circuit(2), StateVector.zero(3))


def test_expectation_z_on_zero_is_plus_one():
    assert expectation(StateVector.zero(1), Z(0)) == 1.0


def test_expectation_neel_staggered_magnetization():
    neel = StateVector.from_bits([i % 2 for i in range(9)])
    assert expectation(neel, staggered_magnetization(9)) == pytest.approx(1.0, abs=1e-12)


def test_from_bits_takes_only_zero_and_one():
    assert StateVector.from_bits([1.0, 0]).amplitudes[1] == 1.0
    assert StateVector.from_bits(np.array([0, 1, 1])).amplitudes[6] == 1.0
    cases = [([2, 0], "2"), ([0.5, 1], "0.5"), ([0, -1], "-1"), ([True, False], "True")]
    for bits, entry in cases:
        with pytest.raises(ValueError, match=entry):
            StateVector.from_bits(bits)


def test_expectation_tfim_100_is_zero():
    tfim = -(Z(0) * Z(1) + Z(1) * Z(2) + X(0) + X(1) + X(2))
    assert expectation(StateVector.basis(3, 1), tfim) == pytest.approx(0.0, abs=1e-12)


def test_expectation_matches_dense_quadratic_form(rng):
    from conftest import random_hermitian

    for _ in range(5):
        op = random_hermitian(3, 4, rng)
        amps = random_state(3, rng)
        dense = op.to_matrix(3)
        expected = float(np.real(np.vdot(amps, dense @ amps)))
        assert expectation(StateVector(3, amps), op) == pytest.approx(expected, abs=1e-10)


def test_expectation_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        expectation(StateVector.zero(1), 1j * Z(0))


def test_expectation_of_identity_is_its_coefficient(rng):
    state = StateVector(3, random_state(3, rng))
    assert expectation(state, PauliOperator.identity(-2.25)) == pytest.approx(-2.25)


def test_gate_application_is_linear(rng):
    circuit = random_circuit(3, 15, rng)
    u = random_state(3, rng)
    v = random_state(3, rng)
    alpha, beta = 0.3 - 0.1j, -0.8 + 0.4j
    combined = run(circuit, StateVector(3, alpha * u + beta * v)).amplitudes
    separate = alpha * run(circuit, StateVector(3, u)).amplitudes
    separate += beta * run(circuit, StateVector(3, v)).amplitudes
    assert np.allclose(combined, separate, atol=1e-10)


def test_norm_preserved_over_1000_random_gates(rng):
    circuit = random_circuit(4, 1000, rng)
    state = run(circuit, StateVector(4, random_state(4, rng)))
    assert abs(state.norm - 1.0) < 1e-8


def test_sample_deterministic_state():
    result = sample(StateVector.zero(1), 250, seed=9)
    assert result.counts == {"0": 250}
    assert result.shots == 250


def test_sample_uniform_frequencies():
    state = run(Circuit(1, (h(0),)))
    result = sample(state, 10**5, seed=11)
    assert result.frequency("0") == pytest.approx(0.5, abs=0.01)
    assert result.frequency("1") == pytest.approx(0.5, abs=0.01)


def test_sample_same_seed_identical_counts():
    state = run(Circuit(2, (h(0), cnot(0, 1))))
    first = sample(state, 5000, seed=42)
    second = sample(state, 5000, seed=42)
    assert first.counts == second.counts


def test_sample_counts_sum_to_shots(rng):
    state = StateVector(3, random_state(3, rng))
    result = sample(state, 4096, seed=1)
    assert sum(result.counts.values()) == 4096


def test_sample_rejects_zero_shots():
    with pytest.raises(ValueError):
        sample(StateVector.zero(1), 0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "amplitudes, squared_norm",
    [([3.0, 4.0], "25.0"), ([0.0, 0.0], "0.0"), ([np.nan, 0.0], "nan")],
    ids=["norm-5", "zero", "nan"],
)
def test_sample_refuses_a_state_that_is_not_normalised(amplitudes, squared_norm):
    with pytest.raises(ValueError, match=f"squared norm is {squared_norm}"):
        sample(StateVector(1, amplitudes), 100, seed=0)


def test_sample_accepts_a_state_after_many_random_gates(rng):
    state = run(random_circuit(4, 1000, rng), StateVector(4, random_state(4, rng)))
    assert sum(sample(state, 1000, seed=3).counts.values()) == 1000


def test_qubit_cap():
    with pytest.raises(TooManyQubitsError):
        StateVector.zero(25)


def test_unbound_gate_application():
    circuit = Circuit(1, (rx(0, 0.2),))
    state = run(circuit)
    assert state.norm == pytest.approx(1.0)
