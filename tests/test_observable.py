"""Compiled observables: ``expectation`` and ``apply_operator`` against the
dense matrix and the term-by-term kernel sum.

``compile_observable`` groups an operator's terms by x mask, once per
register width, and folds each group, the x = 0 one with the constant, into
one diagonal D_x.  ``expectation`` and ``apply_operator`` read D_0 plus one
gather per X/Y group; the oracles here are the dense matrix and every term
applied on its own.  ``parity_masses`` adds every measured term's int8 sign
rows on its first call for a width.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasimo import simulator
from quasimo.ansatz import symmetric_trotter_step, trotter_step
from quasimo.costfn import EvaluatorConfig, evaluate_state
from quasimo.model import create_model, staggered_magnetization
from quasimo.pauli import PauliOperator, PauliString
from quasimo.simulator import (
    StateVector,
    apply_operator,
    compile_observable,
    expectation,
    run,
)
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
    # n, then n + 2, then n again: the memo is replaced whole each time.
    memos = []
    for width in (n, n + 2, n):
        amps = random_state(width, rng)
        value = expectation(StateVector(width, amps), op)
        assert value == pytest.approx(_dense(op, amps, width), rel=0, abs=1e-12)
        assert op._compiled.num_qubits == width
        assert expectation(StateVector(width, amps), op) == value
        memos.append(op._compiled)
    assert memos[0] is not memos[2] and memos[0].num_qubits == memos[2].num_qubits
    assert (repr(op), hash(op), op.terms()) == before
    assert op == unmeasured and unmeasured == op
    # Every table of the compiled form is shared by the threads that read op.
    tables = list(_arrays(op._compiled))
    assert tables
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[...] = 1.0


def _arrays(value):
    """Every numpy array reachable from a compiled form through its tuples."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for part in value:
            yield from _arrays(part)


@st.composite
def grouped_operators(draw, max_qubits=8):
    """(n, operator): a constant plus terms on one to three shared x masks
    (0 among them, so the diagonal is exercised), Y factors wherever x and
    z overlap, and complex coefficients when ``hermitian`` is drawn false."""
    n = draw(st.integers(1, max_qubits))
    full = (1 << n) - 1
    masks = draw(st.lists(st.integers(0, full), min_size=1, max_size=3))
    hermitian = draw(st.booleans())
    values = coefficients if hermitian else st.complex_numbers(max_magnitude=2.0)
    terms = {PauliString(): draw(values)}
    for _ in range(draw(st.integers(0, 10))):
        x = draw(st.sampled_from(masks))
        y = x & draw(st.integers(0, full))  # the Y factors
        z = y | (draw(st.integers(0, full)) & ~x)
        terms[PauliString.from_masks(x, z)] = draw(values)
    return n, PauliOperator(terms)


@settings(max_examples=150, deadline=None)
@given(grouped_operators(), st.integers(0, 2**32 - 1))
def test_expectation_and_h_psi_match_the_matrix(case, seed):
    n, op = case
    amps = random_state(n, np.random.default_rng(seed))
    matrix = op.to_matrix(n)
    assert np.allclose(apply_operator(amps, op, n), matrix @ amps, rtol=0, atol=1e-12)
    if op.is_hermitian:
        value = expectation(StateVector(n, amps), op)
        assert value == pytest.approx(_dense(op, amps, n), rel=0, abs=1e-12)


@st.composite
def group_forms(draw):
    """(n, operator) of one kind of compiled group: Z-only, pure-X (a scalar
    D_x per group), X/Y with Z factors, complex non-Hermitian, a constant
    alone, or the zero operator."""
    n = draw(st.integers(1, 6))
    full = (1 << n) - 1
    kind = draw(st.sampled_from(["z", "x", "xyz", "complex", "constant", "zero"]))
    values = st.complex_numbers(max_magnitude=2.0) if kind == "complex" else coefficients
    if kind == "zero":
        return n, PauliOperator.zero()
    if kind == "constant":
        return n, PauliOperator.identity(draw(values))
    terms = {}
    for _ in range(draw(st.integers(1, 8))):
        x = 0 if kind == "z" else draw(st.integers(1, full))
        z = draw(st.integers(1 if kind == "z" else 0, full)) if kind != "x" else 0
        terms[PauliString.from_masks(x, z)] = draw(values)
    return n, PauliOperator(terms)


@settings(max_examples=200, deadline=None)
@given(group_forms(), st.integers(0, 2**32 - 1))
def test_h_psi_of_every_group_form_matches_the_matrix(case, seed):
    n, op = case
    amps = random_state(n, np.random.default_rng(seed))
    out = apply_operator(amps, op, n)
    assert out.shape == amps.shape
    assert np.allclose(out, op.to_matrix(n) @ amps, rtol=0, atol=1e-12)


def test_h_psi_of_a_non_hermitian_operator_keeps_every_imaginary_part(rng):
    # Complex coefficients on the diagonal and on an X/Y group.
    op = PauliOperator(
        {
            PauliString(): 0.5j,
            PauliString({0: "Z", 2: "Z"}): 1 - 2j,
            PauliString({1: "X", 2: "Y"}): 0.25 + 1j,
            PauliString({1: "Y", 2: "X"}): -3j,
        }
    )
    assert not op.is_hermitian
    amps = random_state(3, rng)
    assert np.allclose(apply_operator(amps, op, 3), op.to_matrix(3) @ amps, rtol=0, atol=1e-12)
    # On |000> the diagonal's part of H psi is 0.5j + (1 - 2j) exactly.
    assert apply_operator(StateVector(3).amplitudes, op, 3)[0] == 1 - 1.5j


def _reference_diagonal(op, n):
    """D[k] = sum of c * (-1)^popcount(k & z) over the Z-only terms, one
    term at a time in terms() order."""
    k = np.arange(1 << n)
    diagonal = np.zeros(1 << n)
    for string, coeff in op.terms():
        if not string.x:
            parity = np.array([bin(v & string.z).count("1") & 1 for v in k])
            diagonal += coeff.real * (1 - 2 * parity)
    return diagonal


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.data())
def test_the_diagonal_equals_the_per_term_sum_exactly(n, data):
    # Dyadic coefficients add without rounding in any order, so the split
    # on the top qubit must give the per-term sum bit for bit.
    dyadic = st.integers(-64, 64).filter(bool).map(lambda v: v / 16)
    z_masks = st.integers(0, (1 << n) - 1)
    terms = data.draw(st.dictionaries(z_masks, dyadic, max_size=12))
    op = PauliOperator((PauliString.from_masks(0, z), c) for z, c in terms.items())
    op = op + PauliOperator.from_string(PauliString.from_masks(1, 1))  # one X/Y group
    # On the all-ones vector H psi is D_0 plus Y(0)'s -i * (-1)^(k & 1),
    # which adds nothing to the real part.
    out = apply_operator(np.ones(1 << n, dtype=complex), op, n)
    assert np.array_equal(out.real, _reference_diagonal(op, n))
    assert np.array_equal(out.imag, 2.0 * (np.arange(1 << n) & 1) - 1)


@pytest.fixture
def calls_to(monkeypatch):
    """``calls_to(name)``: the list of argument tuples of every later call
    to ``simulator.<name>``."""

    def count(name):
        calls = []
        function = getattr(simulator, name)
        monkeypatch.setattr(simulator, name, lambda *args: calls.append(args) or function(*args))
        return calls

    return count


def test_a_z_only_observable_compiles_to_its_diagonal_alone(calls_to, rng):
    op = staggered_magnetization(16)  # weights +-1/16: every sum is exact
    tracemalloc.start()
    try:
        compile_observable(op, 16)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # One real diagonal of 2^16 doubles and nothing else of that size.
    assert 8 << 16 <= retained < 9 << 16
    gathers, diagonals = calls_to("_pauli_product"), calls_to("_diagonal")
    amps = random_state(16, rng)
    expected = _reference_diagonal(op, 16) * amps
    assert np.array_equal(apply_operator(amps, op, 16), expected)
    # Sampling adds the sign rows and keeps D: the exact path compiles nothing again.
    simulator.parity_masses(StateVector(16).amplitudes, op, 16)
    assert np.array_equal(apply_operator(amps, op, 16), expected)
    assert gathers == [] and diagonals == []


def test_a_z_only_observable_compiles_without_sign_rows(calls_to, rng):
    rows = calls_to("pauli_rows")
    op = staggered_magnetization(8) + 0.5  # dyadic coefficients: every sum is exact
    hamiltonian = create_model("heisenberg", {"num_spins": 8, "Jz": 0.25}).hamiltonian
    amps = random_state(8, rng)
    assert np.array_equal(apply_operator(amps, op, 8), _reference_diagonal(op, 8) * amps)
    expectation(StateVector(8, amps), op)
    # Nor does an operator with X/Y groups: only sampling reads sign rows.
    expectation(StateVector(8, amps), hamiltonian)
    apply_operator(amps, hamiltonian, 8)
    assert rows == []


def test_h_psi_gathers_every_x_y_group_into_one_buffer(calls_to, rng):
    hamiltonian = create_model("heisenberg", {"num_spins": 6, "Jz": 0.25}).hamiltonian
    amps = random_state(6, rng)
    expected = PauliOperator.to_matrix(hamiltonian, 6) @ amps
    gathers = calls_to("_pauli_product")
    got = apply_operator(amps, hamiltonian, 6)
    assert np.allclose(got, expected, rtol=0, atol=1e-12)
    # One gather per bond's x mask, each written to the same scratch array.
    assert len(gathers) == 5 and all(len(args) == 4 for args in gathers)
    scratch = gathers[0][3]
    assert isinstance(scratch, np.ndarray) and scratch.shape == amps.shape
    assert all(args[3] is scratch for args in gathers)
    assert not np.shares_memory(scratch, amps) and not np.shares_memory(scratch, got)


def _p_even_reference(op, amps, n):
    """(1 + <P>)/2 per measured term, in terms() order, from the dense matrix."""
    return [
        (1 + np.vdot(amps, PauliOperator.from_string(s).to_matrix(n) @ amps).real) / 2
        for s, _ in op.terms()
        if not s.is_identity
    ]


def test_x_y_groups_share_one_sign_row_table(calls_to, rng):
    rows = calls_to("pauli_rows")
    hamiltonian = create_model("heisenberg", {"num_spins": 6, "Jz": 0.25}).hamiltonian
    amps = random_state(6, rng)
    expectation(StateVector(6, amps), hamiltonian)
    assert rows == []
    # The first sampled pass builds every slot's rows in one call: the ZZ
    # terms, then each bond's XX and YY, which share its x mask.
    for _ in range(2):
        masses = simulator.parity_masses(amps, hamiltonian, 6)
        assert len(rows) == 1
    strings, n = rows[0]
    assert n == 6 and [s.x for s in strings] == [0] * 5 + [3 << q for q in range(5) for _ in "XY"]
    assert [c for c, _ in masses] == [c.real for _, c in hamiltonian.terms()]
    p_even = [p for _, p in masses]
    assert np.allclose(p_even, _p_even_reference(hamiltonian, amps, 6), rtol=0, atol=1e-12)


@pytest.mark.parametrize("chunk", [1, 3, 64])
def test_groups_folded_a_slice_at_a_time_match_the_matrix(chunk, monkeypatch, rng):
    # parity_masses takes a group's slots max(1, chunk >> n) at a time.
    monkeypatch.setattr(simulator, "CHUNK_AMPLITUDES", chunk)
    op = create_model("heisenberg", {"num_spins": 5, "Jz": 0.25, "h_ext": 0.3}).hamiltonian
    op = op + 0.7 * PauliOperator.from_string(PauliString({0: "X", 1: "Y", 4: "Z"})) + 0.2
    amps = random_state(5, rng)
    masses = simulator.parity_masses(amps, op, 5)
    assert [c for c, _ in masses] == [c.real for _, c in op.terms()]
    assert masses[[s for s, _ in op.terms()].index(PauliString())][1] is None
    p_even = [p for _, p in masses if p is not None]
    assert np.allclose(p_even, _p_even_reference(op, amps, 5), rtol=0, atol=1e-12)


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


def test_heisenberg_energy_and_h_psi_make_no_kernel_call(pauli_calls, rng):
    hamiltonian = create_model("heisenberg", {"num_spins": 8, "Jz": 0.25}).hamiltonian
    state = StateVector(8, random_state(8, rng))
    assert 0 < sum(1 for s, _ in hamiltonian.terms() if s.x) < hamiltonian.num_terms
    for _ in range(2):
        evaluate_state(state, hamiltonian, EvaluatorConfig())
        apply_operator(state.amplitudes, hamiltonian, 8)
    assert pauli_calls == []


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
