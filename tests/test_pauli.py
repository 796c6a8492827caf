import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasimo.pauli import (
    IndexTooLargeError,
    ParseError,
    PauliOperator,
    PauliString,
    TooManyQubitsError,
    X,
    Y,
    Z,
    commutator,
    identity,
    parse,
)

from conftest import random_hermitian


def test_multiply_single_qubit_phases():
    assert (X(0) * Y(0)).isclose(1j * Z(0))
    assert (Y(0) * Z(0)).isclose(1j * X(0))
    assert (Z(0) * X(0)).isclose(1j * Y(0))
    assert (Y(0) * X(0)).isclose(-1j * Z(0))


def test_multiply_involution():
    zz = Z(0) * Z(1)
    assert (zz * zz).isclose(identity(1.0))


def test_string_self_multiplication_is_identity():
    s = PauliString({0: "X", 3: "Y", 5: "Z"})
    phase, result = s.multiply(s)
    assert phase == 1
    assert result.is_identity


def test_multiply_matches_dense_product():
    a = X(0) + Z(0)
    b = X(0) - Z(0)
    product = a * b
    assert np.allclose(product.to_matrix(1), a.to_matrix(1) @ b.to_matrix(1))
    assert product.isclose(2j * Y(0))


def test_commutator_identities():
    assert commutator(X(0), Z(0)).isclose(-2j * Y(0))
    assert commutator(Z(0) * Z(1), X(0) * X(1)).is_zero


def test_linear_combination_merges():
    assert (0.5 * (Z(0) + Z(0))).isclose(Z(0))
    assert (Z(0) - Z(0)).is_zero


def test_to_matrix_z():
    assert np.allclose(Z(0).to_matrix(1), np.diag([1.0, -1.0]))


def test_to_matrix_tfim_ground_energy():
    h = -(Z(0) * Z(1) + Z(1) * Z(2) + X(0) + X(1) + X(2))
    lowest = np.linalg.eigvalsh(h.to_matrix(3)).min()
    assert lowest == pytest.approx(-3.49396, abs=1e-4)


def test_to_matrix_reduced_h2_ground_energy():
    op = parse("-0.328717 + 0.181289*X(0) - 0.787967*Z(0)")
    lowest = np.linalg.eigvalsh(op.to_matrix(1)).min()
    # The 6-digit published coefficients only pin the published energy to
    # a few times 1e-7.
    assert lowest == pytest.approx(-1.13727017466, abs=5e-7)


def test_to_matrix_errors():
    with pytest.raises(IndexTooLargeError):
        Z(3).to_matrix(2)
    with pytest.raises(TooManyQubitsError):
        Z(0).to_matrix(13)


def test_parse_bare_constant():
    op = parse("-0.09886396978427353")
    assert op.constant == pytest.approx(-0.09886396978427353, abs=1e-16)
    assert op.num_terms == 1


def test_parse_merges_commuting_factor_orders():
    op = parse("0.5*Z(0)*Z(1) + 0.5*Z(1)*Z(0)")
    assert op.isclose(Z(0) * Z(1))


def test_parse_squared_factor_is_identity():
    assert parse("X(0)*X(0)").isclose(identity(1.0))


def test_parse_anticommuting_factors_keep_phase():
    # X(0)*Y(0) inside one term is iZ(0).
    assert parse("X(0)*Y(0)").isclose(1j * Z(0))


def test_parse_round_trip_canonical_printer():
    op = -0.5 * identity(1.0) + 0.25 * (Z(0) * Z(1)) - X(2) + (0.5 + 0.25j) * Y(0)
    assert parse(str(op)).isclose(op, tol=1e-15)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("0.5*Q(0)")
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse("0.5*")
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("1.0 2.0*Z(0)")


def test_hermiticity_flag():
    assert (X(0) + 2 * Z(1)).is_hermitian
    assert not (1j * Z(0)).is_hermitian


def test_simplify_prunes_small_coefficients():
    op = PauliOperator({PauliString({0: "Z"}): 1e-14, PauliString({0: "X"}): 0.5})
    assert op.num_terms == 1
    assert op.coefficient(PauliString({0: "X"})) == 0.5


NON_FINITE = [float("nan"), float("inf"), -float("inf"), complex(0, float("nan"))]


@pytest.mark.parametrize("coeff", NON_FINITE)
def test_operator_rejects_non_finite_coefficient(coeff):
    with pytest.raises(ValueError, match="not finite"):
        PauliOperator({PauliString({0: "Z"}): coeff})
    with pytest.raises(ValueError, match="not finite"):
        coeff * Z(0)


@pytest.mark.parametrize("text", ["(nan+0j)*Z(0) + X(1)", "X(1) - (inf+0j)", "1e999*Z(0)*Z(1)"])
def test_parse_rejects_non_finite_coefficient(text):
    with pytest.raises(ValueError, match="not finite"):
        parse(text)


# Strings on n <= 5 qubits, Y drawn twice as often as X or Z: Y is the
# factor that sets both mask bits and carries the i in the product phase.
pauli_strings = st.dictionaries(st.integers(0, 4), st.sampled_from("XYYZ")).map(PauliString)


def dense(string):
    return PauliOperator.from_string(string).to_matrix(5)


@settings(max_examples=300, deadline=None)
@given(pauli_strings, pauli_strings)
def test_mask_encoding_matches_dense_oracle(a, b):
    ab, ba = dense(a) @ dense(b), dense(b) @ dense(a)
    phase, product = a.multiply(b)
    assert np.array_equal(phase * dense(product), ab)
    assert a.commutes_with(b) == np.array_equal(ab, ba)
    rebuilt = PauliString.from_masks(a.x, a.z)
    assert rebuilt == a and rebuilt.factors == a.factors


@pytest.mark.parametrize(
    "axes",
    [{-1: "X"}, {1.0: "X"}, {0: "W"}, [(0, "X"), (0, "Z")], [(2, "Z"), (2, "Z")]],
    ids=["negative-qubit", "float-qubit", "unknown-axis", "duplicate-qubit", "repeated-z"],
)
def test_pauli_string_rejects_malformed_factors(axes):
    with pytest.raises(ValueError):
        PauliString(axes)


@pytest.mark.parametrize("qubit", [True, False, np.True_, np.False_])
def test_pauli_string_refuses_a_bool_qubit(qubit):
    # A bool is an int to Python, so True would otherwise act on qubit 1.
    for axes in ({qubit: "X"}, [(0, "Z"), (qubit, "X")]):
        with pytest.raises(ValueError, match=re.escape(f"got {qubit!r}")):
            PauliString(axes)


def test_pauli_string_converts_numpy_integer_qubits():
    string = PauliString({np.int64(1): "X", np.int32(3): "Z", 0: "Y"})
    expected = PauliString({1: "X", 3: "Z", 0: "Y"})
    assert string == expected and hash(string) == hash(expected)
    assert (string.x, string.z) == (0b11, 0b1001)
    assert [type(q) for q in string.support] == [int, int, int]
    with pytest.raises(ValueError, match="non-negative int"):
        PauliString({np.int64(-1): "X"})
    with pytest.raises(ValueError, match=re.escape(f"got {np.True_!r}")):
        PauliString([(np.int64(0), "X"), (np.True_, "Z")])  # checked after a conversion


def test_from_masks_rejects_negative_masks():
    with pytest.raises(ValueError):
        PauliString.from_masks(-1, 0)
    with pytest.raises(ValueError):
        PauliString.from_masks(0, -1)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_multiply_associative_and_distributive_against_dense(seed):
    rng = np.random.default_rng(seed)
    a = random_hermitian(3, 3, rng)
    b = random_hermitian(3, 3, rng)
    c = random_hermitian(3, 3, rng)
    am, bm, cm = a.to_matrix(3), b.to_matrix(3), c.to_matrix(3)
    assert np.allclose(((a * b) * c).to_matrix(3), am @ bm @ cm, atol=1e-10)
    assert np.allclose((a * (b + c)).to_matrix(3), am @ (bm + cm), atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_to_matrix_is_additive(seed):
    rng = np.random.default_rng(seed)
    a = random_hermitian(4, 4, rng)
    b = random_hermitian(4, 4, rng)
    assert np.allclose((a + b).to_matrix(4), a.to_matrix(4) + b.to_matrix(4), atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_simplify_idempotent(seed):
    rng = np.random.default_rng(seed)
    op = random_hermitian(3, 4, rng)
    assert op.simplify() == op.simplify().simplify()


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_hermitian_operator_has_real_eigenvalues(seed):
    rng = np.random.default_rng(seed)
    op = random_hermitian(3, 5, rng)
    eigenvalues = np.linalg.eigvals(op.to_matrix(3))
    assert np.max(np.abs(eigenvalues.imag)) < 1e-10
