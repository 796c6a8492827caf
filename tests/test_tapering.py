import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasimo.model import create_heisenberg, create_tfim, HeisenbergParams, load_h2_hamiltonian
from quasimo.pauli import IndexTooLargeError, PauliOperator, PauliString, X, Z, commutator, parse
from quasimo.tapering import (
    NotASymmetryError,
    SectorArityMismatchError,
    SingularSystemError,
    auto_sector,
    find_z2_symmetries,
    taper,
)
from quasimo.validation import exact_ground_energy


def spectrum(op, num_qubits):
    return np.sort(np.linalg.eigvalsh(op.to_matrix(num_qubits)))


def union_of_sector_spectra(hamiltonian, num_qubits):
    symmetries = find_z2_symmetries(hamiltonian, num_qubits)
    reduced_width = num_qubits - len(symmetries)
    values = []
    for sector in itertools.product((1, -1), repeat=len(symmetries)):
        tapered = taper(hamiltonian, symmetries, sector)
        values.extend(np.linalg.eigvalsh(tapered.to_matrix(reduced_width)))
    return np.sort(values)


def projected_sector_spectrum(hamiltonian, symmetries, sector, num_qubits):
    """Dense oracle for one sector: eigenvalues of H on the range of the
    projector prod_i (I + s_i T_i) / 2."""
    identity = np.eye(2**num_qubits)
    projector = identity
    for sym, sign in zip(symmetries, sector):
        t = PauliOperator.from_string(sym).to_matrix(num_qubits)
        projector = projector @ (identity + sign * t) / 2
    weights, vectors = np.linalg.eigh(projector)
    basis = vectors[:, weights > 0.5]
    return np.linalg.eigvalsh(basis.conj().T @ hamiltonian.to_matrix(num_qubits) @ basis)


def assert_each_sector_matches_its_projection(hamiltonian, num_qubits):
    symmetries = find_z2_symmetries(hamiltonian, num_qubits)
    reduced_width = num_qubits - len(symmetries)
    for sector in itertools.product((1, -1), repeat=len(symmetries)):
        tapered = taper(hamiltonian, symmetries, sector)
        assert np.allclose(
            np.linalg.eigvalsh(tapered.to_matrix(reduced_width)),
            projected_sector_spectrum(hamiltonian, symmetries, sector, num_qubits),
            atol=1e-9,
        ), sector


def test_z_hamiltonian_has_z_symmetry():
    assert PauliString({0: "Z"}) in find_z2_symmetries(Z(0), 1)


def test_tfim_symmetry_is_all_x():
    h = create_tfim(-1.0, -1.0, 3).hamiltonian
    symmetries = find_z2_symmetries(h)
    assert symmetries == [PauliString({0: "X", 1: "X", 2: "X"})]
    for sym in symmetries:
        assert commutator(h, PauliOperator.from_string(sym)).is_zero


def test_x_plus_z_has_no_symmetry():
    assert find_z2_symmetries(X(0) + Z(0), 1) == []


def test_every_symmetry_commutes_with_hamiltonian():
    for h, n in [
        (load_h2_hamiltonian(), 4),
        (create_heisenberg(HeisenbergParams(num_spins=4, h_ext=0.1)).hamiltonian, 4),
    ]:
        for sym in find_z2_symmetries(h, n):
            assert commutator(h, PauliOperator.from_string(sym)).is_zero


def test_h2_tapers_to_single_qubit():
    h2 = load_h2_hamiltonian()
    symmetries = find_z2_symmetries(h2)
    assert len(symmetries) == 3
    sector = auto_sector(h2, symmetries)
    tapered = taper(h2, symmetries, sector)
    assert tapered.width == 1
    strings = {str(s) for s, _ in tapered.terms()}
    assert strings == {"I", "X(0)", "Z(0)"}
    assert exact_ground_energy(tapered) == pytest.approx(
        exact_ground_energy(h2), abs=1e-10
    )


def test_h2_tapered_coefficient_magnitudes_match_reference_shape():
    # Reference one-qubit form: (-0.328717) + (0.181289) X0 + (-0.787967) Z0,
    # up to sector/basis sign conventions.
    h2 = load_h2_hamiltonian()
    symmetries = find_z2_symmetries(h2)
    tapered = taper(h2, symmetries, auto_sector(h2, symmetries))
    magnitudes = sorted(abs(c) for _, c in tapered.terms())
    assert magnitudes == pytest.approx([0.181289, 0.328717, 0.787967], abs=5e-6)


def test_h2_symmetry_selection_is_pinned():
    h2 = load_h2_hamiltonian()
    symmetries = find_z2_symmetries(h2)
    assert [str(s) for s in symmetries] == ["Z(0)*Z(1)", "Z(0)*Z(2)", "Z(0)*Z(3)"]
    sector = auto_sector(h2, symmetries)
    assert sector == [1, -1, -1]
    assert str(taper(h2, symmetries, sector)) == (
        "-0.32871702820831256 + 0.18128880823111088*X(0) + 0.7879673585544115*Z(0)"
    )


@pytest.mark.parametrize(
    "n, expected",
    [
        # The odd chain's kernel holds the anticommuting all-X and all-Z
        # strings; the elimination's pivot order decides which is kept.
        (5, ["X(0)*X(1)*X(2)*X(3)*X(4)"]),
        (4, ["X(0)*X(1)*X(2)*X(3)", "Z(0)*Z(1)*Z(2)*Z(3)"]),
    ],
)
def test_heisenberg_symmetry_selection_is_pinned(n, expected):
    h = create_heisenberg(HeisenbergParams(num_spins=n)).hamiltonian
    assert [str(s) for s in find_z2_symmetries(h)] == expected


def test_union_of_sector_spectra_tfim3():
    h = create_tfim(-1.0, -1.0, 3).hamiltonian
    assert np.allclose(union_of_sector_spectra(h, 3), spectrum(h, 3), atol=1e-10)


def test_union_of_sector_spectra_h2():
    h2 = load_h2_hamiltonian()
    assert np.allclose(union_of_sector_spectra(h2, 4), spectrum(h2, 4), atol=1e-10)


@pytest.mark.parametrize("n", [2, 4, 5, 6])
def test_union_of_sector_spectra_heisenberg_chains(n):
    h = create_heisenberg(HeisenbergParams(num_spins=n, jz=0.5)).hamiltonian
    assert np.allclose(union_of_sector_spectra(h, n), spectrum(h, n), atol=1e-10)


# Commuting symmetry sets that no partner search over the generators as found
# can taper: in every order some generator has no single-qubit partner that
# anticommutes with it alone, until the basis changes.
NEEDS_NEW_BASIS = (
    "0.769*Y(0)*Z(1)*X(4) - 1.678*Z(0)*X(3)*Y(4) - 1.866*Y(1)*X(3)*Y(4)",
    "1.0*X(0)*Y(2)*Z(3) + 1.0*Y(0)*Y(1)*Y(2)*Y(3) + 1.0*Y(0)*Z(1)*X(2) + 1.0*Y(0)*Y(3)",
)


@pytest.mark.parametrize(
    "h, n",
    [
        pytest.param(create_tfim(-1.0, -1.0, 3).hamiltonian, 3, id="tfim3"),
        pytest.param(load_h2_hamiltonian(), 4, id="h2"),
    ]
    + [
        pytest.param(
            create_heisenberg(HeisenbergParams(num_spins=n, jz=0.5)).hamiltonian,
            n,
            id=f"heisenberg{n}",
        )
        for n in (4, 5, 6)
    ]
    + [
        pytest.param(parse(text), parse(text).width, id=f"new-basis{parse(text).width}")
        for text in NEEDS_NEW_BASIS
    ],
)
def test_each_sector_spectrum_matches_its_projection(h, n):
    # Unlike the union tests, this sees two sectors swapped.
    assert_each_sector_matches_its_projection(h, n)


@st.composite
def planted_symmetry_operators(draw):
    """(n, H) with n <= 4 and H built from terms commuting with 1-2 random
    non-identity strings, so at least one Z2 symmetry is planted."""
    n = draw(st.integers(1, 4))
    pauli_strings = st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n).map(
        lambda axes: PauliString({q: a for q, a in enumerate(axes) if a != "I"})
    )
    planted = draw(
        st.lists(pauli_strings.filter(lambda s: not s.is_identity), min_size=1, max_size=2)
    )
    coefficients = st.floats(-2, 2, allow_nan=False)
    terms = draw(st.lists(st.tuples(pauli_strings, coefficients), min_size=4, max_size=16))
    h = PauliOperator.zero()
    for string, coeff in terms:
        if all(string.commutes_with(p) for p in planted):
            h = h + coeff * PauliOperator.from_string(string)
    return n, h


@settings(max_examples=60, deadline=None)
@given(planted_symmetry_operators())
@example((5, parse(NEEDS_NEW_BASIS[0])))
@example((4, parse(NEEDS_NEW_BASIS[1])))
def test_tapering_preserves_spectra_of_planted_symmetry_operators(case):
    n, h = case
    assert np.allclose(union_of_sector_spectra(h, n), spectrum(h, n), atol=1e-9)
    assert_each_sector_matches_its_projection(h, n)
    symmetries = find_z2_symmetries(h)
    tapered = taper(h, symmetries, auto_sector(h, symmetries))
    assert exact_ground_energy(tapered) == pytest.approx(spectrum(h, n)[0], abs=1e-9)


def test_taper_zz_by_itself_gives_constant():
    zz = Z(0) * Z(1)
    plus = taper(zz, [PauliString({0: "Z", 1: "Z"})], [1])
    assert plus.width == 0
    assert plus.constant == pytest.approx(1.0)
    minus = taper(zz, [PauliString({0: "Z", 1: "Z"})], [-1])
    assert minus.constant == pytest.approx(-1.0)


def test_auto_sector_tfim_keeps_ground_energy():
    h = create_tfim(-1.0, -1.0, 3).hamiltonian
    symmetries = find_z2_symmetries(h)
    sector = auto_sector(h, symmetries)
    tapered = taper(h, symmetries, sector)
    assert tapered.width == 2
    assert exact_ground_energy(tapered) == pytest.approx(-3.49396, abs=1e-6)


def test_auto_sector_tie_breaks_to_plus_one():
    # Both sectors of X0X1 under the Z0Z1 symmetry have minimum -1.
    sector = auto_sector(X(0) * X(1), [PauliString({0: "Z", 1: "Z"})])
    assert sector == [1]


def test_auto_sector_no_symmetries_gives_empty_signs():
    assert auto_sector(X(0) + Z(0), []) == []


def test_find_z2_symmetries_rejects_a_register_narrower_than_the_operator():
    with pytest.raises(IndexTooLargeError):
        find_z2_symmetries(Z(0) * Z(3) + X(3) + X(1), 2)


def test_taper_rejects_non_symmetry():
    with pytest.raises(NotASymmetryError):
        taper(X(0) + Z(0), [PauliString({0: "Z"})], [1])


def test_taper_rejects_wrong_sector_arity():
    with pytest.raises(SectorArityMismatchError):
        taper(Z(0) * Z(1), [PauliString({0: "Z", 1: "Z"})], [1, 1])
    with pytest.raises(SectorArityMismatchError):
        taper(Z(0) * Z(1), [PauliString({0: "Z", 1: "Z"})], [2])


def test_taper_rejects_mutually_anticommuting_symmetries():
    # X0 and Z0 both commute with the 1-qubit identity-free Hamiltonian on
    # qubit 1 but anticommute with each other.
    h = Z(1)
    with pytest.raises(NotASymmetryError):
        taper(h, [PauliString({0: "X"}), PauliString({0: "Z"})], [1, 1])


def test_taper_rejects_dependent_symmetries():
    # Z0Z2 is the product of the other two, so it reduces to the identity.
    h = Z(0) * Z(1) + Z(1) * Z(2)
    symmetries = [PauliString({0: "Z", 1: "Z"}), PauliString({1: "Z", 2: "Z"})]
    with pytest.raises(SingularSystemError, match="product of the other"):
        taper(h, symmetries + [PauliString({0: "Z", 2: "Z"})], [1, 1, 1])
