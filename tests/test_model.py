import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasimo.ansatz import hardware_efficient, rx_ry
from quasimo.circuit import Circuit
from quasimo.model import (
    HeisenbergParams,
    MissingObservableError,
    ModelBuilder,
    QuantumSimulationModel,
    UnknownModelError,
    UnknownObservableError,
    bits_prep,
    create_from_parts,
    create_heisenberg,
    create_model,
    create_star_maxcut,
    create_tfim,
    list_models,
    load_h2_hamiltonian,
    staggered_magnetization,
)
from quasimo.pauli import PauliOperator, PauliString, X, Y, Z, parse
from quasimo.simulator import expectation, run
from quasimo.validation import exact_ground_energy


def test_heisenberg_term_count_three_spins():
    model = create_heisenberg(HeisenbergParams(jz=0.7, num_spins=3))
    two_qubit = [s for s, _ in model.hamiltonian.terms() if len(s.support) == 2]
    assert len(two_qubit) == 6  # 2 bonds x 3 axes


def test_heisenberg_neel_prep_has_unit_staggered_magnetization():
    params = HeisenbergParams(num_spins=9, initial_spins=[i % 2 for i in range(9)])
    model = create_heisenberg(params)
    state = run(model.state_prep)
    assert expectation(state, model.observable) == pytest.approx(1.0, abs=1e-12)


def test_heisenberg_no_external_field_means_no_single_z():
    model = create_heisenberg(HeisenbergParams(num_spins=4, h_ext=0.0))
    assert all(len(s.support) == 2 for s, _ in model.hamiltonian.terms())
    with_field = create_heisenberg(HeisenbergParams(num_spins=4, h_ext=0.3))
    singles = [s for s, _ in with_field.hamiltonian.terms() if len(s.support) == 1]
    assert len(singles) == 4


def test_heisenberg_unknown_observable():
    with pytest.raises(UnknownObservableError):
        create_heisenberg(HeisenbergParams(num_spins=2, observable_name="bogus"))


def test_tfim_matches_explicit_operator():
    model = create_tfim(-1.0, -1.0, 3)
    explicit = -(Z(0) * Z(1) + Z(1) * Z(2) + X(0) + X(1) + X(2))
    assert model.hamiltonian.isclose(explicit)
    assert model.hamiltonian.num_terms == 5


def test_tfim_energy_of_000():
    model = create_tfim(-1.0, -1.0, 3)
    assert expectation(run(Circuit(3)), model.hamiltonian) == pytest.approx(-2.0)


def test_tfim_two_spin_ground_energy_closed_form():
    jz, hx = -0.8, 0.5
    model = create_tfim(jz, hx, 2)
    assert exact_ground_energy(model.hamiltonian) == pytest.approx(
        -np.sqrt(jz**2 + 4 * hx**2)
    )


def test_star_maxcut_two_qubits():
    model = create_star_maxcut(2)
    assert model.hamiltonian.isclose(-0.5 + 0.5 * (Z(0) * Z(1)))
    assert exact_ground_energy(model.hamiltonian) == pytest.approx(-1.0)


def test_star_maxcut_eight_qubits():
    model = create_star_maxcut(8)
    assert model.hamiltonian.constant == pytest.approx(-3.5)
    zz_terms = [s for s, _ in model.hamiltonian.terms() if not s.is_identity]
    assert len(zz_terms) == 7
    assert exact_ground_energy(model.hamiltonian) == pytest.approx(-7.0, abs=1e-10)


@pytest.mark.parametrize("n", range(2, 9))
def test_star_maxcut_ground_energy_is_minus_n_minus_1(n):
    model = create_star_maxcut(n)
    assert exact_ground_energy(model.hamiltonian) == pytest.approx(-(n - 1), abs=1e-10)


def test_star_maxcut_five_qubit_minimum():
    assert exact_ground_energy(create_star_maxcut(5).hamiltonian) == pytest.approx(-4.0)


def test_factory_hamiltonians_are_hermitian_with_real_coefficients():
    models = [
        create_heisenberg(HeisenbergParams(num_spins=3, h_ext=0.2)),
        create_tfim(-1.0, -1.0, 4),
        create_star_maxcut(5),
    ]
    for model in models:
        assert model.hamiltonian.is_hermitian
        assert all(abs(c.imag) < 1e-12 for _, c in model.hamiltonian.terms())


def test_create_from_parts_tapered_h2():
    op = parse("-0.328717 + 0.181289*X(0) - 0.787967*Z(0)")
    model = create_from_parts(rx_ry(), op)
    assert model.num_params == 2
    assert model.hamiltonian is model.observable


def test_create_from_parts_empty_ansatz_z_observable():
    model = create_from_parts(Circuit(1), Z(0))
    assert expectation(run(model.state_prep), model.observable) == 1.0


def test_create_from_parts_h2_hardware_efficient():
    model = create_from_parts(hardware_efficient(4, 2), load_h2_hamiltonian())
    assert model.num_params == 16
    assert model.num_qubits == 4


def test_model_width_validation():
    with pytest.raises(ValueError):
        create_from_parts(Circuit(1), Z(3))


def test_zero_qubit_prep_is_rejected_under_a_qubit_observable():
    with pytest.raises(ValueError):
        QuantumSimulationModel(observable=Z(0), state_prep=Circuit(0))


def test_zero_qubit_prep_widens_to_one_qubit_for_a_constant_observable():
    model = QuantumSimulationModel(
        observable=PauliOperator.identity(2.0), state_prep=Circuit(0)
    )
    assert model.state_prep == Circuit(1)
    assert model.num_qubits == 1


@pytest.mark.parametrize(
    "model, width",
    [
        (QuantumSimulationModel(observable=Z(0)), 1),
        (QuantumSimulationModel(observable=PauliOperator.identity(1.0)), 1),
        (create_star_maxcut(8), 8),
    ],
)
def test_model_without_prep_gets_an_empty_register_wide_circuit(model, width):
    assert model.state_prep == Circuit(width)
    assert model.num_qubits == width
    assert model.num_params == 0


def test_builder_assembles_same_model_as_factory():
    op = Z(0) * Z(1)
    built = (
        ModelBuilder()
        .set_observable(op)
        .set_state_prep(bits_prep([1, 0]))
        .set_name("pair")
        .build()
    )
    assert built.observable == op
    assert built.hamiltonian == op
    assert built.num_params == 0


def test_builder_distinct_hamiltonian():
    built = (
        ModelBuilder().set_observable(Z(0)).set_hamiltonian(X(0) + Z(0)).build()
    )
    assert built.observable != built.hamiltonian


def test_builder_requires_observable():
    with pytest.raises(MissingObservableError):
        ModelBuilder().set_state_prep(Circuit(1)).build()


def test_bundled_h2_hamiltonian():
    h2 = load_h2_hamiltonian()
    assert h2.num_terms == 15
    assert h2.coefficient(PauliString({3: "Z"})) == pytest.approx(-0.22278593024287607)
    assert exact_ground_energy(h2) == pytest.approx(-1.1372701743508975, abs=1e-12)


def test_create_model_factory_keys():
    model = create_model(
        "heisenberg",
        {"Jx": 1.0, "Jy": 1.0, "Jz": 0.25, "h_ext": 0.0, "num_spins": 3,
         "initial_spins": [0, 1, 0], "observable": "staggered_magnetization"},
    )
    assert model.name == "heisenberg"
    with pytest.raises(UnknownModelError):
        create_model("heisenberg", {"Jq": 1.0})
    with pytest.raises(UnknownModelError):
        create_model("bogus")


def test_list_models():
    assert list_models() == ["h2", "heisenberg", "star-maxcut", "tfim"]


@pytest.mark.parametrize("spins", [[0, 2, 1], [0, -1, 1], [0, True, 1]])
def test_spin_entries_other_than_0_and_1_raise(spins):
    with pytest.raises(ValueError, match="0 or 1"):
        HeisenbergParams(num_spins=3, initial_spins=spins)
    with pytest.raises(ValueError, match="0 or 1"):
        bits_prep(spins)


def test_integral_spin_spellings_convert():
    assert HeisenbergParams(num_spins=3, initial_spins=[1.0, "0", 1]).initial_spins == [1, 0, 1]
    assert bits_prep([1.0, "0", 1]) == bits_prep([1, 0, 1])


def test_tfim_refuses_both_initial_state_keys():
    options = {"num_spins": 3, "initial_spins": [1, 0, 0], "initial-state": "ghz"}
    with pytest.raises(ValueError, match="'initial_spins' and 'initial-state'"):
        create_model("tfim", options)


# The builders assemble each operator in one constructor call.  These
# references grow it one term at a time through ``+``, an independent path;
# the two must agree coefficient for coefficient (``==`` is exact).


def heisenberg_reference(jx, jy, jz, h_ext, n):
    h = PauliOperator.zero()
    for i in range(n - 1):
        h = h + jx * (X(i) * X(i + 1))
        h = h + jy * (Y(i) * Y(i + 1))
        h = h + jz * (Z(i) * Z(i + 1))
    if h_ext != 0.0:
        for i in range(n):
            h = h + h_ext * Z(i)
    return h


def staggered_reference(n):
    op = PauliOperator.zero()
    for i in range(n):
        op = op + ((-1) ** i) * Z(i)
    return (1.0 / n) * op


def tfim_reference(jz, hx, n):
    h = PauliOperator.zero()
    for i in range(n - 1):
        h = h + jz * (Z(i) * Z(i + 1))
    for i in range(n):
        h = h + hx * X(i)
    return h


def star_reference(n):
    h = PauliOperator.zero()
    for k in range(1, n):
        h = h + (-0.5) * (PauliOperator.identity(1.0) - Z(0) * Z(k))
    return h


couplings = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 0.25, 1e-13]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 24), couplings, couplings, couplings,
    st.one_of(st.just(0.0), couplings), st.sampled_from(["staggered_magnetization", "energy"]),
)
def test_heisenberg_matches_the_term_by_term_reference(n, jx, jy, jz, h_ext, observable):
    params = HeisenbergParams(jx=jx, jy=jy, jz=jz, h_ext=h_ext, num_spins=n,
                              observable_name=observable)
    model = create_heisenberg(params)
    h = heisenberg_reference(jx, jy, jz, h_ext, n)
    assert model.hamiltonian == h
    assert model.observable == (h if observable == "energy" else staggered_reference(n))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 24), couplings, couplings)
def test_tfim_and_star_match_the_term_by_term_references(n, jz, hx):
    assert create_tfim(jz, hx, n).hamiltonian == tfim_reference(jz, hx, n)
    assert create_star_maxcut(n).observable == star_reference(n)
    assert staggered_magnetization(n) == staggered_reference(n)


@pytest.mark.parametrize(
    "kind, options",
    [
        ("heisenberg", lambda n: {"num_spins": n, "h_ext": 0.3}),
        ("heisenberg", lambda n: {"num_spins": n, "h_ext": 0.3, "observable": "energy"}),
        ("tfim", lambda n: {"num_spins": n}),
        ("star-maxcut", lambda n: {"num_qubits": n}),
    ],
    ids=["heisenberg-staggered", "heisenberg-energy", "tfim", "star-maxcut"],
)
def test_create_model_constructs_as_many_operators_at_24_qubits_as_at_4(
    kind, options, monkeypatch
):
    constructed = []
    init = PauliOperator.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(kind)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PauliOperator, "__init__", counting_init)
    counts = []
    for n in (4, 24):
        constructed.clear()
        create_model(kind, options(n))
        counts.append(len(constructed))
    assert counts[0] == counts[1] > 0
