"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured figure of merit when its assertions hold."""

import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

import quasimo
from quasimo.ansatz import hardware_efficient, rx_ry, trotter_step
from quasimo.circuit import Circuit, cnot, h, x
from quasimo.cli import main as cli_main
from quasimo.costfn import EvaluatorConfig, evaluate
from quasimo.model import (
    HeisenbergParams,
    QuantumSimulationModel,
    bits_prep,
    create_from_parts,
    create_heisenberg,
    create_star_maxcut,
    create_tfim,
    load_h2_hamiltonian,
)
from quasimo.simulator import StateVector, run
from quasimo.tapering import auto_sector, find_z2_symmetries, taper
from quasimo.validation import exact_evolution, exact_ground_energy
from quasimo.workflow import get_workflow

from conftest import random_circuit, random_hermitian, random_state
from paper_data import QITE_ENERGY, STAGGERED_MAGNETIZATION, TFIM_GROUND_ENERGY


def neel_quench_model(g, num_spins=9):
    return create_heisenberg(
        HeisenbergParams(
            jz=g,
            num_spins=num_spins,
            initial_spins=[i % 2 for i in range(num_spins)],
        )
    )


@pytest.mark.parametrize("g", [0.0, 0.25, 4.0])
def test_criterion_1_heisenberg_quench(g):
    start = time.time()
    flow = get_workflow("time-dependent", {"dt": 0.05, "steps": 100})
    values = np.array(flow.execute(neel_quench_model(g))["exp-vals"])
    elapsed = time.time() - start
    reference = np.array(STAGGERED_MAGNETIZATION[g])
    early = np.max(np.abs(values[:6] - reference[:6]))
    rmse = float(np.sqrt(np.mean((values - reference) ** 2)))
    assert early < 5e-3
    assert rmse < 0.05
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 1 (g={g}): PASS  early-step max err {early:.2e} (<5e-3), "
        f"RMSE {rmse:.4f} (<0.05), {elapsed:.1f}s (<60s)"
    )


def test_criterion_2_trotter_error_halves_quadratically(rng):
    model = create_heisenberg(HeisenbergParams(jz=0.0, num_spins=5))

    def step_error(dt):
        step = trotter_step(model.hamiltonian, dt, 5)
        worst = 0.0
        for _ in range(6):
            state = StateVector(5, random_state(5, rng))
            approx = run(step, state)
            exact = exact_evolution(model.hamiltonian, state, dt)
            worst = max(worst, float(np.linalg.norm(approx.amplitudes - exact.amplitudes)))
        return worst

    ratio = step_error(0.05) / step_error(0.025)
    assert 3.0 < ratio < 5.0
    print(f"ACCEPTANCE 2: PASS  per-step error ratio dt/(dt/2) = {ratio:.2f} in [3, 5]")


def test_criterion_3_vqe_tapered_h2_nelder_mead():
    op = quasimo.parse("-0.328717 + 0.181289*X(0) - 0.787967*Z(0)")
    model = create_from_parts(rx_ry(), op, name="tapered-h2")
    start = time.time()
    flow = get_workflow("vqe", {"optimizer": "nelder-mead", "budget": 200})
    result = flow.execute(model)
    elapsed = time.time() - start
    error = abs(result["energy"] - (-1.13727017466))
    assert error < 1e-4
    assert result["evaluations"] < 200
    assert elapsed < 1.0
    print(
        f"ACCEPTANCE 3: PASS  energy {result['energy']:.10f}, err {error:.2e} (<1e-4), "
        f"{result['evaluations']} evals (<200), {elapsed:.2f}s (<1s)"
    )


def test_criterion_4_vqe_h2_spsa_best_of_five_seeds():
    h2 = load_h2_hamiltonian()
    # Reference point: H2 energies near -1.1456295 Ha quoted for other
    # operator variants belong to different integrals/offsets; the oracle
    # here is the bundled operator's own dense diagonalization,
    # -1.1372701743509.
    exact = exact_ground_energy(h2)
    reference_prep = Circuit(4, (x(0), x(2)))  # Hartree-Fock |1100> at theta=0
    circuit = reference_prep.compose(hardware_efficient(4, 1))
    model = create_from_parts(circuit, h2, name="h2")
    best = np.inf
    for seed in range(5):
        start_rng = np.random.default_rng([seed, 1234])
        initial = start_rng.uniform(-0.2, 0.2, circuit.num_params)
        flow = get_workflow(
            "vqe",
            {
                "optimizer": "spsa",
                "budget": 200,
                "seed": seed,
                "perturbation": 0.005,
                "initial-params": initial.tolist(),
            },
        )
        best = min(best, flow.execute(model)["energy"])
    error = best - exact
    assert error >= -1e-9  # variational bound
    assert error < 2e-3
    print(f"ACCEPTANCE 4: PASS  best-of-5 energy {best:.6f}, err {error:.2e} (<2e-3)")


def test_criterion_5_qaoa_star_graphs():
    start = time.time()
    for n, p in [(3, 2), (5, 2), (7, 2), (9, 2), (4, 3), (6, 3), (8, 3)]:
        flow = get_workflow(
            "qaoa",
            {
                "steps": p,
                "optimizer": "nelder-mead",
                "starts": 10,
                "seed": 7,
                "budget": 400,
            },
        )
        energy = flow.execute(create_star_maxcut(n))["energy"]
        ground = -(n - 1)
        tolerance = 1e-2 if n % 2 else 0.05 * abs(ground)
        assert abs(energy - ground) < tolerance, (n, p, energy)
    elapsed = time.time() - start
    assert elapsed < 300.0
    print(f"ACCEPTANCE 5: PASS  7 star graphs at p=2/3 within tolerance, {elapsed:.0f}s (<300s)")


def test_criterion_6_qite_tfim_initial_states():
    preparations = {
        "000": bits_prep([0, 0, 0]),
        "100": bits_prep([1, 0, 0]),
        "110": bits_prep([1, 1, 0]),
        "ghz": Circuit(3, (h(0), cnot(0, 1), cnot(0, 2))),
    }
    step_zero = {"000": -2.0, "100": 0.0, "110": 0.0, "ghz": -2.0}
    tfim = create_tfim(-1.0, -1.0, 3)
    start = time.time()
    for label, prep in preparations.items():
        model = QuantumSimulationModel(observable=tfim.hamiltonian, state_prep=prep)
        flow = get_workflow("qite", {"steps": 20, "step-size": 0.45})
        values = np.array(flow.execute(model)["exp-vals"])
        assert values[0] == pytest.approx(step_zero[label], abs=1e-12)
        assert abs(values[-1] - TFIM_GROUND_ENERGY) < 1e-2
        assert np.max(np.diff(values)) < 1e-3
        assert len(values) == len(QITE_ENERGY[label])
    elapsed = time.time() - start
    assert elapsed < 120.0
    print(
        f"ACCEPTANCE 6: PASS  4 initial states converge to {TFIM_GROUND_ENERGY} "
        f"within 1e-2, non-increasing, exact step-0 energies, {elapsed:.1f}s (<120s)"
    )


def test_criterion_7_tapering_preserves_spectra():
    cases = {"tfim3": (create_tfim(-1.0, -1.0, 3).hamiltonian, 3),
             "h2": (load_h2_hamiltonian(), 4)}
    for label, (hamiltonian, n) in cases.items():
        symmetries = find_z2_symmetries(hamiltonian, n)
        full = np.sort(np.linalg.eigvalsh(hamiltonian.to_matrix(n)))
        union = []
        for sector in itertools.product((1, -1), repeat=len(symmetries)):
            tapered = taper(hamiltonian, symmetries, sector)
            union.extend(np.linalg.eigvalsh(tapered.to_matrix(n - len(symmetries))))
        assert np.allclose(np.sort(union), full, atol=1e-10), label
        chosen = auto_sector(hamiltonian, symmetries)
        tapered = taper(hamiltonian, symmetries, chosen)
        assert exact_ground_energy(tapered, max(tapered.width, 1)) == pytest.approx(
            full[0], abs=1e-10
        ), label
    print(
        "ACCEPTANCE 7: PASS  union-of-sectors spectrum == full spectrum and "
        "auto_sector preserves ground energy (TFIM3, H2) within 1e-10"
    )


def test_criterion_8_tomography_convergence(rng):
    shots = 10**5
    within = 0
    for trial in range(20):
        prep = random_circuit(3, 15, rng)
        observable = random_hermitian(3, 5, rng)
        exact = evaluate(prep, observable, EvaluatorConfig())
        estimate = evaluate(
            prep, observable, EvaluatorConfig(shots=shots, seed=trial)
        )
        bound = 4 * sum(abs(c) for s, c in observable.terms() if not s.is_identity)
        bound /= np.sqrt(shots)
        within += abs(estimate - exact) < bound
    assert within >= 19
    print(f"ACCEPTANCE 8: PASS  {within}/20 runs within 4*sum|c|/sqrt(shots) (need >=19)")


def test_criterion_9_cli_determinism(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "model": {"kind": "star-maxcut", "num_qubits": 4},
                "workflow": {
                    "name": "qaoa",
                    "steps": 2,
                    "optimizer": "nelder-mead",
                    "starts": 3,
                    "budget": 120,
                },
                "output": {"csv": "out.csv"},
            }
        )
    )
    for label in ("first", "second"):
        code = cli_main(
            [
                "run",
                "--config",
                str(config_path),
                "--seed",
                "21",
                "--out",
                str(tmp_path / label),
                "--quiet",
            ]
        )
        assert code == 0
    first = (tmp_path / "first" / "out.csv").read_bytes()
    second = (tmp_path / "second" / "out.csv").read_bytes()
    assert first == second
    print(f"ACCEPTANCE 9: PASS  repeated seeded CLI runs byte-identical ({len(first)} bytes)")


def test_criterion_9_time_dependent_cli_determinism(tmp_path):
    # A 9-spin chain: its Trotter step's low blocks run as BLAS matrix products.
    config = Path(__file__).resolve().parent.parent / "configs" / "heisenberg_quench_g025.json"
    for label in ("first", "second"):
        code = cli_main(
            ["run", "--config", str(config), "--out", str(tmp_path / label), "--quiet"]
        )
        assert code == 0
    first = (tmp_path / "first" / "heisenberg_g025.csv").read_bytes()
    second = (tmp_path / "second" / "heisenberg_g025.csv").read_bytes()
    assert first == second
    print(f"ACCEPTANCE 9: PASS  repeated time-dependent CLI runs byte-identical ({len(first)} bytes)")
