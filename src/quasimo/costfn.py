"""Cost-function evaluation: exact expectation values or sampled partial
tomography with per-term change-of-basis measurements."""

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, basis_change_gates
from .pauli import PauliOperator
from .simulator import NonHermitianError, StateVector, apply_gate, expectation, run

MODES = ("exact", "tomography")


@dataclass(frozen=True)
class EvaluatorConfig:
    """How to turn (state, observable) into a number.

    ``shots`` is the per-term budget in tomography mode.  ``seed`` makes
    sampling deterministic; term k of a given evaluation draws from the
    PCG64 stream seeded with (seed, k).
    """

    mode: str = "exact"
    shots: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "tomography" and self.shots < 1:
            raise ValueError("tomography mode needs shots >= 1")


def _parity_signs(num_qubits: int, mask: int) -> np.ndarray:
    """(-1)^popcount(k & mask) for every basis index k."""
    masked = np.arange(2**num_qubits, dtype=np.uint64) & np.uint64(mask)
    return np.where(np.bitwise_count(masked) % 2 == 0, 1.0, -1.0)


def _tomography_state(state: StateVector, obs: PauliOperator, shots: int, seed) -> float:
    n = state.num_qubits
    total = 0.0
    for k, (string, coeff) in enumerate(obs.terms()):
        if string.is_identity:
            # Constants are never measured.
            total += coeff.real
            continue
        amps = state.amplitudes
        for gate in basis_change_gates(string):
            amps = apply_gate(amps, gate, n)
        probs = np.abs(amps) ** 2
        probs = probs / probs.sum()
        rng = np.random.default_rng([seed, k])
        counts = rng.multinomial(shots, probs)
        parity = _parity_signs(n, string.x | string.z)
        total += coeff.real * float(counts @ parity) / shots
    return total


def evaluate_state(state: StateVector, obs: PauliOperator, cfg: EvaluatorConfig) -> float:
    """Expectation of ``obs`` in a prepared state, per the evaluator config."""
    if not obs.is_hermitian:
        raise NonHermitianError("cost evaluation requires a Hermitian observable")
    if cfg.mode == "exact":
        return expectation(state, obs)
    return _tomography_state(state, obs, cfg.shots, cfg.seed)


def evaluate(prep: Circuit, obs: PauliOperator, cfg: EvaluatorConfig) -> float:
    """Run a fully bound state-prep circuit and evaluate ``obs``.

    Exact mode computes <psi|obs|psi> from the statevector.  Tomography mode
    appends each term's change-of-basis gates, samples ``cfg.shots``
    bitstrings, and averages the +/-1 parity over the term's support;
    constant terms are added analytically.
    """
    width = max(prep.num_qubits, obs.width)
    if width > prep.num_qubits:
        prep = Circuit(width, prep.ops, prep.num_params)
    return evaluate_state(run(prep), obs, cfg)


class CostFunctionEvaluator:
    """An EvaluatorConfig bundled with its evaluate calls.

    Holds no mutable state between calls; concurrent evaluations only need
    distinct seeds.
    """

    def __init__(self, cfg: EvaluatorConfig = EvaluatorConfig()):
        self.cfg = cfg

    def evaluate(self, prep: Circuit, obs: PauliOperator) -> float:
        return evaluate(prep, obs, self.cfg)

    def evaluate_state(self, state: StateVector, obs: PauliOperator) -> float:
        return evaluate_state(state, obs, self.cfg)
