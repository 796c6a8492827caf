"""Cost-function evaluation: exact expectation values or sampled partial
tomography, which measures each non-identity term P on its own.  The even
outcomes of ``shots`` +/-1 parity shots are Binomial(shots, p_even), p_even =
||psi + P psi||^2 / (||psi + P psi||^2 + ||psi - P psi||^2) = (1 + <P>)/2, so
each term is one binomial draw, estimated as (2*hits - shots)/shots."""

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, WidthMismatchError
from .pauli import PauliOperator
from .simulator import NonHermitianError, StateVector, apply_pauli_string, expectation, run

# numpy's binomial takes an int64 trial count: 2**63 - 1 draws, 2**63 overflows.
MAX_SHOTS = 2**63 - 1


@dataclass(frozen=True)
class EvaluatorConfig:
    """How to turn (state, observable) into a number.

    ``shots == 0`` is exact; ``1 <= shots <= MAX_SHOTS`` is the per-term
    tomography budget.
    ``seed`` makes sampling deterministic; term k of a given evaluation draws
    from the PCG64 stream seeded with (seed, k).
    """

    shots: int = 0
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.shots <= MAX_SHOTS:
            raise ValueError(f"evaluator 'shots' must be in [0, 2**63 - 1], got {self.shots!r}")


def _tomography_state(state: StateVector, obs: PauliOperator, shots: int, seed) -> float:
    amps, n = state.amplitudes, state.num_qubits
    total = 0.0
    for k, (string, coeff) in enumerate(obs.terms()):
        if string.is_identity:
            # Constants are never measured.
            total += coeff.real
            continue
        flipped = apply_pauli_string(amps, string, n)
        plus, minus = amps + flipped, amps - flipped
        even, odd = np.vdot(plus, plus).real, np.vdot(minus, minus).real
        hits = np.random.default_rng([seed, k]).binomial(shots, even / (even + odd))
        total += coeff.real * (2 * hits - shots) / shots
    return total


def evaluate_state(state: StateVector, obs: PauliOperator, cfg: EvaluatorConfig) -> float:
    """Expectation of ``obs`` in a prepared state, per the evaluator config."""
    if not obs.is_hermitian:
        raise NonHermitianError("cost evaluation requires a Hermitian observable")
    if obs.width > state.num_qubits:
        raise WidthMismatchError(
            f"operator touches qubit {obs.width - 1} on a {state.num_qubits}-qubit state"
        )
    if cfg.shots == 0:
        return expectation(state, obs)
    return _tomography_state(state, obs, cfg.shots, cfg.seed)


def evaluate(prep: Circuit, obs: PauliOperator, cfg: EvaluatorConfig) -> float:
    """Run a fully bound state-prep circuit, padded to ``obs``'s width, and
    evaluate ``obs``; constant terms are exact in either mode."""
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
