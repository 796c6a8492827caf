"""Cost-function evaluation: exact expectation values or sampled partial
tomography, which measures each non-identity term P on its own.  The even
outcomes of ``shots`` +/-1 parity shots are Binomial(shots, p_even), p_even =
||psi + P psi||^2 / (||psi + P psi||^2 + ||psi - P psi||^2) = (1 + <P>)/2, so
each term is one binomial draw, estimated as (2*hits - shots)/shots.

Sampled tomography reads the observable's one compiled form
(``simulator.compile_observable``), in which (P psi)[k] = phase * sign[k] *
psi[k ^ x] per x-mask group.  A call gathers psi[k ^ x] once per group and
gets every term's ||psi +/- P psi||^2 in one vectorised pass, max(1,
``CHUNK_AMPLITUDES`` >> n) terms at a time; both are sums of squares, so
p_even lies in [0, 1] unclamped, and their sum, 4 ||psi||^2, checks the
state's norm for free.  A draw restores the term's generator state, that of
``default_rng([seed, k])`` saved per seed with the compiled form, onto the
calling thread's own generator, so it draws what a fresh one would.
"""

import threading
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit
from .pauli import PauliOperator
from .simulator import (
    CHUNK_AMPLITUDES,
    SAMPLE_NORM_TOL,
    NonHermitianError,
    StateVector,
    compile_observable,
    expectation,
    run,
    xor_gather,
)

# numpy's binomial takes an int64 trial count: 2**63 - 1 draws, 2**63 overflows.
MAX_SHOTS = 2**63 - 1


@dataclass(frozen=True)
class EvaluatorConfig:
    """How to turn (state, observable) into a number.

    ``shots == 0`` is exact; ``1 <= shots <= MAX_SHOTS`` is the per-term
    tomography budget.
    ``seed`` makes sampling deterministic; term k of a given evaluation draws
    from the PCG64 stream seeded with (seed, k).  The stream's starting state
    is saved once per observable and seed and restored before every draw, so
    each evaluation draws the same numbers as a fresh ``default_rng([seed, k])``.
    """

    shots: int = 0
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.shots <= MAX_SHOTS:
            raise ValueError(f"evaluator 'shots' must be in [0, 2**63 - 1], got {self.shots!r}")


_THREAD = threading.local()


def _thread_generator():
    """The calling thread's own generator; every draw first overwrites its state."""
    generator = getattr(_THREAD, "generator", None)
    if generator is None:
        generator = _THREAD.generator = np.random.default_rng()
    return generator


def _tomography_state(state: StateVector, obs: PauliOperator, shots: int, seed) -> float:
    n = state.num_qubits
    compiled = compile_observable(obs, n, seed)
    amps = state.amplitudes
    at_once = max(1, CHUNK_AMPLITUDES >> n)
    # Row 0: ||psi + P psi||^2 per slot; row 1: ||psi - P psi||^2.
    norms = np.empty((2, len(compiled.coeffs)))
    for x, start, stop, rows in compiled.groups:
        flipped = xor_gather(amps, x, n) if x else amps
        for lo in range(start, stop, at_once):
            hi = min(lo + at_once, stop)
            pair = np.empty((2, hi - lo, len(amps)), dtype=complex)
            np.multiply(rows[lo - start : hi - start], flipped, out=pair[1])  # P psi
            pair[1] *= compiled.phases[lo:hi]
            np.add(amps, pair[1], out=pair[0])
            np.subtract(amps, pair[1], out=pair[1])
            parts = pair.view(np.float64)
            np.einsum("ijk,ijk->ij", parts, parts, out=norms[:, lo:hi])
    mass = norms[0] + norms[1]  # 4 ||psi||^2, once per term
    for squared_norm in (mass * 0.25).tolist():
        if not abs(squared_norm - 1.0) <= SAMPLE_NORM_TOL:  # also catches NaN
            raise ValueError(
                f"sampled tomography needs a normalised state: squared norm is "
                f"{squared_norm!r}, not within {SAMPLE_NORM_TOL} of 1"
            )
    p_even = (norms[0] / mass).tolist()
    generator = _thread_generator()
    bits = generator.bit_generator
    total = 0.0
    for (coeff, slot), saved in zip(compiled.terms, compiled.streams[seed]):
        if slot < 0:
            # Constants are never measured.
            total += coeff
            continue
        bits.state = saved
        hits = generator.binomial(shots, p_even[slot])
        total += coeff * (2 * hits - shots) / shots
    return total


def evaluate_state(state: StateVector, obs: PauliOperator, cfg: EvaluatorConfig) -> float:
    """Expectation of ``obs`` in a prepared state, per the evaluator config."""
    if not obs.is_hermitian:
        raise NonHermitianError("cost evaluation requires a Hermitian observable")
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

    Holds no mutable state between calls.  Sampled evaluation memoises the
    observable's compiled form on the operator, replaced whole, adds a seed's
    saved states once, and draws from the calling thread's own generator, so
    concurrent evaluations are safe; distinct seeds give them independent draws.
    """

    def __init__(self, cfg: EvaluatorConfig = EvaluatorConfig()):
        self.cfg = cfg

    def evaluate(self, prep: Circuit, obs: PauliOperator) -> float:
        return evaluate(prep, obs, self.cfg)

    def evaluate_state(self, state: StateVector, obs: PauliOperator) -> float:
        return evaluate_state(state, obs, self.cfg)
