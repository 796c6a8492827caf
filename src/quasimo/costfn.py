"""Cost-function evaluation: exact expectation values or sampled partial
tomography, which measures each non-identity term P on its own.  The even
outcomes of ``shots`` +/-1 parity shots are Binomial(shots, p_even), p_even =
||psi + P psi||^2 / (||psi + P psi||^2 + ||psi - P psi||^2) = (1 + <P>)/2, so
each term is one binomial draw, estimated as (2*hits - shots)/shots.

``simulator.parity_masses`` computes every term's p_even from the
observable's compiled form; this module only draws.  A draw restores the
starting state of ``default_rng([seed, k])``, saved per (seed, term count),
onto the calling thread's own generator, so it draws what a fresh one would.
"""

import functools
import threading
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit
from .optimizer import config_value
from .pauli import PauliOperator
from .simulator import NonHermitianError, StateVector, expectation, parity_masses, run

# numpy's binomial takes an int64 trial count: 2**63 - 1 draws, 2**63 overflows.
MAX_SHOTS = 2**63 - 1


@dataclass(frozen=True)
class EvaluatorConfig:
    """How to turn (state, observable) into a number.

    ``shots == 0`` is exact; ``1 <= shots <= MAX_SHOTS`` is the per-term
    tomography budget; ``seed >= 0``.
    ``seed`` makes sampling deterministic; term k of a given evaluation draws
    from the PCG64 stream seeded with (seed, k).  Its starting state is saved
    once per (seed, term count), whatever the observable, and restored before
    every draw, so each evaluation draws the same numbers as a fresh
    ``default_rng([seed, k])``.  Both fields convert through
    ``optimizer.as_int``: a bool or a non-integral number raises a ValueError
    naming the field.
    """

    shots: int = 0
    seed: int = 0

    def __post_init__(self):
        for name in ("shots", "seed"):
            if type(getattr(self, name)) is not int:  # a plain int needs no conversion
                object.__setattr__(self, name, config_value(vars(self), name, int))
        if not 0 <= self.shots <= MAX_SHOTS:
            raise ValueError(f"evaluator 'shots' must be in [0, 2**63 - 1], got {self.shots!r}")
        if self.seed < 0:
            raise ValueError(f"evaluator 'seed' must be >= 0, got {self.seed!r}")


_THREAD = threading.local()


def _thread_generator():
    """The calling thread's own generator; every draw first overwrites its state."""
    generator = getattr(_THREAD, "generator", None)
    if generator is None:
        generator = _THREAD.generator = np.random.default_rng()
    return generator


# An entry holds one saved generator state per term, about 530 B each
# (tracemalloc): H2's 15 terms take 8 kB, so 64 seeds of it cost about 0.5 MB.
@functools.lru_cache(maxsize=64)
def _stream_states(seed: int, count: int) -> tuple:
    """The starting states of ``default_rng([seed, k])`` for k < ``count``,
    shared by every observable of ``count`` terms: read, never modify them."""
    return tuple(np.random.default_rng([seed, k]).bit_generator.state for k in range(count))


def _tomography_state(state: StateVector, obs: PauliOperator, shots: int, seed) -> float:
    generator = _thread_generator()
    bits = generator.bit_generator
    masses = parity_masses(state.amplitudes, obs, state.num_qubits)
    total = 0.0
    for (coeff, p_even), stream in zip(masses, _stream_states(seed, len(masses))):
        if p_even is None:
            # Constants are never measured.
            total += coeff
            continue
        bits.state = stream
        hits = generator.binomial(shots, p_even)
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
    observable's compiled form on the operator, saves the (seed, k) states
    per term count for all observables, and draws from the calling thread's
    own generator, so concurrent evaluations are safe; distinct seeds give them
    independent draws.
    """

    def __init__(self, cfg: EvaluatorConfig = EvaluatorConfig()):
        self.cfg = cfg

    def evaluate(self, prep: Circuit, obs: PauliOperator) -> float:
        return evaluate(prep, obs, self.cfg)

    def evaluate_state(self, state: StateVector, obs: PauliOperator) -> float:
        return evaluate_state(state, obs, self.cfg)
