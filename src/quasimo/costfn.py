"""Cost-function evaluation: exact expectation values or sampled partial
tomography, which measures each non-identity term P on its own.  The even
outcomes of ``shots`` +/-1 parity shots are Binomial(shots, p_even), p_even =
||psi + P psi||^2 / (||psi + P psi||^2 + ||psi - P psi||^2) = (1 + <P>)/2, so
each term is one binomial draw, estimated as (2*hits - shots)/shots.

Sampled tomography compiles an observable once per register width and keeps
the result on the operator (``PauliOperator._sampled``).  The measured terms
are grouped by x mask, each with its +/-1 sign row (-1)^popcount(k & z) and
its phase (-i)^#Y from ``simulator.pauli_rows``, the table QITE also reads,
so that (P psi)[k] = phase * sign[k] * psi[k ^ x].  A call
gathers psi[k ^ x] once per group and gets every term's ||psi +/- P psi||^2
in one vectorised pass; both are sums of squares, so p_even lies in [0, 1]
with no clamping.  Their sum is 4 ||psi||^2, which checks the state's norm
for free.  Each term's generator state, that of ``default_rng([seed, k])``,
is saved with the compiled form, and a draw restores it onto a generator the
calling thread owns, so the draws are those of a fresh ``default_rng``.
The compiled form keeps the sign rows and their negations as int8, 2 bytes
per measured term and amplitude.  A call takes a group's terms
max(1, ``CHUNK_AMPLITUDES`` >> n) at a time, so on a wide register its
temporaries stay a few times the state's size.
"""

import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .circuit import Circuit, WidthMismatchError
from .pauli import PauliOperator
from .simulator import SAMPLE_NORM_TOL, NonHermitianError, StateVector, expectation, pauli_rows, run

# numpy's binomial takes an int64 trial count: 2**63 - 1 draws, 2**63 overflows.
MAX_SHOTS = 2**63 - 1

# Sampled tomography takes a group's terms a few at a time, so that up to 16
# qubits each of its temporaries holds at most twice this many amplitudes.
CHUNK_AMPLITUDES = 1 << 16


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


class _Tomography(NamedTuple):
    """An observable's measured terms compiled for one register width.

    A term's slot is its row in ``signs`` and ``phases``; slots are ordered by
    x mask, then by term, so each group is a run of slots.
    """

    terms: tuple  # (coeff.real, slot) in terms() order; slot -1 for the constant
    streams: tuple  # per slot, the term's index k in terms()
    groups: tuple  # per x mask, (x mask, first slot, end slot)
    signs: np.ndarray  # (2, slots, 2^n) int8: +sign rows, then -sign rows
    phases: np.ndarray  # (slots, 1) complex: (-i)^#Y
    basis: np.ndarray  # arange(2^n)


def _compile_tomography(obs: PauliOperator, n: int) -> _Tomography:
    terms = obs.terms()
    measured = sorted(
        (string.x, k) for k, (string, _) in enumerate(terms) if not string.is_identity
    )
    slot_of = {k: slot for slot, (_, k) in enumerate(measured)}
    x, rows, phases = pauli_rows([terms[k][0] for _, k in measured], n)
    masks, starts = np.unique(x, return_index=True)  # x is sorted
    signs, phases, basis = np.stack([rows, -rows]), phases[:, None], np.arange(1 << n)
    for table in (signs, phases, basis):
        table.flags.writeable = False  # shared by every thread that evaluates obs
    return _Tomography(
        terms=tuple((coeff.real, slot_of.get(k, -1)) for k, (_, coeff) in enumerate(terms)),
        streams=tuple(k for _, k in measured),
        groups=tuple(zip(masks.tolist(), starts.tolist(), starts[1:].tolist() + [len(x)])),
        signs=signs,
        phases=phases,
        basis=basis,
    )


def _compiled_tomography(obs: PauliOperator, n: int, seed) -> tuple:
    """(compiled terms, saved generator state per slot), memoised on the
    operator for the last width and seed asked."""
    memo = obs._sampled
    if memo is not None and memo[0] == n:
        if memo[1] == seed:
            return memo[2], memo[3]
        plan = memo[2]
    else:
        plan = _compile_tomography(obs, n)
    states = tuple(np.random.default_rng([seed, k]).bit_generator.state for k in plan.streams)
    obs._sampled = (n, seed, plan, states)
    return plan, states


_THREAD = threading.local()


def _thread_generator():
    """The calling thread's own generator; every draw first overwrites its state."""
    generator = getattr(_THREAD, "generator", None)
    if generator is None:
        generator = _THREAD.generator = np.random.default_rng()
    return generator


def _tomography_state(state: StateVector, obs: PauliOperator, shots: int, seed) -> float:
    plan, states = _compiled_tomography(obs, state.num_qubits, seed)
    amps = state.amplitudes
    rows = max(1, CHUNK_AMPLITUDES >> state.num_qubits)
    # Row 0: ||psi + P psi||^2 per slot; row 1: ||psi - P psi||^2.
    norms = np.empty((2, len(plan.streams)))
    for x, start, stop in plan.groups:
        flipped = amps[plan.basis ^ x] if x else amps
        for lo in range(start, stop, rows):
            hi = min(lo + rows, stop)
            pair = plan.signs[:, lo:hi] * flipped
            pair *= plan.phases[lo:hi]
            pair += amps
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
    for coeff, slot in plan.terms:
        if slot < 0:
            # Constants are never measured.
            total += coeff
            continue
        bits.state = states[slot]
        hits = generator.binomial(shots, p_even[slot])
        total += coeff * (2 * hits - shots) / shots
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

    Holds no mutable state between calls.  Sampled evaluation memoises the
    observable's compiled form on the operator, replaced whole and never
    mutated, and draws from the calling thread's own generator, so concurrent
    evaluations are safe; distinct seeds give them independent draws.
    """

    def __init__(self, cfg: EvaluatorConfig = EvaluatorConfig()):
        self.cfg = cfg

    def evaluate(self, prep: Circuit, obs: PauliOperator) -> float:
        return evaluate(prep, obs, self.cfg)

    def evaluate_state(self, state: StateVector, obs: PauliOperator) -> float:
        return evaluate_state(state, obs, self.cfg)
