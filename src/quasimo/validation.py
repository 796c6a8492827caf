"""Exact classical oracles and result-acceptance checks."""

from dataclasses import dataclass

import numpy as np

from .pauli import PauliOperator, TooManyQubitsError
from .simulator import StateVector

EXACT_EVOLUTION_MAX_QUBITS = 10


class MissingKeyError(KeyError):
    """The result lacks a key referenced by the validation criteria."""


def exact_ground_energy(hamiltonian: PauliOperator, num_qubits: int = None) -> float:
    """Minimum eigenvalue via dense Hermitian diagonalisation (n <= 12)."""
    matrix = hamiltonian.to_matrix(num_qubits)
    return float(np.linalg.eigvalsh(matrix).min())


def exact_evolution(hamiltonian: PauliOperator, initial: StateVector, t: float) -> StateVector:
    """e^{-iHt}|psi> by eigendecomposition of the dense Hamiltonian."""
    n = initial.num_qubits
    if n > EXACT_EVOLUTION_MAX_QUBITS:
        raise TooManyQubitsError(
            f"exact evolution capped at {EXACT_EVOLUTION_MAX_QUBITS} qubits, got {n}"
        )
    matrix = hamiltonian.to_matrix(n)
    eigvals, eigvecs = np.linalg.eigh(matrix)
    phases = np.exp(-1j * eigvals * t)
    amps = eigvecs @ (phases * (eigvecs.conj().T @ initial.amplitudes))
    return StateVector(n, amps)


MEASURES = ("abs-diff", "rmse")


@dataclass(frozen=True)
class ValidationCriteria:
    """A distance measure, a reference, and a threshold to compare against.

    ``key`` names the WorkflowResult entry to check; ``reference`` is a
    scalar for "abs-diff" or a series for "rmse".
    """

    measure: str
    threshold: float
    reference: object
    key: str = "energy"

    def __post_init__(self):
        if self.measure not in MEASURES:
            raise ValueError(f"measure must be one of {MEASURES}, got {self.measure!r}")
        if not self.threshold > 0:
            raise ValueError(f"threshold must be positive, got {self.threshold}")


def distance(measure: str, value, reference) -> float:
    if measure == "abs-diff":
        return float(abs(float(value) - float(reference)))
    value = np.asarray(value, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if value.shape != reference.shape:
        raise ValueError(
            f"rmse needs series of equal length, got {value.shape} vs {reference.shape}"
        )
    if value.size == 0:
        raise ValueError("rmse needs non-empty series; the value and reference are both empty")
    return float(np.sqrt(np.mean((value - reference) ** 2)))


def accept_results(result, criteria: ValidationCriteria) -> tuple:
    """Binary accept/reject plus the measured distance.

    Raises:
        MissingKeyError: the result has no entry under criteria.key.
    """
    if criteria.key not in result:
        raise MissingKeyError(criteria.key)
    measured = distance(criteria.measure, result[criteria.key], criteria.reference)
    return measured <= criteria.threshold, measured


class QuantumValidationModel:
    """Extension point for custom validation protocols: implement
    accept_results(result) -> (accepted, measured distance)."""

    def accept_results(self, result) -> tuple:
        raise NotImplementedError


class CriteriaValidationModel(QuantumValidationModel):
    """Validates against fixed ValidationCriteria."""

    def __init__(self, criteria: ValidationCriteria):
        self.criteria = criteria

    def accept_results(self, result) -> tuple:
        return accept_results(result, self.criteria)


class AlwaysAcceptValidationModel(QuantumValidationModel):
    """No-op sample implementation of the extension interface."""

    def accept_results(self, result) -> tuple:
        return True, 0.0
