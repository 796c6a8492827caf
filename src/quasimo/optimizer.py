"""Derivative-free optimizers for variational loops: SPSA and Nelder-Mead.

Both are budgeted by objective evaluations, record every evaluation in a
trace, and report the best point ever evaluated, so the reported value can
never be worse than any point actually visited.
"""

import math
from array import array
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

SPSA_ALPHA = 0.602
SPSA_GAMMA = 0.101
SPSA_PERTURBATION = 0.1
SPSA_CALIBRATION_PROBES = 25
SPSA_TARGET_FIRST_STEP = 2 * np.pi / 10


class BudgetTooSmallError(ValueError):
    """The evaluation budget cannot cover the method's minimum cost."""


class NonFiniteObjectiveError(ValueError):
    """The objective returned NaN or an infinity."""


class Trace(Sequence):
    """Every objective value in evaluation order, read as (index, value) pairs.

    The values live in one array of doubles, 8 bytes per evaluation; item i is
    the pair ``(i, value)`` of Python ``int`` and ``float``, and negative
    indices count from the end.  A trace equals another trace with the same
    values, or a list or tuple of the same pairs.
    """

    __slots__ = ("values",)

    def __init__(self, values=()):
        self.values = array("d", values)

    def append(self, value: float) -> None:
        self.values.append(value)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [(i, self.values[i]) for i in range(*index.indices(len(self.values)))]
        value = self.values[index]
        return (index % len(self.values), value)

    def __iter__(self):
        return enumerate(self.values)

    def __eq__(self, other):
        if isinstance(other, Trace):
            return self.values == other.values
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self):
        return f"Trace({self.values.tolist()!r})"


@dataclass
class OptResult:
    """An optimizer run: the best point evaluated and its value, every
    evaluation's value as a ``Trace`` of (index, value) pairs, and the number
    of evaluations spent."""

    best_params: np.ndarray
    best_value: float
    trace: Trace = field(default_factory=Trace)
    evaluations_used: int = 0


class _Budget(Exception):
    pass


class _Tracker:
    """Wraps the objective: counts, traces, tracks the best point."""

    def __init__(self, f, budget):
        self.f = f
        self.budget = budget
        self.count = 0
        self.trace = Trace()
        self.best_value = np.inf
        self.best_params = None

    def __call__(self, x):
        if self.count >= self.budget:
            raise _Budget
        value = float(self.f(np.asarray(x, dtype=float)))
        if not math.isfinite(value):
            raise NonFiniteObjectiveError(f"objective evaluation {self.count} returned {value!r}")
        self.trace.append(value)
        self.count += 1
        if value < self.best_value:
            self.best_value = value
            self.best_params = np.array(x, dtype=float)
        return value

    def result(self) -> OptResult:
        return OptResult(self.best_params, self.best_value, self.trace, self.count)


def spsa_min_budget(dim: int) -> int:
    """Smallest SPSA budget over ``dim`` parameters: the calibration probes
    plus one iteration."""
    return 2 * dim + 2 * SPSA_CALIBRATION_PROBES


def spsa_minimize(
    f,
    x0,
    budget: int,
    seed: int = 0,
    perturbation: float = SPSA_PERTURBATION,
    stability: float = 0.0,
) -> OptResult:
    """Simultaneous perturbation stochastic approximation.

    Iterates x_{k+1} = x_k - a_k * g_k with the gradient estimated from two
    evaluations at x_k +/- c_k * delta, delta a Rademacher vector.  Gains
    follow a_k = a/(A+k+1)^0.602 and c_k = c/(k+1)^0.101 with
    c = ``perturbation`` and A = ``stability``.  The coefficient a is
    calibrated from 25 probe gradient pairs at x0 so the first update moves
    each parameter by about 2*pi/10.  Deterministic for a fixed seed.

    Raises:
        BudgetTooSmallError: budget < 2*dim + 2*25 calibration evaluations.
    """
    x = np.asarray(x0, dtype=float).copy()
    dim = x.size
    calibration_cost = 2 * SPSA_CALIBRATION_PROBES
    needed = spsa_min_budget(dim)
    if budget < needed:
        raise BudgetTooSmallError(
            f"SPSA needs at least {needed} evaluations "
            f"({calibration_cost} calibration + one iteration), got {budget}"
        )
    rng = np.random.default_rng(seed)
    tracker = _Tracker(f, budget)
    c = float(perturbation)
    big_a = float(stability)
    try:
        tracker(x)  # baseline, so the result can never be worse than f(x0)
        magnitudes = []
        for _ in range(SPSA_CALIBRATION_PROBES):
            delta = rng.integers(0, 2, size=dim) * 2 - 1
            magnitudes.append(abs(tracker(x + c * delta) - tracker(x - c * delta)))
        mean_df = float(np.mean(magnitudes))
        iterations = (budget - 1 - calibration_cost) // 2
        if mean_df < 1e-12:
            a = SPSA_TARGET_FIRST_STEP  # flat landscape at x0; any gain works
        else:
            a = SPSA_TARGET_FIRST_STEP * (big_a + 1) ** SPSA_ALPHA * (2 * c) / mean_df
        for k in range(iterations):
            a_k = a / (big_a + k + 1) ** SPSA_ALPHA
            c_k = c / (k + 1) ** SPSA_GAMMA
            delta = rng.integers(0, 2, size=dim) * 2 - 1
            g = (tracker(x + c_k * delta) - tracker(x - c_k * delta)) / (2 * c_k) * delta
            x = x - a_k * g
    except _Budget:
        pass
    return tracker.result()


NM_REFLECT = 1.0
NM_EXPAND = 2.0
NM_CONTRACT = 0.5
NM_SHRINK = 0.5
NM_OFFSET = 0.1
NM_OFFSET_ZERO = 0.00025


def nelder_mead_minimize(f, x0, budget: int, tolerance: float = 1e-8) -> OptResult:
    """Downhill simplex with reflect/expand/contract/shrink = (1, 2, 0.5, 0.5).

    The initial simplex is x0 plus a 0.1 offset per axis (0.00025 on axes
    where x0 is zero).  Stops when the simplex value spread drops below
    ``tolerance`` or the evaluation budget runs out.

    Raises:
        BudgetTooSmallError: budget < 1.
    """
    x0 = np.asarray(x0, dtype=float)
    dim = x0.size
    if dim < 1:
        raise ValueError("x0 must have at least one dimension")
    if budget < 1:
        raise BudgetTooSmallError(f"Nelder-Mead needs at least 1 evaluation, got {budget}")
    tracker = _Tracker(f, budget)
    try:
        simplex = [x0.copy()]
        for i in range(dim):
            vertex = x0.copy()
            vertex[i] += NM_OFFSET if x0[i] != 0.0 else NM_OFFSET_ZERO
            simplex.append(vertex)
        values = [tracker(v) for v in simplex]
        while True:
            order = np.argsort(values, kind="stable")
            simplex = [simplex[i] for i in order]
            values = [values[i] for i in order]
            if values[-1] - values[0] < tolerance:
                break
            centroid = np.mean(simplex[:-1], axis=0)
            reflected = centroid + NM_REFLECT * (centroid - simplex[-1])
            f_r = tracker(reflected)
            if f_r < values[0]:
                expanded = centroid + NM_EXPAND * (reflected - centroid)
                f_e = tracker(expanded)
                if f_e < f_r:
                    simplex[-1], values[-1] = expanded, f_e
                else:
                    simplex[-1], values[-1] = reflected, f_r
            elif f_r < values[-2]:
                simplex[-1], values[-1] = reflected, f_r
            else:
                if f_r < values[-1]:
                    contracted = centroid + NM_CONTRACT * (reflected - centroid)
                else:
                    contracted = centroid - NM_CONTRACT * (centroid - simplex[-1])
                f_c = tracker(contracted)
                if f_c < min(f_r, values[-1]):
                    simplex[-1], values[-1] = contracted, f_c
                else:
                    best = simplex[0]
                    for i in range(1, dim + 1):
                        simplex[i] = best + NM_SHRINK * (simplex[i] - best)
                        values[i] = tracker(simplex[i])
    except _Budget:
        pass
    return tracker.result()


def as_int(value) -> int:
    """``int(value)``, except that a number int() would truncate (2.5) raises
    a ValueError; 4, 4.0 and "4" convert."""
    number = int(value)
    if number != value and not isinstance(value, str):
        raise ValueError(f"{value!r} is not an integer")
    return number


def config_value(options: dict, key: str, convert, default=None):
    """``convert(options[key])``, or ``default`` when the key is absent; a value
    that does not convert raises a ValueError naming the key.  ``int`` converts
    through ``as_int``, so a non-integral number is refused, not truncated; a
    ``float`` key refuses NaN and the infinities, and neither takes a bool.  The
    optimizer options, the workflow keys, the model options and the CLI's
    config keys all convert here."""
    if key not in options:
        return default
    try:
        if convert in (int, float) and isinstance(options[key], (bool, np.bool_)):
            raise ValueError
        value = (as_int if convert is int else convert)(options[key])
        if convert is float and not math.isfinite(value):
            raise ValueError
        return value
    except (TypeError, ValueError, OverflowError):
        kind = {int: "an integer", float: "a finite number"}.get(convert)
        problem = f"must be {kind}, got" if kind else "has an invalid value"
        raise ValueError(f"config key '{key}' {problem} {options[key]!r}") from None


class _Method(NamedTuple):
    minimize: Callable  # (f, x0, budget, seed, options) -> OptResult
    min_budget: Callable  # dim -> the smallest budget it accepts
    options: frozenset  # every key it reads; all but "budget" and "seed" are floats


_COMMON_KEYS = frozenset({"budget", "seed"})
# Each lambda looks its function up when called, so a patched module
# attribute is what runs.  Nelder-Mead draws nothing, so it drops the seed.
_METHODS = {
    "spsa": _Method(
        lambda f, x0, budget, seed, options: spsa_minimize(f, x0, budget, seed, **options),
        spsa_min_budget,
        _COMMON_KEYS | {"perturbation", "stability"},
    ),
    "nelder-mead": _Method(
        lambda f, x0, budget, seed, options: nelder_mead_minimize(f, x0, budget, **options),
        lambda dim: 1,
        _COMMON_KEYS | {"tolerance"},
    ),
}
OPTION_KEYS = frozenset().union(*(m.options for m in _METHODS.values()))


class Optimizer:
    """A named minimization method with frozen options.

    Options (all optional): ``budget`` (default 200) and ``seed`` (>= 0,
    default 0) for every method, ``perturbation`` and ``stability`` for SPSA,
    ``tolerance`` for Nelder-Mead.  Nelder-Mead takes a ``seed`` too, since
    a workflow hands its seed to every optimizer, but draws nothing.  An
    unknown name, an option key the method does not read or an option value
    that does not convert raises a ValueError naming it.
    """

    def __init__(self, name: str, options: dict | None = None):
        method = _METHODS.get(name)
        if method is None:
            raise ValueError(f"unknown optimizer {name!r}; known: {sorted(_METHODS)}")
        options = options or {}
        for key in options:
            if key not in method.options:
                raise ValueError(
                    f"optimizer {name!r} does not read option '{key}'; "
                    f"it reads {sorted(method.options)}"
                )
        self.name, self._method = name, method
        self.budget = config_value(options, "budget", int, 200)
        self.seed = config_value(options, "seed", int, 0)
        if self.seed < 0:
            raise ValueError(f"optimizer option 'seed' must be >= 0, got {self.seed}")
        self._options = {
            key: config_value(options, key, float) for key in options if key not in _COMMON_KEYS
        }

    def min_budget(self, dim: int) -> int:
        """Smallest budget this method accepts over ``dim`` parameters."""
        return self._method.min_budget(dim)

    def minimize(self, f, x0) -> OptResult:
        return self._method.minimize(f, x0, self.budget, self.seed, self._options)


def create_optimizer(name: str, options: dict | None = None) -> Optimizer:
    """Look an optimizer up by name ("spsa" or "nelder-mead")."""
    return Optimizer(name, options)
