"""Pauli-string algebra for Hamiltonians and observables.

Operators are complex-weighted sums of n-qubit Pauli strings.  Strings are
sparse: qubits not listed carry the identity, so the same operator value can
be used on any register wide enough to hold its support.  Qubit 0 is the
least-significant bit everywhere in this package.

Each string also carries its symplectic encoding as two int bit masks: bit q
of ``x`` is set where qubit q carries X or Y, bit q of ``z`` where it carries
Z or Y.  Products, commutation and the tapering module's GF(2) algebra work
on the masks; ``to_matrix`` reads the axis letters, so the dense form stays
an independent check.
"""

import cmath
import re

import numpy as np

# Coefficients below this magnitude are treated as numerical noise.
COEFF_EPS = 1e-12

# to_matrix is dense; 2^12 x 2^12 complex is already ~0.25 GB.
MAX_DENSE_QUBITS = 12

_AXIS_MATRIX = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# The (x, z) bits of each single-qubit factor, and back.
_AXIS_BITS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_AXIS = {bits: axis for axis, bits in _AXIS_BITS.items()}

# i**k for k = 0..3.
_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)


class TooManyQubitsError(ValueError):
    """Raised when a dense representation would be too large."""


class IndexTooLargeError(ValueError):
    """Raised when an operator references a qubit outside the register."""


class ParseError(ValueError):
    """Malformed operator text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PauliString:
    """An immutable product of single-qubit X/Y/Z factors.

    Internally a sorted tuple of (qubit, axis) pairs plus the ``x`` and
    ``z`` bit masks; qubits not present carry the identity.  Hashable, so
    usable as a dict key.
    """

    __slots__ = ("_factors", "x", "z")

    def __init__(self, axes=()):
        factors = tuple(sorted(axes.items() if isinstance(axes, dict) else axes))
        x = z = 0
        for qubit, axis in factors:
            if not isinstance(qubit, int) or qubit < 0:
                raise ValueError(f"qubit index must be a non-negative int, got {qubit!r}")
            bits = _AXIS_BITS.get(axis)
            if bits is None:
                raise ValueError(f"axis must be one of X, Y, Z, got {axis!r}")
            if (x | z) >> qubit & 1:
                raise ValueError(f"duplicate qubit {qubit} in Pauli string")
            x |= bits[0] << qubit
            z |= bits[1] << qubit
        self._factors = factors
        self.x = x
        self.z = z

    @classmethod
    def from_masks(cls, x: int, z: int) -> "PauliString":
        """The string with X/Y on the set bits of ``x`` and Z/Y on those of ``z``."""
        if x < 0 or z < 0:
            raise ValueError(f"Pauli masks must be non-negative, got x={x}, z={z}")
        factors = []
        rest = x | z
        while rest:
            q = (rest & -rest).bit_length() - 1
            factors.append((q, _BITS_AXIS[x >> q & 1, z >> q & 1]))
            rest &= rest - 1
        string = object.__new__(cls)
        string._factors = tuple(factors)
        string.x = x
        string.z = z
        return string

    @property
    def factors(self) -> tuple:
        return self._factors

    @property
    def support(self) -> tuple:
        """Qubits on which the string acts non-trivially, ascending."""
        return tuple(q for q, _ in self._factors)

    @property
    def width(self) -> int:
        """1 + highest qubit index touched (0 for the identity)."""
        return (self.x | self.z).bit_length()

    @property
    def is_identity(self) -> bool:
        return not self._factors

    def axis_on(self, qubit: int) -> str:
        for q, axis in self._factors:
            if q == qubit:
                return axis
        return "I"

    def multiply(self, other: "PauliString") -> tuple:
        """Product of two strings as (phase, string); phase in {1, -1, i, -i}.

        With Y = iXZ, a string is i^|x&z| X^x Z^z, and moving Z^z1 past X^x2
        costs (-1)^|z1&x2|.
        """
        x = self.x ^ other.x
        z = self.z ^ other.z
        power = (
            (self.x & self.z).bit_count()
            + (other.x & other.z).bit_count()
            - (x & z).bit_count()
            + 2 * (self.z & other.x).bit_count()
        )
        return _I_POWERS[power % 4], PauliString.from_masks(x, z)

    def commutes_with(self, other: "PauliString") -> bool:
        """True iff the strings commute (even symplectic product)."""
        return (self.x & other.z ^ self.z & other.x).bit_count() % 2 == 0

    def sort_key(self) -> tuple:
        return self._factors

    def __eq__(self, other):
        return isinstance(other, PauliString) and self._factors == other._factors

    def __hash__(self):
        return hash(self._factors)

    def __str__(self):
        if not self._factors:
            return "I"
        return "*".join(f"{axis}({q})" for q, axis in self._factors)

    def __repr__(self):
        return f"PauliString({dict(self._factors)!r})"


_IDENTITY_STRING = PauliString()


class PauliOperator:
    """A complex-weighted sum of Pauli strings.

    Values are immutable after construction and always kept simplified:
    coefficients with magnitude below ``COEFF_EPS`` are dropped, and a
    non-finite coefficient raises a ValueError.  The empty string holds
    scalar/constant offsets.

    ``_compiled`` is the operator's one memo, its compiled form on the last
    register width asked (see ``simulator.compile_observable``): replaced
    whole, and no part of equality, hashing or printing.
    """

    __slots__ = ("_terms", "_width", "_hermitian", "_compiled")

    def __init__(self, terms=None):
        merged = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for string, coeff in items:
                if not isinstance(string, PauliString):
                    raise TypeError(f"term keys must be PauliString, got {type(string).__name__}")
                merged[string] = merged.get(string, 0j) + complex(coeff)
        pruned = {}
        support = 0
        hermitian = True
        for string, coeff in merged.items():
            if not cmath.isfinite(coeff):
                raise ValueError(f"coefficient of {string} is not finite: {coeff!r}")
            if abs(coeff) >= COEFF_EPS:
                pruned[string] = coeff
                support |= string.x | string.z
                hermitian = hermitian and abs(coeff.imag) < COEFF_EPS
        object.__setattr__(self, "_terms", pruned)
        object.__setattr__(self, "_width", support.bit_length())
        object.__setattr__(self, "_hermitian", hermitian)
        object.__setattr__(self, "_compiled", None)

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, coeff=1.0) -> "PauliOperator":
        return cls({_IDENTITY_STRING: coeff})

    @classmethod
    def from_string(cls, string: PauliString, coeff=1.0) -> "PauliOperator":
        return cls({string: coeff})

    @classmethod
    def zero(cls) -> "PauliOperator":
        return cls()

    # -- inspection --------------------------------------------------------

    def terms(self) -> list:
        """(string, coefficient) pairs in canonical (lexicographic) order."""
        return sorted(self._terms.items(), key=lambda item: item[0].sort_key())

    def coefficient(self, string: PauliString) -> complex:
        return self._terms.get(string, 0j)

    @property
    def constant(self) -> complex:
        return self._terms.get(_IDENTITY_STRING, 0j)

    @property
    def num_terms(self) -> int:
        return len(self._terms)

    @property
    def width(self) -> int:
        """1 + highest qubit index referenced by any term (fixed at construction)."""
        return self._width

    @property
    def is_hermitian(self) -> bool:
        """No coefficient has an imaginary part of ``COEFF_EPS`` or more
        (fixed at construction)."""
        return self._hermitian

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def simplify(self) -> "PauliOperator":
        """Re-merge and prune terms; idempotent (construction already simplifies)."""
        return PauliOperator(self._terms)

    # -- algebra -----------------------------------------------------------

    def __add__(self, other):
        """The sum as a new operator.  Each ``+`` copies every term of both
        sides, so a loop that adds T terms one by one costs O(T^2); collect
        (PauliString, coefficient) pairs instead and construct the operator
        once, which merges duplicates and prunes just as ``+`` does."""
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for s, c in other._terms.items():
            terms[s] = terms.get(s, 0j) + c
        return PauliOperator(terms)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-1.0) * other

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-1.0) * self

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return PauliOperator({s: c * other for s, c in self._terms.items()})
        if isinstance(other, PauliOperator):
            out = {}
            for sa, ca in self._terms.items():
                for sb, cb in other._terms.items():
                    phase, string = sa.multiply(sb)
                    coeff = ca * cb * phase
                    out[string] = out.get(string, 0j) + coeff
            return PauliOperator(out)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        return isinstance(other, PauliOperator) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def isclose(self, other: "PauliOperator", tol: float = 1e-10) -> bool:
        """Term-wise coefficient comparison within ``tol``."""
        keys = set(self._terms) | set(other._terms)
        return all(abs(self.coefficient(k) - other.coefficient(k)) <= tol for k in keys)

    # -- dense form --------------------------------------------------------

    def to_matrix(self, num_qubits=None) -> np.ndarray:
        """Dense 2^n x 2^n matrix with qubit 0 as the least-significant bit.

        Raises:
            IndexTooLargeError: a term references a qubit >= num_qubits.
            TooManyQubitsError: num_qubits exceeds MAX_DENSE_QUBITS.
        """
        n = self.width if num_qubits is None else num_qubits
        if n > MAX_DENSE_QUBITS:
            raise TooManyQubitsError(
                f"dense matrix for {n} qubits exceeds the {MAX_DENSE_QUBITS}-qubit cap"
            )
        if self.width > n:
            raise IndexTooLargeError(
                f"operator touches qubit {self.width - 1} but the register has {n} qubits"
            )
        dim = 2**n
        out = np.zeros((dim, dim), dtype=complex)
        for string, coeff in self._terms.items():
            acc = np.array([[1.0 + 0j]])
            # Rightmost Kronecker factor is qubit 0 (least-significant bit).
            for q in range(n - 1, -1, -1):
                acc = np.kron(acc, _AXIS_MATRIX[string.axis_on(q)])
            out += coeff * acc
        return out

    # -- printing ----------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0.0"
        parts = []
        for string, coeff in self.terms():
            parts.append(_format_term(string, coeff, first=not parts))
        return "".join(parts)

    def __repr__(self):
        return f"PauliOperator({self.__str__()!r})"


def _coerce(value):
    if isinstance(value, PauliOperator):
        return value
    if isinstance(value, (int, float, complex)):
        return PauliOperator.identity(value)
    return NotImplemented


def _format_coeff(coeff: complex) -> str:
    if abs(coeff.imag) < COEFF_EPS:
        return repr(coeff.real)
    if abs(coeff.real) < COEFF_EPS:
        return repr(coeff.imag) + "j"
    sign = "+" if coeff.imag >= 0 else "-"
    return f"({coeff.real!r}{sign}{abs(coeff.imag)!r}j)"


def _format_term(string: PauliString, coeff: complex, first: bool) -> str:
    text = _format_coeff(coeff)
    negated = text.startswith("-")
    body = text[1:] if negated else text
    if not string.is_identity:
        body = f"{body}*{string}"
    if first:
        return f"-{body}" if negated else body
    return f" - {body}" if negated else f" + {body}"


# -- convenience constructors ----------------------------------------------


def X(qubit: int) -> PauliOperator:
    return PauliOperator.from_string(PauliString({qubit: "X"}))


def Y(qubit: int) -> PauliOperator:
    return PauliOperator.from_string(PauliString({qubit: "Y"}))


def Z(qubit: int) -> PauliOperator:
    return PauliOperator.from_string(PauliString({qubit: "Z"}))


def identity(coeff=1.0) -> PauliOperator:
    return PauliOperator.identity(coeff)


def commutator(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """ab - ba."""
    return a * b - b * a


# -- text grammar ------------------------------------------------------------
#
# operator  := term (('+' | '-') term)*
# term      := [sign] factor ('*' factor)*
# factor    := coefficient | axis '(' int ')'
# axis      := 'X' | 'Y' | 'Z'
#
# Coefficients are real ("0.5", "-1e-3"), imaginary ("2j"), or parenthesised
# complex ("(1.5-0.5j)").  The canonical printer (str()) round-trips.

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<complex>\([^()]*\))
  | (?P<number>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?j?)
  | (?P<axis>[XYZ]\(\s*\d+\s*\))
  | (?P<op>[+\-*])
    """,
    re.VERBOSE,
)

_AXIS_FACTOR_RE = re.compile(r"([XYZ])\(\s*(\d+)\s*\)")


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


def _parse_complex(token: str, pos: int) -> complex:
    try:
        return complex(token.replace(" ", ""))
    except ValueError:
        raise ParseError(f"bad coefficient {token!r}", pos) from None


def parse(text: str) -> PauliOperator:
    """Parse operator text like ``"-0.5*Z(0)*Z(1) + X(2) - 0.25"``.

    Raises:
        ParseError: on malformed input, with the offending position.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty operator expression", 0)
    result = {}
    i = 0
    n = len(tokens)
    while i < n:
        sign = 1.0
        # Leading +/- of this term.
        while i < n and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise ParseError("dangling sign", tokens[-1][2])
        coeff = complex(sign)
        string = _IDENTITY_STRING
        expect_factor = True
        saw_factor = False
        while i < n:
            kind, value, pos = tokens[i]
            if kind == "op" and value == "*":
                if expect_factor:
                    raise ParseError("'*' without preceding factor", pos)
                expect_factor = True
                i += 1
                continue
            if kind == "op":
                break  # +/- starts the next term
            if not expect_factor:
                raise ParseError("missing '*' between factors", pos)
            if kind in ("number", "complex"):
                coeff *= _parse_complex(value, pos)
            else:
                m = _AXIS_FACTOR_RE.fullmatch(value)
                phase, string = string.multiply(PauliString({int(m.group(2)): m.group(1)}))
                coeff *= phase
            saw_factor = True
            expect_factor = False
            i += 1
        if not saw_factor:
            raise ParseError("empty term", tokens[i][2] if i < n else tokens[-1][2])
        if expect_factor:
            raise ParseError("dangling '*'", tokens[i - 1][2])
        result[string] = result.get(string, 0j) + coeff
    return PauliOperator(result)
