"""Z2-symmetry detection and qubit tapering.

A Pauli string on n qubits is a 2n-bit GF(2) vector held in one int: bits
0..n-1 are its ``x`` mask and bits n..2n-1 its ``z`` mask.  Strings
commuting with every Hamiltonian term form the kernel, over GF(2), of the
matrix whose rows are the terms' vectors with the halves swapped,
``z | x << n``.  Tapering first brings the symmetries to a basis of the group
they generate in which each has a single-qubit partner anticommuting with it
alone (symplectic Gaussian elimination), then conjugates the Hamiltonian
with one Clifford per generator so the generator becomes its partner,
substitutes the generator's +/-1 sector eigenvalue for that partner, and
drops the qubit.
"""

import itertools

import numpy as np

from .pauli import IndexTooLargeError, PauliOperator, PauliString, TooManyQubitsError

_SQRT2_INV = 2**-0.5

AUTO_SECTOR_MAX_QUBITS = 10


class NotASymmetryError(ValueError):
    """A supplied string fails to commute with the Hamiltonian (or with a
    fellow symmetry)."""


class SectorArityMismatchError(ValueError):
    """Sector sign count differs from the symmetry count."""


class SingularSystemError(ValueError):
    """A linear subproblem has no usable solution (no valid tapered-qubit
    assignment here; also raised by the imaginary-time workflow when its
    step's update is not finite)."""


def _gf2_kernel(rows: list, cols: int) -> list:
    """Kernel basis of a GF(2) matrix whose rows are ints (bit c = column c);
    Gaussian elimination with the lowest usable column pivoted first, so the
    basis is reproducible.  Basis vectors are ints in the same layout."""
    rows = list(rows)
    pivot_cols = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i] >> c & 1), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i] >> c & 1:
                rows[i] ^= rows[r]
        pivot_cols.append(c)
        r += 1
        if r == len(rows):
            break
    basis = []
    for free in range(cols):
        if free in pivot_cols:
            continue
        vec = 1 << free
        for row, pc in enumerate(pivot_cols):
            if rows[row] >> free & 1:
                vec |= 1 << pc
        basis.append(vec)
    return basis


def find_z2_symmetries(hamiltonian: PauliOperator, num_qubits: int = None) -> list:
    """Pauli strings commuting with every term of ``hamiltonian``.

    Computes the GF(2) kernel of the symplectic products with all terms and
    keeps a mutually commuting subset of its basis (the kernel itself may
    contain anticommuting pairs, e.g. all-X and all-Z on an odd chain,
    which cannot be tapered jointly).  Deterministic for a given operator;
    empty if no symmetry exists.

    Raises:
        IndexTooLargeError: a term touches a qubit >= num_qubits.
    """
    n = hamiltonian.width if num_qubits is None else num_qubits
    if hamiltonian.width > n:
        raise IndexTooLargeError(
            f"operator touches qubit {hamiltonian.width - 1} but num_qubits is {n}"
        )
    strings = [s for s, _ in hamiltonian.terms() if not s.is_identity]
    if n == 0 or not strings:
        return []
    # Halves swapped: row . (x_g | z_g) = symplectic product with the term.
    rows = [s.z | s.x << n for s in strings]
    symmetries = []
    for vec in _gf2_kernel(rows, 2 * n):
        candidate = PauliString.from_masks(vec & ((1 << n) - 1), vec >> n)
        if candidate.is_identity:
            continue
        if all(candidate.commutes_with(kept) for kept in symmetries):
            symmetries.append(candidate)
    return symmetries


def _partnered_basis(symmetries, sector) -> dict:
    """{qubit: (generator, sign, partner)} for a basis of the group that the
    commuting ``symmetries`` generate, in which each generator's partner, a
    single-qubit Pauli on its own qubit, anticommutes with it alone.

    Symplectic Gaussian elimination: generator i takes the first Pauli on a
    free qubit of its support (ascending, then X, Y, Z) anticommuting with
    it, preferring one that commutes with every other generator; every other
    generator anticommuting with the partner is then multiplied by generator
    i, which commutes with the earlier partners.  A product's sector sign is
    its factors' signs times its phase (+-1, as the factors commute).

    Raises:
        SingularSystemError: the symmetries are not independent.
    """
    basis = list(zip(symmetries, sector))
    pivots = {}
    for i, original in enumerate(symmetries):
        sym, sign = basis[i]
        free = (PauliString({q: axis}) for q in sym.support if q not in pivots for axis in "XYZ")
        candidates = [c for c in free if not c.commutes_with(sym)]
        if not candidates:
            raise SingularSystemError(
                f"no single-qubit partner found for symmetry {original}: "
                "it is a product of the other symmetries"
            )
        others = [o for j, (o, _) in enumerate(basis) if j != i]
        partner = next(
            (c for c in candidates if all(c.commutes_with(o) for o in others)), candidates[0]
        )
        for j, (other, other_sign) in enumerate(basis):
            if j != i and not partner.commutes_with(other):
                phase, product = other.multiply(sym)
                basis[j] = (product, other_sign * sign * int(phase.real))
        pivots[partner.support[0]] = (i, partner)
    return {q: (*basis[i], partner) for q, (i, partner) in pivots.items()}


def taper(hamiltonian: PauliOperator, symmetries, sector) -> PauliOperator:
    """Project onto a symmetry sector and drop one qubit per symmetry.

    The spectrum of the result equals the spectrum of ``hamiltonian``
    restricted to the chosen sector; remaining qubits are reindexed to
    0..m-1 preserving order.

    Raises:
        NotASymmetryError: a string does not commute with the Hamiltonian
            or the strings do not mutually commute.
        SectorArityMismatchError: one sign per symmetry is required.
        SingularSystemError: no valid tapered-qubit assignment exists.
    """
    symmetries = list(symmetries)
    sector = list(sector)
    if len(sector) != len(symmetries):
        raise SectorArityMismatchError(
            f"{len(symmetries)} symmetries but {len(sector)} sector signs"
        )
    if any(s not in (1, -1) for s in sector):
        raise SectorArityMismatchError("sector signs must be +1 or -1")
    term_strings = [s for s, _ in hamiltonian.terms()]
    for sym in symmetries:
        bad = [t for t in term_strings if not t.commutes_with(sym)]
        if bad:
            raise NotASymmetryError(f"{sym} anticommutes with the term {bad[0]}")
    for a, b in itertools.combinations(symmetries, 2):
        if not a.commutes_with(b):
            raise NotASymmetryError(f"symmetries {a} and {b} do not commute")

    tapered = _partnered_basis(symmetries, sector)
    h = hamiltonian
    for sym, _, partner in tapered.values():
        clifford = _SQRT2_INV * (
            PauliOperator.from_string(partner) + PauliOperator.from_string(sym)
        )
        h = clifford * h * clifford
    remaining = [q for q in range(h.width) if q not in tapered]
    index_map = {q: i for i, q in enumerate(remaining)}

    out = {}
    for string, coeff in h.terms():
        factor = 1.0
        axes = {}
        for q, axis in string.factors:
            if q in tapered:
                _, sign, partner = tapered[q]
                if axis != partner.axis_on(q):
                    raise SingularSystemError(
                        f"tapered qubit {q} carries {axis} after conjugation"
                    )
                factor *= sign
            else:
                axes[index_map.get(q, q)] = axis
        new = PauliString(axes)
        out[new] = out.get(new, 0j) + coeff * factor
    return PauliOperator(out)


def auto_sector(hamiltonian: PauliOperator, symmetries) -> list:
    """Sector signs whose tapered operator keeps the global ground energy.

    Enumerates all 2^k sectors, dense-diagonalising each tapered operator;
    ties within 1e-12 resolve toward +1 (sectors are enumerated with +1
    first).

    Raises:
        TooManyQubitsError: the Hamiltonian is too wide to diagonalise.
    """
    symmetries = list(symmetries)
    if not symmetries:
        return []
    n = hamiltonian.width
    if n > AUTO_SECTOR_MAX_QUBITS:
        raise TooManyQubitsError(
            f"auto_sector dense check capped at {AUTO_SECTOR_MAX_QUBITS} qubits, got {n}"
        )
    best_sector = None
    best_min = np.inf
    for sector in itertools.product((1, -1), repeat=len(symmetries)):
        tapered = taper(hamiltonian, symmetries, sector)
        if tapered.width == 0:
            low = tapered.constant.real
        else:
            low = float(np.linalg.eigvalsh(tapered.to_matrix()).min())
        if low < best_min - 1e-12:
            best_min = low
            best_sector = list(sector)
    return best_sector
