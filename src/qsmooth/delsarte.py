"""Fake weighted projective space criterion, atomic types, transpose duality.

On a fake weighted projective space the stratum analysis collapses to a
count of nonempty faces per base stratum; square (Delsarte-type) systems
admit a further classification into sums of Fermat, chain and loop
polynomials, and an exponent matrix can be transposed onto a dual weighted
projective space.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import lcm
from typing import Sequence

from . import linsys as _linsys
from . import toric as _toric
from .errors import (
    DegreeTooSmall,
    EmptyInput,
    GeneratorInBasis,
    InvariantViolation,
    NoPositiveSolution,
    NotFakeWPS,
    NotHomogeneous,
    NotSquare,
)
from .linalg import _int_vector, solve_rational
from .qscheck import (
    Method,
    QSVerdict,
    _first_failing_stratum,
    has_generator_row,
)


class AtomKind(str, Enum):
    FERMAT = "fermat"
    CHAIN = "chain"
    LOOP = "loop"


@dataclass(frozen=True)
class AtomicType:
    """One invertible summand: a pure power, a chain, or a loop."""

    kind: AtomKind
    variables: tuple[int, ...]
    exponents: tuple[int, ...]

    def rows(self, num_vars: int) -> list[tuple[int, ...]]:
        """Exponent rows of the summand inside a system with num_vars variables."""
        out = []
        k = len(self.variables)
        for pos, (var, exp) in enumerate(zip(self.variables, self.exponents)):
            row = [0] * num_vars
            row[var] = exp
            if self.kind == AtomKind.LOOP:
                row[self.variables[(pos + 1) % k]] += 1
            elif self.kind == AtomKind.CHAIN and pos + 1 < k:
                row[self.variables[pos + 1]] += 1
            out.append(tuple(row))
        return out


@dataclass(frozen=True)
class DelsarteDecomposition:
    """Partition of the variables into atomic summands.

    ``row_permutation[j]`` is the input row whose large exponent sits in
    column j; replaying the atoms reproduces the input rows exactly.
    """

    atoms: tuple[AtomicType, ...]
    row_permutation: tuple[int, ...]


def wps_check(sys: _linsys.MonomialSystem) -> QSVerdict:
    """Quasismoothness on a fake weighted projective space.

    Every base stratum C needs at least ``num_vars - |C|`` nonempty faces.
    The only irrelevant component is the whole variable set, so the base
    strata are the nonempty proper subsets that every vertex monomial
    meets, and the bound is at least 1.  The rows whose C-exponents sum to
    1 are the face supports, each the unit vector e_rho on C, so the rank
    of that slice is ``k``, read off the ``BaseStratum`` by the loop shared
    with the closed-form checkers.
    """
    if not sys.ambient.is_fake_wps():
        raise NotFakeWPS("ambient is not a fake weighted projective space")
    if has_generator_row(sys):
        raise GeneratorInBasis("criterion assumes no generator in the basis")
    r = sys.num_vars
    return _first_failing_stratum(sys, Method.WPS, lambda st: st.k >= r - len(st.variables))


def _validate_square_homogeneous(
    rows: Sequence[Sequence[int]], weights: Sequence[int]
) -> int:
    n = len(rows)
    if not n:
        raise EmptyInput("exponent matrix needs at least one row")
    if any(len(r) != n for r in rows):
        raise NotSquare("exponent matrix must be square")
    if len(weights) != n:
        raise NotSquare("weights length must match the matrix size")
    for r in rows:
        if any(x < 0 for x in r):
            raise ValueError(f"negative exponent in {r}")
    degrees = [sum(a * w for a, w in zip(row, weights)) for row in rows]
    for i, d in enumerate(degrees[1:], start=1):
        if d != degrees[0]:
            raise NotHomogeneous(0, i, (d - degrees[0],))
    return degrees[0]


def classify_atomic(
    rows: Sequence[Sequence[int]], weights: Sequence[int]
) -> DelsarteDecomposition | None:
    """Decompose a square system into Fermat/chain/loop summands.

    Returns None when no row reordering realizes the shape: each row must
    have exactly one entry larger than 1 (its diagonal), at most one
    off-diagonal 1 (its successor), no two rows may share a diagonal
    column, and no two rows a successor.  One pass over the rows records
    both maps; the successor map is then injective, so its graph is a
    disjoint union of paths and cycles.  One walk follows successors from
    each path head in increasing order (a Fermat summand or a chain), then
    from each column left over in increasing order, which meets every
    cycle at its smallest column (a loop).

    Under the stated degree hypothesis, and provided no basis monomial is
    a cross term x_i * x_j, this succeeds exactly on the quasismooth
    square systems.  Cross terms (possible when the degree equals a sum of
    two weights) can be quasismooth without any atomic decomposition, e.g.
    x2*x3, x1^4*x3, x1^5*x2^2 with weights (1, 4, 9).
    """
    rows = [_int_vector(r) for r in rows]
    d = _validate_square_homogeneous(rows, weights)
    if any(d <= w for w in weights):
        raise DegreeTooSmall("system degree must exceed every variable degree")
    n = len(rows)

    row_of_col: list[int | None] = [None] * n
    successor: list[int | None] = [None] * n
    for i, row in enumerate(rows):
        large = [j for j, x in enumerate(row) if x > 1]
        ones = [j for j, x in enumerate(row) if x == 1]
        if len(large) != 1 or len(ones) > 1 or row_of_col[large[0]] is not None:
            return None
        row_of_col[large[0]] = i
        if ones:
            successor[large[0]] = ones[0]
    targets = {j for j in successor if j is not None}
    if len(targets) != n - successor.count(None):
        return None

    atoms = []
    visited: set[int] = set()
    for start in [*(j for j in range(n) if j not in targets), *range(n)]:
        if start in visited:
            continue
        walk = [start]
        nxt = successor[start]
        while nxt is not None and nxt != start:
            walk.append(nxt)
            nxt = successor[nxt]
        visited.update(walk)
        if nxt == start:
            kind = AtomKind.LOOP
        else:
            kind = AtomKind.FERMAT if len(walk) == 1 else AtomKind.CHAIN
        exps = tuple(rows[row_of_col[v]][v] for v in walk)
        atoms.append(AtomicType(kind, tuple(walk), exps))

    atoms.sort(key=lambda a: a.variables[0])
    decomposition = DelsarteDecomposition(
        atoms=tuple(atoms), row_permutation=tuple(row_of_col)
    )
    rebuilt = sorted(row for atom in decomposition.atoms for row in atom.rows(n))
    if rebuilt != sorted(rows):
        raise InvariantViolation("atom replay does not reproduce the input")
    return decomposition


def format_decomposition(dec: DelsarteDecomposition) -> str:
    """Human-readable sum, e.g. ``chain(x1^3->x2^4) + fermat(x3^5)``."""
    parts = []
    for atom in dec.atoms:
        inner = "->".join(
            f"x{v + 1}^{e}" for v, e in zip(atom.variables, atom.exponents)
        )
        if atom.kind == AtomKind.LOOP:
            inner += f"->x{atom.variables[0] + 1}"
        parts.append(f"{atom.kind.value}({inner})")
    return " + ".join(parts)


@dataclass(frozen=True)
class TransposeDual:
    weights: tuple[int, ...]
    degree: int
    rows: tuple[tuple[int, ...], ...]


def transpose_dual(
    rows: Sequence[Sequence[int]], weights: Sequence[int], degree: int
) -> TransposeDual:
    """Weights and degree making the transposed matrix homogeneous.

    Solves ``A^T x = (1, .., 1)`` and scales the solution by the lcm s of
    its denominators, the smallest d' giving integer weights ``s x``.  No
    common factor is left to divide out: if a prime power p^e exactly
    divides s, it divides the denominator of some x_j, so p divides neither
    the numerator of x_j nor s over that denominator, and p does not divide
    the weight ``s x_j``.
    """
    rows = [_int_vector(r) for r in rows]
    d = _validate_square_homogeneous(rows, weights)
    if d != degree:
        raise NotHomogeneous(0, 0, (d - degree,))
    n = len(rows)
    transposed = [tuple(r[i] for r in rows) for i in range(n)]
    solution = solve_rational(transposed, [1] * n)
    if any(x <= 0 for x in solution):
        raise NoPositiveSolution("transposed system has no positive weights")
    s = lcm(*(x.denominator for x in solution))
    new_weights = tuple(x.numerator * (s // x.denominator) for x in solution)
    return TransposeDual(new_weights, s, tuple(transposed))


def _system_on_wps(rows, weights) -> _linsys.MonomialSystem:
    return _linsys.monomial_system(_toric.make_wps(weights), rows)


def quasismooth_transpose_invariance(
    rows: Sequence[Sequence[int]], weights: Sequence[int], degree: int
) -> bool:
    """True iff the verdict is unchanged by transposition (expected always)."""
    original = wps_check(_system_on_wps(rows, weights))
    dual = transpose_dual(rows, weights, degree)
    transposed = wps_check(_system_on_wps(dual.rows, dual.weights))
    return original.quasismooth == transposed.quasismooth
