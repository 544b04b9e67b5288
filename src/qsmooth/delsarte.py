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
from math import gcd
from typing import Sequence

from . import linsys as _linsys
from . import toric as _toric
from .errors import (
    DegreeTooSmall,
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
    if any(len(r) != n for r in rows):
        raise NotSquare("exponent matrix must be square")
    if len(weights) != n:
        raise NotSquare("weights length must match the matrix size")
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
    off-diagonal 1, and each column at most one off-diagonal 1.  Under the
    stated degree hypothesis, and provided no basis monomial is a cross
    term x_i * x_j, this succeeds exactly on the quasismooth square
    systems.  Cross terms (possible when the degree equals a sum of two
    weights) can be quasismooth without any atomic decomposition, e.g.
    x2*x3, x1^4*x3, x1^5*x2^2 with weights (1, 4, 9).
    """
    rows = [_int_vector(r) for r in rows]
    d = _validate_square_homogeneous(rows, weights)
    if any(d <= w for w in weights):
        raise DegreeTooSmall("system degree must exceed every variable degree")
    n = len(rows)

    row_of_col: dict[int, int] = {}
    for i, row in enumerate(rows):
        large = [j for j, x in enumerate(row) if x > 1]
        if len(large) != 1:
            return None
        j = large[0]
        if j in row_of_col:
            return None
        row_of_col[j] = i
    if len(row_of_col) != n:
        return None

    out_edge: dict[int, int | None] = {}
    for j in range(n):
        row = rows[row_of_col[j]]
        others = [j2 for j2 in range(n) if j2 != j and row[j2]]
        if sum(row[j2] for j2 in others) > 1:
            return None
        out_edge[j] = others[0] if others else None
    for j in range(n):
        incoming = [j2 for j2 in range(n) if j2 != j and rows[row_of_col[j2]][j]]
        if sum(rows[row_of_col[j2]][j] for j2 in incoming) > 1:
            return None

    in_edge: dict[int, int | None] = {j: None for j in range(n)}
    for j, target in out_edge.items():
        if target is not None:
            in_edge[target] = j

    atoms = []
    visited: set[int] = set()
    for start in range(n):
        if start in visited or in_edge[start] is not None:
            continue
        path = [start]
        visited.add(start)
        while out_edge[path[-1]] is not None:
            path.append(out_edge[path[-1]])
            visited.add(path[-1])
        exps = tuple(rows[row_of_col[v]][v] for v in path)
        kind = AtomKind.FERMAT if len(path) == 1 else AtomKind.CHAIN
        atoms.append(AtomicType(kind, tuple(path), exps))
    for start in range(n):
        if start in visited:
            continue
        cycle = [start]
        visited.add(start)
        nxt = out_edge[start]
        while nxt != start:
            cycle.append(nxt)
            visited.add(nxt)
            nxt = out_edge[nxt]
        pivot = cycle.index(min(cycle))
        cycle = cycle[pivot:] + cycle[:pivot]
        exps = tuple(rows[row_of_col[v]][v] for v in cycle)
        atoms.append(AtomicType(AtomKind.LOOP, tuple(cycle), exps))

    atoms.sort(key=lambda a: a.variables[0])
    decomposition = DelsarteDecomposition(
        atoms=tuple(atoms),
        row_permutation=tuple(row_of_col[j] for j in range(n)),
    )
    rebuilt = sorted(
        row for atom in decomposition.atoms for row in atom.rows(n)
    )
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

    Solves ``A^T w' = d' (1,..,1)`` for the smallest d' giving positive
    integer weights, then divides weights and degree by their common gcd
    so the presentation is normalized.
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
    lcm = 1
    for x in solution:
        lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    raw = [int(x * lcm) for x in solution]
    g = 0
    for v in raw + [lcm]:
        g = gcd(g, v)
    new_weights = tuple(v // g for v in raw)
    new_degree = lcm // g
    return TransposeDual(new_weights, new_degree, tuple(transposed))


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
