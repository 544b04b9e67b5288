"""Exact integer and rational linear algebra.

All arithmetic uses arbitrary-precision Python integers; no floating
point appears anywhere in the package.  Everything over the rationals
(ranks, affine spans, kernels and solves) goes
through one elimination kernel, :class:`Echelon`: a fraction-free row
echelon form that takes rows one at a time and reports whether each one
raised the rank.  Kernel vectors are read off it by back substitution, and
the unique solution of a square system is the kernel vector of the
augmented matrix at its last column, so a solve stays in integers until
one final division per coordinate yields a :class:`fractions.Fraction`.
The Smith normal form works over the integers and has its own loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul, sub
from typing import Iterable, Sequence

from .errors import DimensionMismatch, EmptyInput, InvariantViolation, SingularMatrix

Vector = tuple[int, ...]


def _exact_int(x) -> int:
    """``x`` as an int; a non-integral value raises instead of truncating."""
    if type(x) is int:
        return x
    try:
        n = int(x)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"entry {x!r} is not an integer") from exc
    if n != x:
        raise ValueError(f"entry {x!r} is not an integer")
    return n


def _int_vector(row: Iterable) -> Vector:
    return tuple(x if type(x) is int else _exact_int(x) for x in row)


def _as_int_rows(rows: Iterable[Sequence[int]]) -> tuple[Vector, ...]:
    out = []
    width = None
    for row in rows:
        t = _int_vector(row)
        if width is None:
            width = len(t)
        elif len(t) != width:
            raise DimensionMismatch("matrix rows have unequal lengths")
        out.append(t)
    return tuple(out)


@dataclass(frozen=True)
class IntMatrix:
    """Immutable rectangular matrix with exact integer entries."""

    entries: tuple[Vector, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", _as_int_rows(self.entries))

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "IntMatrix":
        return cls(tuple(tuple(r) for r in rows))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        bt = list(zip(*other.entries)) if other.entries else []
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in bt)
                for row in self.entries
            )
        )


@dataclass(frozen=True)
class SNFResult:
    """Smith decomposition U * M * V = D with U, V unimodular.

    D is diagonal with nonnegative entries forming a divisibility chain
    d_1 | d_2 | ... | d_k.
    """

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    @property
    def diagonal(self) -> Vector:
        n = min(self.D.rows, self.D.cols)
        return tuple(self.D.entries[i][i] for i in range(n))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def dot(a: Sequence[int], b: Sequence[int]) -> int:
    if len(a) != len(b):
        raise DimensionMismatch("dot product of vectors with different lengths")
    return sum(map(mul, a, b))


def vector_sub(a: Sequence[int], b: Sequence[int]) -> Vector:
    return tuple(map(sub, a, b))


def gcd_vector(v: Sequence[int]) -> int:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


class Echelon:
    """Integer rows in fraction-free row echelon form, added one at a time.

    Each stored row is primitive, zero at the pivot columns of the rows
    stored before it, and zero before its own pivot, its first nonzero
    entry.  So the rank of the first ``j`` columns is the number of pivots
    among them: the pivot columns are those of the reduced row echelon
    form, and ``kernel`` depends only on the row space.  Rows must
    hold Python integers; the public functions below convert and check
    their input first.
    """

    __slots__ = ("width", "rows")

    def __init__(self, width: int):
        self.width = width
        self.rows: list[tuple[int, Vector]] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def pivots(self) -> list[int]:
        """Pivot columns, in the order their rows were added."""
        return [c for c, _ in self.rows]

    def add(self, v: Sequence[int]) -> bool:
        """Reduce ``v`` by the stored rows; keep it and return True if it stays nonzero."""
        if len(v) != self.width:
            raise DimensionMismatch(f"row of length {len(v)} in an echelon of width {self.width}")
        rows = self.rows
        if len(rows) == self.width:
            return False
        for c, row in rows:
            b = v[c]
            if b:
                a = row[c]
                v = [a * x - b * y for x, y in zip(v, row)]
        if not any(v):
            return False
        for c, x in enumerate(v):
            if x:
                break
        g = gcd(*v)
        rows.append((c, tuple(v) if g == 1 else tuple(x // g for x in v)))
        return True

    def kernel(self) -> list[Vector]:
        """Primitive integer basis of {x : <row, x> = 0 for every row added}.

        One vector per non-pivot column f, in increasing order: the kernel
        vector that is 1 at f and 0 at the other non-pivot columns, scaled
        to a primitive integer vector with a positive entry at f.  It is
        solved for by back substitution through the rows, latest first.
        """
        n = self.width
        pivots = {c for c, _ in self.rows}
        latest_first = self.rows[::-1]
        basis = []
        for f in range(n):
            if f in pivots:
                continue
            x = [0] * n
            x[f] = 1
            for c, row in latest_first:
                s = sum(map(mul, row, x))
                if s:
                    # scale x by a / g, then solve row[c] * x[c] = -s exactly
                    a = row[c]
                    g = gcd(a, s)
                    if a != g:
                        m = a // g
                        x = [m * y for y in x]
                    x[c] = -s // g
            g = gcd(*x)
            if x[f] < 0:
                g = -g
            basis.append(tuple(x) if g == 1 else tuple(y // g for y in x))
        return basis


def _echelon(rows: tuple[Vector, ...], width: int) -> Echelon:
    e = Echelon(width)
    for row in rows:
        e.add(row)
    return e


def rank_rational(matrix: IntMatrix | Sequence[Sequence[int]]) -> int:
    """Rank over the rationals."""
    rows = matrix.entries if isinstance(matrix, IntMatrix) else _as_int_rows(matrix)
    return _echelon(rows, len(rows[0])).rank if rows else 0


def _swap_rows(a, u, i, j):
    a[i], a[j] = a[j], a[i]
    u[i], u[j] = u[j], u[i]


def _swap_cols(a, v, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]
    for row in v:
        row[i], row[j] = row[j], row[i]


def smith_normal_form(matrix: IntMatrix | Sequence[Sequence[int]]) -> SNFResult:
    """Smith normal form with unimodular transforms.

    Returns U, D, V with U * M * V = D, diagonal nonnegative and each entry
    dividing the next.  The identity is re-verified by exact multiplication;
    a failed re-check raises ``InvariantViolation``.
    """
    rows = matrix.entries if isinstance(matrix, IntMatrix) else _as_int_rows(matrix)
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def min_nonzero(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                val = abs(a[i][j])
                if val and (best is None or val < best[0]):
                    best = (val, i, j)
        return best

    t = 0
    while t < min(m, n):
        found = min_nonzero(t)
        if found is None:
            break
        _, pi, pj = found
        if pi != t:
            _swap_rows(a, u, t, pi)
        if pj != t:
            _swap_cols(a, v, t, pj)
        while True:
            # Reduce the pivot column, then the pivot row.
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        for j in range(n):
                            a[i][j] -= q * a[t][j]
                        for j in range(m):
                            u[i][j] -= q * u[t][j]
                    if a[i][t]:
                        _swap_rows(a, u, t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        for i in range(m):
                            a[i][j] -= q * a[i][t]
                        for i in range(n):
                            v[i][j] -= q * v[i][t]
                    if a[t][j]:
                        _swap_cols(a, v, t, j)
                        dirty = True
            if dirty:
                continue
            # Pivot must divide every remaining entry; absorb a witness row
            # and restart the reduction if it does not.
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(n):
                a[t][j] += a[offender][j]
            for j in range(m):
                u[t][j] += u[offender][j]
        if a[t][t] < 0:
            for j in range(n):
                a[t][j] = -a[t][j]
            for j in range(m):
                u[t][j] = -u[t][j]
        t += 1

    result = SNFResult(U=IntMatrix.from_rows(u), D=IntMatrix.from_rows(a), V=IntMatrix.from_rows(v))
    if not _snf_consistent(rows, result):
        raise InvariantViolation("Smith decomposition failed exact re-check")
    return result


def _snf_consistent(rows: tuple[Vector, ...], res: SNFResult) -> bool:
    if rows:
        product = res.U.mul(IntMatrix.from_rows(rows)).mul(res.V)
        if product.entries != res.D.entries:
            return False
    diag = res.diagonal
    for i, row in enumerate(res.D.entries):
        for j, val in enumerate(row):
            if i != j and val != 0:
                return False
    for i in range(len(diag) - 1):
        if diag[i] < 0 or (diag[i + 1] and diag[i] and diag[i + 1] % diag[i]):
            return False
        if diag[i] == 0 and diag[i + 1] != 0:
            return False
    return True


def affine_span_dim(points: Sequence[Sequence[int]]) -> int:
    """Dimension of the affine hull of a set of integer points."""
    if not points:
        raise EmptyInput("affine span of an empty point set")
    base, *rest = _as_int_rows(points)
    e = Echelon(len(base))
    for p in rest:
        e.add(vector_sub(p, base))
    return e.rank


def solve_rational(matrix: Sequence[Sequence[int]], rhs: Sequence[int]) -> tuple[Fraction, ...]:
    """Unique rational solution of a square integer system; raises SingularMatrix.

    The augmented matrix ``[A | b]`` of a nonsingular ``A`` has pivots on
    every column of ``A``, so its kernel is spanned by one vector ``(x, t)``
    with ``t > 0`` and ``A x = -t b``; the solution is ``-x / t``.
    """
    rows = tuple(_int_vector(row) + (_exact_int(y),) for row, y in zip(matrix, rhs))
    n = len(rows)
    if any(len(row) != n + 1 for row in rows):
        raise DimensionMismatch("solve_rational expects a square matrix")
    e = _echelon(rows, n + 1)
    if e.rank < n or n in e.pivots:
        raise SingularMatrix("matrix is singular over the rationals")
    (x,) = e.kernel()
    return tuple(Fraction(-y, x[n]) for y in x[:n])
