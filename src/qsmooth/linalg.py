"""Exact integer and rational linear algebra.

All arithmetic uses arbitrary-precision Python integers; no floating
point appears anywhere in the package.  Ranks are computed with
fraction-free Gaussian elimination in the Bareiss style, pivoting on the
entry of largest magnitude to bound intermediate growth.  Kernels and
rational solves use fraction-free Gauss-Jordan elimination, so a solve
stays in integers until one final division per coordinate yields a
:class:`fractions.Fraction`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .errors import DimensionMismatch, EmptyInput, SingularMatrix

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

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries))) if self.entries else IntMatrix(())

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "IntMatrix":
        return IntMatrix(
            tuple(tuple(self.entries[i][j] for j in col_idx) for i in row_idx)
        )

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

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        return self.mul(other)


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
    return sum(x * y for x, y in zip(a, b))


def vector_sub(a: Sequence[int], b: Sequence[int]) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def gcd_vector(v: Sequence[int]) -> int:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


def primitive(v: Sequence[int]) -> Vector:
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = gcd_vector(v)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def rank_rational(matrix: IntMatrix | Sequence[Sequence[int]]) -> int:
    """Rank over the rationals via fraction-free Bareiss elimination."""
    rows = matrix.entries if isinstance(matrix, IntMatrix) else _as_int_rows(matrix)
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    rank = 0
    prev = 1
    while rank < m and rank < n:
        # Pivot on the largest-magnitude entry of the remaining block.
        best = None
        best_abs = 0
        for i in range(rank, m):
            for j in range(rank, n):
                v = abs(a[i][j])
                if v > best_abs:
                    best_abs = v
                    best = (i, j)
        if best is None or best_abs == 0:
            break
        pi, pj = best
        if pi != rank:
            a[pi], a[rank] = a[rank], a[pi]
        if pj != rank:
            for row in a:
                row[pj], row[rank] = row[rank], row[pj]
        pivot = a[rank][rank]
        for i in range(rank + 1, m):
            for j in range(rank + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][rank] * a[rank][j]) // prev
            a[i][rank] = 0
        prev = pivot
        rank += 1
    return rank


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
    dividing the next.  The identity is re-verified by exact multiplication
    whenever assertions are enabled.
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
    assert _snf_consistent(rows, result), "Smith decomposition failed exact re-check"
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
    base = points[0]
    diffs = [vector_sub(p, base) for p in points[1:]]
    if not diffs:
        return 0
    return rank_rational(diffs)


def in_row_space(
    v: Sequence[int],
    matrix: IntMatrix | Sequence[Sequence[int]],
    over: str = "rationals",
) -> bool:
    """Membership of v in the rational or integral row span of a matrix."""
    rows = matrix.entries if isinstance(matrix, IntMatrix) else _as_int_rows(matrix)
    v = _int_vector(v)
    if rows and len(v) != len(rows[0]):
        raise DimensionMismatch("vector length does not match matrix width")
    if all(x == 0 for x in v):
        return True
    if not rows:
        return False
    if over == "rationals":
        base = rank_rational(rows)
        return rank_rational(rows + (v,)) == base
    if over != "integers":
        raise ValueError(f"unknown coefficient ring {over!r}")
    # x * M = v has an integer solution iff (v * V) is compatible with D.
    snf = smith_normal_form(rows)
    w = tuple(dot(v, snf.V.column(j)) for j in range(snf.V.cols))
    diag = snf.diagonal
    for j, wj in enumerate(w):
        d = diag[j] if j < len(diag) else 0
        if d == 0:
            if wj != 0:
                return False
        elif wj % d:
            return False
    return True


def solve_rational(matrix: Sequence[Sequence[int]], rhs: Sequence[int]) -> tuple[Fraction, ...]:
    """Unique rational solution of a square integer system; raises SingularMatrix.

    Fraction-free Gauss-Jordan elimination on the augmented matrix, pivoting
    on the first nonzero entry of each column: every pivot entry ends equal
    to the final pivot ``p``, so the solution is ``a[i][n] / p`` and the only
    rational arithmetic is that last division.
    """
    a = [list(_int_vector(row)) + [_exact_int(y)] for row, y in zip(matrix, rhs)]
    n = len(a)
    if any(len(row) != n + 1 for row in a):
        raise DimensionMismatch("solve_rational expects a square matrix")
    prev = 1
    for col in range(n):
        pivot_row = None
        for i in range(col, n):
            if a[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            raise SingularMatrix("matrix is singular over the rationals")
        a[col], a[pivot_row] = a[pivot_row], a[col]
        row_c = a[col]
        pivot = row_c[col]
        for i in range(n):
            if i == col:
                continue
            row_i = a[i]
            ai_col = row_i[col]
            for j in range(n + 1):
                if j != col:
                    row_i[j] = (row_i[j] * pivot - ai_col * row_c[j]) // prev
            row_i[col] = 0
        prev = pivot
    return tuple(Fraction(row[n], prev) for row in a)


def rational_kernel_basis(rows: Sequence[Sequence[int]], width: int | None = None) -> list[Vector]:
    """Primitive integer vectors spanning {x : M x = 0} over the rationals.

    Fraction-free Gauss-Jordan elimination: after two-sided Bareiss
    elimination every pivot entry equals the final pivot, so kernel vectors
    can be read off with pure integer arithmetic.
    ``width`` must be given when ``rows`` is empty (kernel = whole space).
    """
    rows = _as_int_rows(rows)
    if not rows:
        if width is None:
            raise EmptyInput("kernel of an empty matrix needs an explicit width")
        return [tuple(1 if j == i else 0 for j in range(width)) for i in range(width)]
    n = len(rows[0])
    a = [list(r) for r in rows]
    m = len(a)
    pivots: list[int] = []
    prev = 1
    r = 0
    for col in range(n):
        pivot_row = None
        for i in range(r, m):
            if a[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            a[r], a[pivot_row] = a[pivot_row], a[r]
        pivot = a[r][col]
        for i in range(m):
            if i == r:
                continue
            ai_col = a[i][col]
            row_i = a[i]
            row_r = a[r]
            for j in range(n):
                if j != col:
                    row_i[j] = (row_i[j] * pivot - ai_col * row_r[j]) // prev
            row_i[col] = 0
        prev = pivot
        pivots.append(col)
        r += 1
        if r == m:
            break
    pivot_set = set(pivots)
    basis = []
    for f in range(n):
        if f in pivot_set:
            continue
        vec = [0] * n
        vec[f] = prev
        for i, p in enumerate(pivots):
            vec[p] = -a[i][f]
        if prev < 0:
            vec = [-x for x in vec]
        basis.append(primitive(vec))
    return basis
