"""Independent exact-arithmetic oracles used only by the tests.

Convex-hull membership and interior tests are done with a small two-phase
simplex over Fractions (Bland's rule, so it always terminates), with no
code shared with the package's facet machinery.  The package's former
elimination routines (full-pivot Bareiss rank, fraction-free Gauss-Jordan
kernel and solve) live here too, so that ``linalg.Echelon`` and the hull
built on it are checked against code they do not share.  The former
versions of routines that a speed-up replaced (the per-point box scan,
the per-facet kernel facet listing, the unbounded irrelevant-component
search) live here too, for the differential tests against their
replacements, as do the former per-stratum row scans of the closed-form
checkers and the literal definition of a base stratum.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import ceil, floor, gcd

from qsmooth.errors import (
    DimensionMismatch,
    EmptyInput,
    GeneratorInBasis,
    NotBaseStratum,
    NotFakeWPS,
    SingularMatrix,
)
from qsmooth.errors import QsmoothError
from qsmooth.linalg import (
    Echelon,
    IntMatrix,
    _as_int_rows,
    _int_vector,
    dot,
    gcd_vector,
    smith_normal_form,
    vector_sub,
)
from qsmooth.linsys import BaseStratum, base_locus_strata, base_stratum
from qsmooth.polytope import (
    Equation,
    Facet,
    _affine_basis,
    _drop_midpoints,
    _facet_masks,
    hull,
    lattice_points,
)
from qsmooth.qscheck import (
    FailureReason,
    Method,
    QSVerdict,
    StratumFailure,
    StratumWitness,
    _require_fan,
    has_generator_row,
)
from qsmooth.toric import relevant_subsets


def _price_out(tableau, basis, cost):
    width = len(tableau[0]) if tableau else len(cost) + 1
    row = list(cost) + [Fraction(0)]
    for i, bv in enumerate(basis):
        coeff = row[bv]
        if coeff:
            row = [x - coeff * y for x, y in zip(row, tableau[i])]
    assert len(row) == width
    return row


def _optimize(tableau, basis, reduced):
    while True:
        entering = None
        for j in range(len(reduced) - 1):
            if reduced[j] < 0:
                entering = j
                break
        if entering is None:
            return "optimal", reduced
        leaving = None
        best = None
        for i, row in enumerate(tableau):
            if row[entering] > 0:
                ratio = row[-1] / row[entering]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leaving]
                ):
                    best = ratio
                    leaving = i
        if leaving is None:
            return "unbounded", reduced
        pivot = tableau[leaving][entering]
        tableau[leaving] = [x / pivot for x in tableau[leaving]]
        for i in range(len(tableau)):
            if i != leaving and tableau[i][entering]:
                f = tableau[i][entering]
                tableau[i] = [x - f * y for x, y in zip(tableau[i], tableau[leaving])]
        if reduced[entering]:
            f = reduced[entering]
            reduced = [x - f * y for x, y in zip(reduced, tableau[leaving])]
        basis[leaving] = entering


def simplex_min(a_rows, b, cost):
    """Minimize cost.x subject to A x = b, x >= 0, exactly.

    Returns (status, value, x) with status one of 'optimal', 'infeasible',
    'unbounded'.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if a_rows else len(cost)
    rows = [[Fraction(v) for v in row] for row in a_rows]
    rhs = [Fraction(v) for v in b]
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
    tableau = [
        rows[i]
        + [Fraction(1) if j == i else Fraction(0) for j in range(m)]
        + [rhs[i]]
        for i in range(m)
    ]
    basis = list(range(n, n + m))
    phase1_cost = [Fraction(0)] * n + [Fraction(1)] * m
    status, reduced = _optimize(tableau, basis, _price_out(tableau, basis, phase1_cost))
    assert status == "optimal"
    if -reduced[-1] != 0:
        return "infeasible", None, None
    # Drive artificial variables out of the basis; drop redundant rows.
    keep = []
    for i in range(len(tableau)):
        if basis[i] >= n:
            pivot_col = next((j for j in range(n) if tableau[i][j]), None)
            if pivot_col is None:
                continue
            pivot = tableau[i][pivot_col]
            tableau[i] = [x / pivot for x in tableau[i]]
            for k in range(len(tableau)):
                if k != i and tableau[k][pivot_col]:
                    f = tableau[k][pivot_col]
                    tableau[k] = [
                        x - f * y for x, y in zip(tableau[k], tableau[i])
                    ]
            basis[i] = pivot_col
        keep.append(i)
    tableau = [[tableau[i][j] for j in range(n)] + [tableau[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    phase2_cost = [Fraction(v) for v in cost]
    status, reduced = _optimize(tableau, basis, _price_out(tableau, basis, phase2_cost))
    if status != "optimal":
        return status, None, None
    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        x[bv] = tableau[i][-1]
    return "optimal", -reduced[-1], x


def in_convex_hull(points, target) -> bool:
    """Exact test that target is a convex combination of the points."""
    n = len(target)
    a_rows = [[Fraction(p[j]) for p in points] for j in range(n)]
    a_rows.append([Fraction(1)] * len(points))
    b = [Fraction(x) for x in target] + [Fraction(1)]
    status, _, _ = simplex_min(a_rows, b, [Fraction(0)] * len(points))
    return status == "optimal"


def _affine_rank(points) -> int:
    base = points[0]
    rows = [[Fraction(x - y) for x, y in zip(p, base)] for p in points[1:]]
    rank = 0
    cols = len(base)
    for col in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col]
        rows[rank] = [x / inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def in_interior(points, target) -> bool:
    """Exact test that target is interior to the hull of the points.

    Maximizes the smallest barycentric weight: with lambda_i = mu_i + t,
    the target is interior iff the points span the whole space and the
    optimal t is positive.
    """
    n = len(target)
    if _affine_rank(points) != n:
        return False
    m = len(points)
    a_rows = []
    for j in range(n):
        a_rows.append([Fraction(p[j]) for p in points] + [sum(Fraction(p[j]) for p in points)])
    a_rows.append([Fraction(1)] * m + [Fraction(m)])
    b = [Fraction(x) for x in target] + [Fraction(1)]
    cost = [Fraction(0)] * m + [Fraction(-1)]
    status, value, _ = simplex_min(a_rows, b, cost)
    if status != "optimal":
        return False
    return -value > 0


def interior_lattice_points_bruteforce(points) -> list[tuple[int, ...]]:
    """Box scan with the LP interior test; independent of facet data."""
    n = len(points[0])
    lows = [min(int(p[j]) for p in points) for j in range(n)]
    highs = [max(int(p[j]) for p in points) for j in range(n)]
    out = []
    for cand in itertools.product(*[range(lo, hi + 1) for lo, hi in zip(lows, highs)]):
        if in_interior(points, cand):
            out.append(cand)
    return out


def det_fraction(rows) -> Fraction:
    """Exact determinant by Gaussian elimination over Fractions."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    sign = 1
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        det *= a[col][col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for i in range(col + 1, n):
            if a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return det * sign


def solve_fraction(matrix, rhs) -> tuple[Fraction, ...]:
    """Unique solution of a square system by Gauss-Jordan over Fractions.

    Pivots on the first nonzero entry of each column and raises the
    package's ``SingularMatrix`` (``DimensionMismatch`` for a non-square
    matrix), so it can be compared with ``linalg.solve_rational`` input by
    input.
    """
    a = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(matrix, rhs)]
    n = len(a)
    if any(len(row) != n + 1 for row in a):
        raise DimensionMismatch("solve_fraction expects a square matrix")
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if a[i][col]), None)
        if pivot_row is None:
            raise SingularMatrix("matrix is singular over the rationals")
        a[col], a[pivot_row] = a[pivot_row], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                factor = a[i][col]
                a[i] = [x - factor * y for x, y in zip(a[i], a[col])]
    return tuple(row[n] for row in a)


def rank_bareiss(rows) -> int:
    """Rank over the rationals by fraction-free Bareiss elimination.

    This is the package's former ``linalg.rank_rational``: it pivots on the
    entry of largest magnitude in the remaining block.
    """
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    rank = 0
    prev = 1
    while rank < m and rank < n:
        best = None
        best_abs = 0
        for i in range(rank, m):
            for j in range(rank, n):
                v = abs(a[i][j])
                if v > best_abs:
                    best_abs = v
                    best = (i, j)
        if best is None:
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


def affine_span_dim_bareiss(points) -> int:
    """The package's former ``linalg.affine_span_dim``, on ``rank_bareiss``."""
    if not points:
        raise EmptyInput("affine span of an empty point set")
    diffs = [vector_sub(p, points[0]) for p in points[1:]]
    return rank_bareiss(diffs) if diffs else 0


def kernel_gauss_jordan(rows, width=None) -> list[tuple[int, ...]]:
    """Primitive kernel basis by fraction-free Gauss-Jordan elimination.

    This is the package's former ``linalg.rational_kernel_basis``: after
    two-sided Bareiss elimination every pivot entry equals the final pivot,
    so each free column's vector is read off in integers.
    """
    rows = [tuple(r) for r in rows]
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
        pivot_row = next((i for i in range(r, m) if a[i][col]), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        pivot = a[r][col]
        for i in range(m):
            if i == r:
                continue
            ai_col = a[i][col]
            for j in range(n):
                if j != col:
                    a[i][j] = (a[i][j] * pivot - ai_col * a[r][j]) // prev
            a[i][col] = 0
        prev = pivot
        pivots.append(col)
        r += 1
        if r == m:
            break
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        vec = [0] * n
        vec[f] = prev
        for i, p in enumerate(pivots):
            vec[p] = -a[i][f]
        if prev < 0:
            vec = [-x for x in vec]
        g = 0
        for x in vec:
            g = gcd(g, x)
        basis.append(tuple(x // g for x in vec))
    return basis


def solve_gauss_jordan(matrix, rhs) -> tuple[Fraction, ...]:
    """Unique solution of a square system by fraction-free Gauss-Jordan.

    This is the package's former ``linalg.solve_rational``: every pivot
    entry ends equal to the final pivot ``p``, so the solution is
    ``a[i][n] / p``.
    """
    a = [list(row) + [y] for row, y in zip(matrix, rhs)]
    n = len(a)
    if any(len(row) != n + 1 for row in a):
        raise DimensionMismatch("solve_gauss_jordan expects a square matrix")
    prev = 1
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if a[i][col]), None)
        if pivot_row is None:
            raise SingularMatrix("matrix is singular over the rationals")
        a[col], a[pivot_row] = a[pivot_row], a[col]
        pivot = a[col][col]
        for i in range(n):
            if i == col:
                continue
            ai_col = a[i][col]
            for j in range(n + 1):
                if j != col:
                    a[i][j] = (a[i][j] * pivot - ai_col * a[col][j]) // prev
            a[i][col] = 0
        prev = pivot
    return tuple(Fraction(row[n], prev) for row in a)


class EmptyGamma(QsmoothError):
    """A nonempty variable subset was required; only the oracles raise it."""


def in_row_space(v, matrix) -> bool:
    """Membership of v in the rational row span of a matrix.

    This is the package's former ``linalg.in_row_space``, on the package's
    ``Echelon``: v is in the span iff adding it does not raise the rank.
    """
    rows = matrix.entries if isinstance(matrix, IntMatrix) else _as_int_rows(matrix)
    v = _int_vector(v)
    if rows and len(v) != len(rows[0]):
        raise DimensionMismatch("vector length does not match matrix width")
    if not any(v):
        return True
    span = Echelon(len(v))
    for row in rows:
        span.add(row)
    return bool(rows) and not span.add(v)


def in_integer_row_space(v, rows) -> bool:
    """Membership of v in the integer row span of a matrix, by its Smith form.

    With ``U M V = D``, ``x M = v`` has an integer solution iff each
    coordinate of ``v V`` is divisible by the matching diagonal entry of
    ``D`` (and is zero where ``D`` has none).  This is the integer branch
    the package's ``linalg.in_row_space`` once had.
    """
    if not any(v):
        return True
    if not rows:
        return False
    snf = smith_normal_form(rows)
    diag = snf.diagonal
    for j, col in enumerate(zip(*snf.V.entries)):
        w = dot(v, col)
        d = diag[j] if j < len(diag) else 0
        if (w % d if d else w) != 0:
            return False
    return True


def gradings_equivalent(a, b) -> bool:
    """Free parts related by a unimodular row change (mutual Z-row-space inclusion).

    This is the package's former ``toric.gradings_equivalent``.
    """
    rows_a, rows_b = a.free_part.entries, b.free_part.entries
    if a.free_part.cols != b.free_part.cols or a.free_rank != b.free_rank:
        return False
    return all(in_integer_row_space(row, rows_b) for row in rows_a) and all(
        in_integer_row_space(row, rows_a) for row in rows_b
    )


def is_base_stratum(sys, c) -> bool:
    """A nonempty relevant subset that meets the support of every vertex row.

    The literal definition, which ``linsys.base_stratum`` tests on the
    support masks of its ``FaceTable`` instead; this is the package's
    former ``linsys.is_base_stratum``.
    """
    cs = tuple(sorted(set(c)))
    if not cs or not sys.ambient.is_relevant(cs):
        return False
    return all(any(sys.exponents[i][j] > 0 for j in cs) for i in sys.vertex_rows)


def m_gamma(sys, c, gamma) -> tuple[int, ...]:
    """Vertex rows with coordinate sum 1 on gamma, vanishing on C minus gamma.

    The literal definition, which ``qscheck.check_stratum_rank`` reads off
    the face supports instead; this is the package's former
    ``linsys.m_gamma``.
    """
    cs = tuple(sorted(set(c)))
    gs = tuple(sorted(set(gamma)))
    if not gs:
        raise EmptyGamma("gamma must be nonempty")
    if not set(gs) <= set(cs):
        raise ValueError("gamma must be a subset of the stratum")
    if not is_base_stratum(sys, cs):
        raise NotBaseStratum(f"{cs} is not a base-locus stratum")
    rest = [j for j in cs if j not in gs]
    return tuple(
        i
        for i in sys.vertex_rows
        if sum(sys.exponents[i][j] for j in gs) == 1
        and all(sys.exponents[i][j] == 0 for j in rest)
    )


def irrelevant_dim_in_stratum(ambient, c) -> int:
    """Largest dimension of an irrelevant zero pattern refining C (-1 if none)."""
    cs = set(c)
    return max((ambient.num_vars - len(cs | set(comp)) for comp in ambient.irrelevant), default=-1)


def necessary_screen(sys, c) -> bool:
    """Necessary test comparing the stratum dimension with the irrelevant locus.

    Requires that no basis monomial is a coordinate variable.  False on any
    base stratum implies the system is not quasismooth.  This is the
    package's former ``qscheck.necessary_screen``; it bounds the verdict
    from the other side than ``qscheck.sufficient_screen``.
    """
    if has_generator_row(sys):
        raise GeneratorInBasis("necessary screen assumes no generator in the basis")
    st = base_stratum(sys, c)
    dim_stratum = sys.num_vars - len(st.variables)
    return dim_stratum - st.k <= irrelevant_dim_in_stratum(sys.ambient, st.variables)


def m_gamma_unrestricted(sys, gamma) -> list[tuple[int, ...]]:
    """Literal reading: all Newton-polytope lattice points with gamma-sum 1.

    No vanishing condition outside gamma is imposed and interior lattice
    points count.  Enumerates the lattice points of the Newton polytope, so
    keep inputs small.
    """
    gs = tuple(sorted(set(gamma)))
    if not gs:
        raise EmptyGamma("gamma must be nonempty")
    delta = hull(sys.exponents)
    return [p for p in lattice_points(delta) if sum(p[j] for j in gs) == 1]


def check_stratum_rank_unrestricted(sys, c):
    """Rank test on the literal reading of the coordinate-sum slice.

    Any nonempty subset of the stratum may carry a nonempty slice of
    ``m_gamma_unrestricted``, with no vanishing condition outside gamma;
    kept to compare the literal reading with the package's restricted one.
    """
    cs = tuple(sorted(set(c)))
    if not is_base_stratum(sys, cs):
        raise NotBaseStratum(f"{cs} is not a base-locus stratum")
    some_slice_nonempty = False
    for size in range(1, len(cs) + 1):
        for gamma in itertools.combinations(cs, size):
            points = m_gamma_unrestricted(sys, gamma)
            if not points:
                continue
            small = rank_bareiss([tuple(p[j] for j in gamma) for p in points])
            big = rank_bareiss(points)
            some_slice_nonempty = True
            if 2 * small > big:
                return StratumWitness(cs, gamma, len(gamma), small, big)
    if not some_slice_nonempty:
        return StratumFailure(cs, FailureReason.ALL_FACES_EMPTY)
    return StratumFailure(cs, FailureReason.NO_DEGENERATE_SUBCOLLECTION)


def base_locus_strata_scan(sys) -> list[BaseStratum]:
    """Base strata by scanning every relevant subset and filtering it.

    This is the package's former enumerator: it walks
    ``toric.relevant_subsets`` in (size, lex) order, keeps the subsets that
    meet every vertex row, and reads each face support off the exponents
    one variable at a time, with no bitmasks.
    """
    vertex_exps = [sys.exponents[i] for i in sys.vertex_rows]
    strata = []
    for c in relevant_subsets(sys.ambient):
        if not c or not all(any(row[j] > 0 for j in c) for row in vertex_exps):
            continue
        supports = tuple(
            (
                rho,
                tuple(
                    i
                    for i in sys.vertex_rows
                    if sys.exponents[i][rho] == 1
                    and all(sys.exponents[i][g] == 0 for g in c if g != rho)
                ),
            )
            for rho in c
        )
        k = sum(1 for _, rows in supports if rows)
        strata.append(BaseStratum(variables=c, face_supports=supports, k=k))
    return strata


def stratum_on_scan(sys, c) -> BaseStratum:
    """The stratum C with its face supports, by scanning every vertex row.

    This is the package's former ``linsys._stratum_on``: a row supports rho
    when its support meets C only at rho, with exponent 1 there.  It builds
    every face afresh, with no table and no sharing between strata.
    """
    cs = tuple(sorted(set(c)))
    if not is_base_stratum(sys, cs):
        raise NotBaseStratum(f"{cs} is not a base-locus stratum")
    cmask = sum(1 << j for j in cs)
    supports = dict.fromkeys(cs, ())
    for i in sys.vertex_rows:
        row = sys.exponents[i]
        t = sum(1 << j for j, x in enumerate(row) if x) & cmask
        ones = sum(1 << j for j, x in enumerate(row) if x == 1)
        if t & ones and not t & (t - 1):
            supports[t.bit_length() - 1] += (i,)
    k = sum(1 for rows in supports.values() if rows)
    return BaseStratum(variables=cs, face_supports=tuple(supports.items()), k=k)


def _gamma_ranks_fresh(sys, rows, gamma):
    small, big = Echelon(len(gamma)), Echelon(sys.num_vars)
    for i in rows:
        row = sys.exponents[i]
        small.add([row[j] for j in gamma])
        big.add(row)
    return small.rank, big.rank


def check_stratum_rank_uncached(sys, c):
    """The package's former ``qscheck.check_stratum_rank``, on ``stratum_on_scan``.

    Every gamma, single faces included, is ranked afresh.
    """
    st = stratum_on_scan(sys, c)
    cs, supports = st.variables, dict(st.face_supports)
    candidates = [rho for rho in cs if supports[rho]]
    if not candidates:
        return StratumFailure(cs, FailureReason.ALL_FACES_EMPTY)
    for size in range(1, len(candidates) + 1):
        for gamma in itertools.combinations(candidates, size):
            rows = sorted(i for rho in gamma for i in supports[rho])
            small, big = _gamma_ranks_fresh(sys, rows, gamma)
            if 2 * small > big:
                return StratumWitness(cs, gamma, len(gamma), small, big)
    return StratumFailure(cs, FailureReason.NO_DEGENERATE_SUBCOLLECTION)


def check_stratum_polytope_uncached(sys, c):
    """The package's former ``qscheck.check_stratum_polytope``, on ``stratum_on_scan``.

    Every face is translated and every gamma's span is ranked afresh.
    """
    st = stratum_on_scan(sys, c)
    cs = st.variables
    translated = {}
    for rho, rows in st.face_supports:
        pts = [sys.exponents[i] for i in rows]
        if pts:
            base = min(pts)
            translated[rho] = [vector_sub(p, base) for p in pts if p != base]
    if not translated:
        return StratumFailure(cs, FailureReason.ALL_FACES_EMPTY)
    for size in range(1, len(translated) + 1):
        for gamma in itertools.combinations(translated, size):
            union = Echelon(sys.num_vars)
            for rho in gamma:
                for p in translated[rho]:
                    union.add(p)
            span, k = union.rank, len(gamma)
            if k > span:
                return StratumWitness(cs, gamma, k, k, k + span)
    return StratumFailure(cs, FailureReason.NO_DEGENERATE_SUBCOLLECTION)


def wps_check_subsets(sys) -> QSVerdict:
    """Fake-WPS criterion by scanning every nonempty proper variable subset.

    This is the package's former ``delsarte.wps_check``: for every subset
    gamma in (size, lex) order, either some vertex monomial omits all of
    gamma, or the rows whose gamma-exponents sum to 1 must span at least
    ``num_vars - |gamma|`` dimensions on gamma, one rank per subset.
    """
    if not sys.ambient.is_fake_wps():
        raise NotFakeWPS("ambient is not a fake weighted projective space")
    if has_generator_row(sys):
        raise GeneratorInBasis("criterion assumes no generator in the basis")
    vertex_exps = sys.vertex_exponents()
    r = sys.num_vars
    for size in range(1, r):
        for gamma in itertools.combinations(range(r), size):
            if any(all(row[j] == 0 for j in gamma) for row in vertex_exps):
                continue
            slice_rows = [
                tuple(row[j] for j in gamma)
                for row in vertex_exps
                if sum(row[j] for j in gamma) == 1
            ]
            if not slice_rows:
                return QSVerdict(
                    False,
                    Method.WPS,
                    failure=StratumFailure(gamma, FailureReason.ALL_FACES_EMPTY),
                )
            if rank_bareiss(slice_rows) < r - size:
                return QSVerdict(
                    False,
                    Method.WPS,
                    failure=StratumFailure(
                        gamma, FailureReason.NO_DEGENERATE_SUBCOLLECTION
                    ),
                )
    return QSVerdict(True, Method.WPS)


def _one_variable_failure(vertex_exps, i):
    """Why the stratum {x_i} fails, or None: it needs exactly one monomial
    with exponent 1 in x_i."""
    count = sum(1 for row in vertex_exps if row[i] == 1)
    if count == 1:
        return None
    if count == 0:
        return FailureReason.ALL_FACES_EMPTY
    return FailureReason.NO_DEGENERATE_SUBCOLLECTION


def check_curve_on_surface_scan(sys) -> QSVerdict:
    """Closed-form verdict for curves on a complete toric surface.

    Base-point-free systems pass.  A one-variable stratum needs exactly one
    monomial with exponent 1 in that variable; a two-variable stratum needs
    a monomial whose two exponents there sum to 1.  This is the package's
    former ``qscheck.check_curve_on_surface``, which scanned the vertex rows
    per stratum instead of reading the faces of the ``BaseStratum``.
    """
    _require_fan(sys, rank=2, simplicial=False)
    vertex_exps = sys.vertex_exponents()
    for st in base_locus_strata(sys):
        c = st.variables
        if len(c) == 1:
            reason = _one_variable_failure(vertex_exps, c[0])
            if reason is None:
                continue
            return QSVerdict(False, Method.CURVE, failure=StratumFailure(c, reason))
        i, j = c
        if any(row[i] + row[j] == 1 for row in vertex_exps):
            continue
        return QSVerdict(
            False,
            Method.CURVE,
            failure=StratumFailure(c, FailureReason.ALL_FACES_EMPTY),
        )
    return QSVerdict(True, Method.CURVE)


def check_surface_on_threefold_scan(sys) -> QSVerdict:
    """Closed-form verdict for surfaces on a simplicial projective threefold.

    One-variable strata behave as on surfaces.  A two-variable stratum
    {i, j} passes when either both patterns (1 on one variable, 0 on the
    other) occur, or only one occurs and exactly one monomial realizes it.
    A three-variable stratum needs a monomial with exponent sum 1 there.
    This is the package's former ``qscheck.check_surface_on_threefold``,
    which scanned the vertex rows per stratum.
    """
    _require_fan(sys, rank=3, simplicial=True)
    vertex_exps = sys.vertex_exponents()
    for st in base_locus_strata(sys):
        c = st.variables
        if len(c) == 1:
            reason = _one_variable_failure(vertex_exps, c[0])
            if reason is None:
                continue
            return QSVerdict(False, Method.SURFACE, failure=StratumFailure(c, reason))
        if len(c) == 2:
            i, j = c
            side_i = [row for row in vertex_exps if row[i] == 1 and row[j] == 0]
            side_j = [row for row in vertex_exps if row[j] == 1 and row[i] == 0]
            if side_i and side_j:
                continue
            lone = side_i or side_j
            if len(lone) == 1:
                continue
            reason = (
                FailureReason.ALL_FACES_EMPTY
                if not lone
                else FailureReason.NO_DEGENERATE_SUBCOLLECTION
            )
            return QSVerdict(False, Method.SURFACE, failure=StratumFailure(c, reason))
        if any(sum(row[v] for v in c) == 1 for row in vertex_exps):
            continue
        return QSVerdict(
            False,
            Method.SURFACE,
            failure=StratumFailure(c, FailureReason.ALL_FACES_EMPTY),
        )
    return QSVerdict(True, Method.SURFACE)


def drop_midpoints_pairs(pts):
    """Points that are not exact averages of two others, by testing every pair.

    This is the package's former ``polytope._drop_midpoints``, with its
    explicit ``b != a`` and ``b != p`` tests.
    """
    index = set(pts)
    core = []
    for p in pts:
        doubled = tuple(2 * x for x in p)
        is_mid = False
        for a in pts:
            if a == p:
                continue
            b = tuple(d - x for d, x in zip(doubled, a))
            if b != a and b in index and b != p:
                is_mid = True
                break
        if not is_mid:
            core.append(p)
    return core


def int_hull_data_exhaustive(pts):
    """Facets, equations and vertex flags by testing every facet candidate.

    This is the package's former ``polytope._int_hull_data``: it tries every
    ``dim``-subset of the core points (the points that are not midpoints of
    two others) in ``itertools.combinations`` order, keeps each affinely
    independent subset whose hyperplane supports the hull, and records a
    facet the first time its support appears.  A point is a vertex when the
    normals of the facets and equations through it have full rank.
    """
    n = len(pts[0])
    base = pts[0]
    diffs = [vector_sub(p, base) for p in pts[1:]]
    dim = rank_bareiss(diffs)

    eq_normals = kernel_gauss_jordan(diffs, width=n) if dim < n else []
    equations = [Equation(tuple(nv), dot(nv, base)) for nv in eq_normals]

    facets = []
    seen_supports = set()
    eq_rank = rank_bareiss(eq_normals)
    core = drop_midpoints_pairs(pts)
    if dim >= 1:
        for subset in itertools.combinations(range(len(core)), dim):
            s0 = core[subset[0]]
            sub_diffs = [vector_sub(core[i], s0) for i in subset[1:]]
            if sub_diffs and rank_bareiss(sub_diffs) != dim - 1:
                continue
            kernel = kernel_gauss_jordan(sub_diffs, width=n)
            normal = None
            for cand in kernel:
                if rank_bareiss(eq_normals + [cand]) > eq_rank:
                    normal = cand
                    break
            if normal is None:
                continue
            pivot = dot(normal, s0)
            values = [dot(normal, p) for p in core]
            if all(v >= pivot for v in values):
                pass
            elif all(v <= pivot for v in values):
                normal = tuple(-x for x in normal)
                pivot = -pivot
                values = [-v for v in values]
            else:
                continue
            support = frozenset(i for i, v in enumerate(values) if v == pivot)
            if support in seen_supports:
                continue
            seen_supports.add(support)
            g = gcd_vector(normal)
            if g > 1:
                normal = tuple(x // g for x in normal)
                pivot = pivot // g
            facets.append(Facet(normal, pivot))

    vertex_flags = []
    for p in pts:
        tight = [f.normal for f in facets if dot(f.normal, p) == f.offset]
        tight += [eq.normal for eq in equations]
        vertex_flags.append(bool(tight) and rank_bareiss(tight) == n)
    return dim, facets, equations, vertex_flags


def list_facets_kernel(pts):
    """Facets of the hull of distinct integer points, one kernel per facet.

    This is the package's former ``polytope._list_facets``: the hull's
    incidence masks come from ``polytope._facet_masks`` on the core points
    projected to the span's pivot coordinates, as in ``_hull_parts``, but
    each normal is recomputed in ambient coordinates as the first kernel
    vector of the facet's first affinely independent subset that does not
    vanish on the affine hull, its sign fixed by a point off the facet.
    """
    n = len(pts[0])
    span = Echelon(n)
    for p in pts[1:]:
        span.add(vector_sub(p, pts[0]))
    dim = span.rank
    if dim == 0:
        return []
    core = _drop_midpoints(pts)
    proj = [tuple(p[j] for j in span.pivots) for p in core]
    masks = _facet_masks(proj, dim).values()
    facets = []
    for basis, mask in sorted((_affine_basis(proj, m, dim)[0], m) for m in masks):
        s0 = core[basis[0]]
        kernel = kernel_gauss_jordan([vector_sub(core[i], s0) for i in basis[1:]], width=n)
        normal = next(v for v in kernel if any(dot(v, row) for _, row in span.rows))
        pivot = dot(normal, s0)
        off = next(i for i in range(len(core)) if not mask >> i & 1)
        if dot(normal, core[off]) < pivot:
            normal = tuple(-x for x in normal)
            pivot = -pivot
        facets.append(Facet(tuple(normal), pivot))
    return facets


def box_scan_points(p, strict):
    """Integer points of the vertex bounding box that lie in P, one by one.

    This is the package's former ``polytope._box_scan``: every point of the
    box is tested with ``contains`` (strictly inside when ``strict``), in
    lexicographic order.
    """
    ranges = []
    for j in range(p.dim_ambient):
        coords = [Fraction(v[j]) for v in p.vertices]
        ranges.append(range(ceil(min(coords)), floor(max(coords)) + 1))
    return [cand for cand in itertools.product(*ranges) if p.contains(cand, strict)]


def irrelevant_components_unbounded(fan):
    """Minimal non-faces of a fan, trying every subset size up to the ray count.

    This is the package's former ``toric.irrelevant_components``.
    """
    cone_sets = [set(c) for c in fan.max_cones]
    found = []
    out = []
    indices = range(fan.num_rays)
    for size in range(1, fan.num_rays + 1):
        for cand in itertools.combinations(indices, size):
            cs = set(cand)
            if any(prev <= cs for prev in found):
                continue
            if any(cs <= cone for cone in cone_sets):
                continue
            found.append(cs)
            out.append(cand)
    return out

