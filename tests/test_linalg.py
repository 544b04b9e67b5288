import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsmooth.linalg as linalg
from oracle import (
    affine_span_dim_bareiss,
    det_fraction,
    in_integer_row_space,
    in_row_space,
    kernel_gauss_jordan,
    rank_bareiss,
    solve_fraction,
    solve_gauss_jordan,
)
from qsmooth.errors import (
    DimensionMismatch,
    EmptyInput,
    InvariantViolation,
    SingularMatrix,
)
from qsmooth.linalg import (
    Echelon,
    IntMatrix,
    affine_span_dim,
    rank_rational,
    smith_normal_form,
    solve_rational,
)


def _kernel(rows, width=None):
    """Kernel basis of ``rows`` read off an ``Echelon`` (``width`` when empty)."""
    e = Echelon(len(rows[0]) if rows else width)
    for row in rows:
        e.add(row)
    return e.kernel()


SLICE_BIG = [
    (2, 1, 0, 2, 0),
    (2, 1, 0, 0, 2),
    (2, 0, 1, 2, 0),
    (2, 0, 1, 0, 2),
]
SLICE_SMALL = [(1, 0), (1, 0), (0, 1), (0, 1)]

small_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda rows: st.integers(min_value=1, max_value=5).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(min_value=-6, max_value=6), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
)


class TestRank:
    def test_identity(self):
        assert rank_rational(IntMatrix.from_rows([(1, 0), (0, 1)])) == 2

    def test_full_slice_matrix(self):
        assert rank_rational(SLICE_BIG) == 3

    def test_indicator_slice_matrix(self):
        assert rank_rational(SLICE_SMALL) == 2

    def test_zero_matrix(self):
        assert rank_rational([(0, 0), (0, 0)]) == 0

    @settings(max_examples=150, deadline=None)
    @given(small_matrices)
    def test_transpose_invariance(self, rows):
        m = IntMatrix.from_rows(rows)
        assert rank_rational(m) == rank_rational(list(zip(*rows)))

    @settings(max_examples=100, deadline=None)
    @given(small_matrices)
    def test_rank_matches_smith_form(self, rows):
        assert rank_rational(rows) == smith_normal_form(rows).rank


class TestSmithNormalForm:
    def test_identity(self):
        res = smith_normal_form(IntMatrix.from_rows([(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
        assert res.diagonal == (1, 1, 1)

    def test_divisibility_merges_coprime_entries(self):
        res = smith_normal_form([(2, 0), (0, 3)])
        assert res.diagonal == (1, 6)

    def test_random_decomposition_recomputed(self):
        rng = random.Random(7)
        for _ in range(20):
            rows = [
                tuple(rng.randint(-5, 5) for _ in range(6)) for _ in range(4)
            ]
            res = smith_normal_form(rows)
            product = res.U.mul(IntMatrix.from_rows(rows)).mul(res.V)
            assert product.entries == res.D.entries
            assert abs(det_fraction(res.U.entries)) == 1
            assert abs(det_fraction(res.V.entries)) == 1
            diag = res.diagonal
            for a, b in zip(diag, diag[1:]):
                assert a >= 0
                if b:
                    assert a != 0 and b % a == 0

    @settings(max_examples=80, deadline=None)
    @given(small_matrices)
    def test_transforms_are_unimodular(self, rows):
        res = smith_normal_form(rows)
        assert abs(det_fraction(res.U.entries)) == 1
        assert abs(det_fraction(res.V.entries)) == 1

    def test_failed_recheck_raises(self, monkeypatch):
        monkeypatch.setattr(linalg, "_snf_consistent", lambda rows, res: False)
        with pytest.raises(InvariantViolation):
            smith_normal_form([(2, 0), (0, 3)])


class TestAffineSpanDim:
    def test_single_point(self):
        assert affine_span_dim([(4, 5, 6)]) == 0

    def test_segment(self):
        assert affine_span_dim([(2, 0, 0, 2, 0), (2, 0, 0, 0, 2)]) == 1

    def test_points_on_a_random_plane(self):
        rng = random.Random(3)
        u = (1, 0, 2, -1, 3)
        v = (0, 1, -1, 2, 0)
        base = (5, -2, 0, 1, 1)
        pts = [
            tuple(b + a * x + c * y for b, x, y in zip(base, u, v))
            for a, c in [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(4)]
        ]
        # make sure two independent directions really occur
        pts += [tuple(b + x for b, x in zip(base, u)), tuple(b + y for b, y in zip(base, v))]
        assert affine_span_dim(pts) == 2

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            affine_span_dim([])

    @pytest.mark.parametrize(
        "points", [[(0, 0), (1,), (2,)], [(0,), (1, 1)], [(1, 2), (3, 4), (5,)], [(1,), ()]]
    )
    def test_ragged_points_rejected(self, points):
        with pytest.raises(DimensionMismatch):
            affine_span_dim(points)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=-5, max_value=5), min_size=3, max_size=3),
            min_size=1,
            max_size=6,
        ),
        st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3),
    )
    def test_translation_and_permutation_invariance(self, pts, shift):
        dim = affine_span_dim(pts)
        shifted = [tuple(x + s for x, s in zip(p, shift)) for p in pts]
        assert affine_span_dim(shifted) == dim
        assert affine_span_dim(list(reversed(pts))) == dim


class TestRowSpace:
    def test_zero_vector(self):
        assert in_row_space((0, 0, 0), [(1, 2, 3)])

    def test_unreachable_coordinate(self):
        assert not in_row_space((1, 1, 1), [(1, 0, 0), (0, 1, 0)])

    def test_random_integer_combinations(self):
        rng = random.Random(11)
        rows = [(2, 1, 0, 3), (0, 1, 1, -1), (1, 0, 0, 5)]
        for _ in range(25):
            coeffs = [rng.randint(-4, 4) for _ in rows]
            v = tuple(
                sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(4)
            )
            assert in_integer_row_space(v, rows)
            assert in_row_space(v, rows)

    def test_integral_versus_rational(self):
        assert in_row_space((1, 0), [(2, 0)])
        assert not in_integer_row_space((1, 0), [(2, 0)])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            in_row_space((1, 0, 0), [(1, 0)])


class TestSolveAndKernel:
    def test_solve_unique(self):
        assert solve_rational([(3, 0), (1, 4)], (1, 1)) == (
            Fraction(1, 3),
            Fraction(1, 6),
        )

    def test_solve_singular(self):
        with pytest.raises(SingularMatrix):
            solve_rational([(1, 2), (2, 4)], (1, 1))

    def test_solve_matches_fraction_oracle(self):
        rng = random.Random(33_833)
        singular = 0
        for trial in range(3000):
            n = rng.randint(1, 6)
            bound = rng.choice([1, 2, 9, 10**6])
            matrix = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
            if n > 1 and trial % 4 == 0:
                # force a dependent row so singular inputs are well represented
                a, b = rng.sample(range(n), 2)
                c = rng.randint(-3, 3)
                matrix[a] = [c * x for x in matrix[b]]
            rhs = [rng.randint(-bound, bound) for _ in range(n)]
            try:
                expected = solve_fraction(matrix, rhs)
            except SingularMatrix:
                singular += 1
                with pytest.raises(SingularMatrix):
                    solve_rational(matrix, rhs)
                continue
            assert solve_rational(matrix, rhs) == expected
        assert 500 < singular < 2500

    def test_solve_empty_and_non_square(self):
        assert solve_rational([], []) == solve_fraction([], []) == ()
        with pytest.raises(DimensionMismatch):
            solve_rational([(1, 2, 3), (4, 5, 6)], (1, 1))

    def test_integral_fractions_and_floats_accepted(self):
        assert solve_rational([(Fraction(3), 0), (1, 4.0)], (Fraction(2, 2), 1)) == (
            Fraction(1, 3),
            Fraction(1, 6),
        )

    @pytest.mark.parametrize("bad", [Fraction(1, 2), 2.5, float("nan"), "3"])
    def test_non_integral_entries_rejected(self, bad):
        with pytest.raises(ValueError):
            solve_rational([(bad, 0), (0, 1)], (1, 1))
        with pytest.raises(ValueError):
            solve_rational([(1, 0), (0, 1)], (bad, 1))
        with pytest.raises(ValueError):
            rank_rational([(1, bad), (0, 1)])
        with pytest.raises(ValueError):
            IntMatrix.from_rows([(bad,)])
        with pytest.raises(ValueError):
            in_row_space((bad, 0), [(1, 0)])
        with pytest.raises(ValueError):
            in_row_space((1, 0), [(bad, 0)])

    def test_kernel_annihilates(self):
        rows = [(1, 2, 3, 4), (0, 1, 1, 0)]
        basis = _kernel(rows)
        assert len(basis) == 2
        for v in basis:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0

    def test_kernel_of_empty_matrix_is_everything(self):
        assert _kernel([], width=3) == [
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
        ]


class TestEchelon:
    def test_add_reports_rank_growth(self):
        e = Echelon(3)
        assert e.add((0, 2, 4))
        assert not e.add((0, 1, 2))
        assert e.add((1, 1, 1))
        assert not e.add((0, 0, 0))
        assert (e.rank, e.pivots) == (2, [1, 0])
        assert e.kernel() == [(1, -2, 1)]

    def test_full_rank_has_empty_kernel(self):
        e = Echelon(2)
        assert e.add((3, 1)) and e.add((1, 3))
        assert not e.add((7, -5))
        assert e.kernel() == []

    def test_row_length_checked(self):
        with pytest.raises(DimensionMismatch):
            Echelon(2).add((1, 2, 3))


def _random_matrix(rng, shape):
    """A seeded integer matrix of the named shape, as a list of tuples."""
    m, n = {
        "wide": (rng.randint(1, 4), rng.randint(5, 9)),
        "tall": (rng.randint(5, 9), rng.randint(1, 4)),
        "square": (rng.randint(1, 6),) * 2,
        "zero": (rng.randint(1, 5), rng.randint(1, 5)),
    }[shape]
    bound = rng.choice([1, 3, 10, 10**6])
    if shape == "zero":
        return [(0,) * n for _ in range(m)]
    rows = [tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(m)]
    if m > 1 and rng.random() < 0.5:
        # rank-deficient: replace a row by a combination of two others
        a, b, c = (rng.randrange(m) for _ in range(3))
        x, y = rng.randint(-3, 3), rng.randint(-3, 3)
        rows[a] = tuple(x * p + y * q for p, q in zip(rows[b], rows[c]))
    return rows


class TestEchelonDifferential:
    """The Echelon-backed routines against the package's former ones in ``oracle``."""

    SHAPES = ("wide", "tall", "square", "zero")

    def test_rank_kernel_span_and_row_space(self):
        rng = random.Random(6_006)
        deficient = 0
        for trial in range(2000):
            rows = _random_matrix(rng, self.SHAPES[trial % 4])
            rank = rank_rational(rows)
            assert rank == rank_bareiss(rows)
            deficient += rank < min(len(rows), len(rows[0]))
            assert _kernel(rows) == kernel_gauss_jordan(rows)
            assert affine_span_dim(rows) == affine_span_dim_bareiss(rows)
            v = tuple(rng.randint(-2, 2) for _ in rows[0])
            if trial % 2:
                v = tuple(sum(rng.randint(-2, 2) * r[j] for r in rows) for j in range(len(v)))
            assert in_row_space(v, rows) == (rank_bareiss(rows + [v]) == rank)
        assert 600 < deficient < 1800

    def test_empty_inputs(self):
        assert rank_rational([]) == rank_bareiss([]) == 0
        assert rank_rational([()]) == rank_bareiss([()]) == 0
        for width in range(4):
            assert _kernel([], width=width) == kernel_gauss_jordan([], width=width)
        assert affine_span_dim([(1, 2)]) == affine_span_dim_bareiss([(1, 2)]) == 0

    def test_solve(self):
        rng = random.Random(6_007)
        singular = 0
        for _ in range(1500):
            matrix = _random_matrix(rng, "square")
            rhs = [rng.randint(-9, 9) for _ in matrix]
            try:
                expected = solve_gauss_jordan(matrix, rhs)
            except SingularMatrix:
                singular += 1
                with pytest.raises(SingularMatrix):
                    solve_rational(matrix, rhs)
                continue
            assert solve_rational(matrix, rhs) == expected == solve_fraction(matrix, rhs)
        assert 200 < singular < 1200
        zero = [(0, 0), (0, 0)]
        with pytest.raises(SingularMatrix):
            solve_rational(zero, (1, 1))
