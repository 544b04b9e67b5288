import random
from fractions import Fraction

import pytest

from generators import (
    enumerate_atomic_sums,
    random_atomic_sum,
    random_wps_system,
    wps_weights_for,
)
from oracle import classify_atomic_four_pass, transpose_dual_gcd, wps_check_subsets
from qsmooth.delsarte import (
    AtomicType,
    AtomKind,
    DelsarteDecomposition,
    classify_atomic,
    format_decomposition,
    quasismooth_transpose_invariance,
    transpose_dual,
    wps_check,
)
from qsmooth.errors import (
    DegreeTooSmall,
    EmptyInput,
    GeneratorInBasis,
    InvariantViolation,
    NoPositiveSolution,
    NotFakeWPS,
    NotSquare,
    SingularMatrix,
)
from qsmooth.linsys import monomial_system
from qsmooth.qscheck import FailureReason, is_quasismooth
from qsmooth.toric import Fan, ToricAmbient, make_wps


def wps_system(rows, weights):
    return monomial_system(make_wps(weights), rows)


class TestWpsCheck:
    def test_fermat_quintic(self):
        rows = [tuple(5 if i == j else 0 for j in range(5)) for i in range(5)]
        assert wps_check(wps_system(rows, [1] * 5)).quasismooth

    def test_loop_cubic_on_the_plane(self):
        sys_ = wps_system([(2, 1, 0), (0, 2, 1), (1, 0, 2)], [1, 1, 1])
        assert wps_check(sys_).quasismooth

    def test_requires_wps_ambient(self, product_system):
        with pytest.raises(NotFakeWPS):
            wps_check(product_system)

    def test_rejects_generator_rows(self):
        sys_ = wps_system([(1, 0), (0, 1)], [1, 1])
        with pytest.raises(GeneratorInBasis):
            wps_check(sys_)

    def test_torsion_in_the_quotient_changes_nothing(self):
        rows = [(2, 1, 0), (0, 2, 1), (1, 0, 2)]
        plain = wps_system(rows, [1, 1, 1])
        twisted = monomial_system(
            make_wps([1, 1, 1], torsion=((2, (1, 1, 1)),)), rows
        )
        assert twisted.ambient.is_fake_wps()
        assert wps_check(twisted).quasismooth == wps_check(plain).quasismooth

    def test_fan_presented_fake_wps_with_torsion(self):
        fan = Fan(
            lattice_rank=2,
            rays=((1, 0), (-1, 2), (-1, -2)),
            max_cones=((0, 1), (1, 2), (0, 2)),
        )
        ambient = ToricAmbient.from_fan(fan)
        assert ambient.grading.torsion
        sys_ = monomial_system(ambient, [(2, 1, 1), (3, 0, 0)])
        assert wps_check(sys_).quasismooth == is_quasismooth(sys_).quasismooth

    def test_fan_presented_wps_accepted(self):
        fan = Fan(
            lattice_rank=2,
            rays=((1, 0), (0, 1), (-1, -1)),
            max_cones=((0, 1), (0, 2), (1, 2)),
        )
        sys_ = monomial_system(
            ToricAmbient.from_fan(fan), [(2, 1, 0), (0, 2, 1), (1, 0, 2)]
        )
        assert wps_check(sys_).quasismooth

    def test_matches_generic_checker_on_random_wps_systems(self):
        rng = random.Random(42)
        checked = 0
        while checked < 80:
            n = rng.randint(3, 5)
            rows = sorted(
                {
                    tuple(rng.randint(0, 4) for _ in range(n))
                    for _ in range(rng.randint(2, 6))
                }
            )
            pairs = wps_weights_for(rows) if len(rows) == n else None
            if len(rows) != n:
                # pad with a power monomial to keep the matrix square
                continue
            if pairs is None:
                continue
            weights, degree = pairs
            if any(degree <= w for w in weights):
                continue
            if any(sum(r) == 1 for r in rows):
                continue
            sys_ = wps_system(rows, weights)
            assert wps_check(sys_).quasismooth == is_quasismooth(sys_).quasismooth
            checked += 1


class TestWpsCheckDifferential:
    """``wps_check`` over base strata equals the scan of every subset:
    same verdict, same failing stratum, same reason."""

    def _same(self, sys_):
        verdict = wps_check(sys_)
        assert verdict == wps_check_subsets(sys_)
        return verdict.failure.reason if verdict.failure else None

    def test_enumerated_atomic_sums(self):
        sums = list(enumerate_atomic_sums(4, 4))
        for n, atoms in sums:
            rows = [r for a in atoms for r in a.rows(n)]
            assert self._same(wps_system(rows, wps_weights_for(rows)[0])) is None
        assert len(sums) > 1000

    def test_random_square_systems(self):
        rng = random.Random(70_708)
        outcomes = []
        while len(outcomes) < 300:
            n = rng.randint(3, 5)
            rows = sorted({tuple(rng.randint(0, 5) for _ in range(n)) for _ in range(n)})
            pair = wps_weights_for(rows) if len(rows) == n else None
            if pair is None or any(sum(r) == 1 for r in rows):
                continue
            outcomes.append(self._same(wps_system(rows, pair[0])))
        assert set(outcomes) == {None, *FailureReason}

    def test_random_non_square_systems(self):
        rng = random.Random(70_709)
        outcomes = []
        while len(outcomes) < 1500:
            sys_ = random_wps_system(rng)
            if sys_ is not None:
                outcomes.append(self._same(sys_))
        assert 100 < outcomes.count(None) < 1400
        assert set(outcomes) == {None, *FailureReason}

    def test_wide_sums_some_failing(self):
        rng = random.Random(70_710)
        outcomes = []
        for n in (12, 13, 14, 15, 16) * 2:
            _, rows = random_atomic_sum(rng, n, max_exp=3)
            weights, _ = wps_weights_for(rows)
            if len(outcomes) % 2:
                rows = rows[:-1]
            outcomes.append(self._same(wps_system(rows, weights)))
        assert outcomes[::2] == [None] * 5
        assert None not in outcomes[1::2]


class TestClassifyAtomic:
    def test_diagonal_gives_fermat_atoms(self):
        rows = [(3, 0, 0), (0, 4, 0), (0, 0, 5)]
        dec = classify_atomic(rows, wps_weights_for(rows)[0])
        assert [a.kind for a in dec.atoms] == [AtomKind.FERMAT] * 3
        assert format_decomposition(dec) == "fermat(x1^3) + fermat(x2^4) + fermat(x3^5)"

    def test_two_variable_chain(self):
        dec = classify_atomic([(3, 1), (0, 4)], (1, 1))
        assert len(dec.atoms) == 1
        atom = dec.atoms[0]
        assert atom.kind == AtomKind.CHAIN
        assert atom.variables == (0, 1)
        assert atom.exponents == (3, 4)
        assert format_decomposition(dec) == "chain(x1^3->x2^4)"

    def test_three_variable_loop(self):
        dec = classify_atomic([(2, 1, 0), (0, 2, 1), (1, 0, 2)], (1, 1, 1))
        assert len(dec.atoms) == 1
        assert dec.atoms[0].kind == AtomKind.LOOP
        assert format_decomposition(dec) == "loop(x1^2->x2^2->x3^2->x1)"

    def test_row_order_does_not_matter(self):
        rows = [(0, 4), (3, 1)]
        dec = classify_atomic(rows, (1, 1))
        assert dec.atoms[0].kind == AtomKind.CHAIN
        assert dec.row_permutation == (1, 0)

    def test_not_decomposable(self):
        # two entries above one in a single row
        rows = [(2, 2, 0), (0, 2, 1), (1, 0, 2)]
        weights = wps_weights_for(rows)
        if weights is not None:
            w, d = weights
            if all(d > x for x in w):
                assert classify_atomic(rows, w) is None

    def test_cross_term_can_be_quasismooth_without_decomposition(self):
        # degree 13 equals the sum of the last two weights, so the cross
        # monomial x2*x3 enters a quasismooth basis that no sum of
        # Fermat/chain/loop summands can produce
        rows = [(0, 1, 1), (4, 0, 1), (5, 2, 0)]
        weights, degree = wps_weights_for(rows)
        assert (weights, degree) == ((1, 4, 9), 13)
        assert classify_atomic(rows, weights) is None
        sys_ = wps_system(rows, weights)
        assert wps_check(sys_).quasismooth
        assert is_quasismooth(sys_).quasismooth

    def test_shape_errors(self):
        with pytest.raises(NotSquare):
            classify_atomic([(3, 1)], (1, 1))
        # degree 3 equals the first variable's weight
        with pytest.raises(DegreeTooSmall):
            classify_atomic([(1, 0), (0, 3)], (3, 1))

    @pytest.mark.parametrize("bad", [2.5, Fraction(5, 2), "2"])
    def test_non_integral_exponent_rejected(self, bad):
        # int() used to truncate 2.5 to 2, giving two Fermat atoms
        with pytest.raises(ValueError):
            classify_atomic([(bad, 0), (0, 2)], (1, 1))

    def test_empty_matrix_rejected(self):
        with pytest.raises(EmptyInput):
            classify_atomic([], ())

    def test_negative_exponent_rejected(self):
        # used to fail the atom replay with InvariantViolation, which
        # signals a bug rather than bad input
        with pytest.raises(ValueError, match=r"negative exponent in \(4, -1\)"):
            classify_atomic([(4, -1), (0, 3)], (1, 1))

    def test_failed_atom_replay_raises(self, monkeypatch):
        monkeypatch.setattr(AtomicType, "rows", lambda self, num_vars: [(0,) * num_vars])
        with pytest.raises(InvariantViolation):
            classify_atomic([(3, 1), (0, 4)], (1, 1))

    def test_enumerated_atomic_sums_decompose(self):
        rng = random.Random(9)
        for _ in range(60):
            n = rng.randint(1, 5)
            atoms, rows = random_atomic_sum(rng, n, max_exp=5)
            weights, degree = wps_weights_for(rows)
            dec = classify_atomic(rows, weights)
            assert dec is not None
            rebuilt = sorted(r for a in dec.atoms for r in a.rows(n))
            assert rebuilt == sorted(rows)


class TestTransposeDual:
    def test_symmetric_matrix_is_fixed(self):
        rows = [(4, 0), (0, 4)]
        dual = transpose_dual(rows, (1, 1), 4)
        assert dual.weights == (1, 1)
        assert dual.degree == 4
        assert dual.rows == ((4, 0), (0, 4))

    def test_chain_example_exact_solve(self):
        dual = transpose_dual([(3, 1), (0, 4)], (1, 1), 4)
        assert dual.rows == ((3, 0), (1, 4))
        assert dual.weights == (2, 1)
        assert dual.degree == 6
        for row in dual.rows:
            assert sum(a * w for a, w in zip(row, dual.weights)) == dual.degree

    def test_double_transpose_identity(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(1, 5)
            _, rows = random_atomic_sum(rng, n)
            weights, degree = wps_weights_for(rows)
            dual = transpose_dual(rows, weights, degree)
            back = transpose_dual(dual.rows, dual.weights, dual.degree)
            assert back.rows == tuple(tuple(r) for r in rows)
            assert back.weights == weights
            assert back.degree == degree

    def test_singular_matrix_rejected(self):
        with pytest.raises(SingularMatrix):
            transpose_dual([(2, 1), (2, 1)], (1, 2), 4)

    def test_non_integral_exponent_rejected(self):
        # int() used to truncate 2.5 to 2 and return weights (1, 1)
        with pytest.raises(ValueError):
            transpose_dual([(2.5, 0), (0, 2)], (1, 1), 2)

    def test_empty_matrix_rejected(self):
        with pytest.raises(EmptyInput):
            transpose_dual([], (), 0)

    def test_negative_exponent_rejected(self):
        # used to return the "dual" row (-1, 3)
        with pytest.raises(ValueError, match=r"negative exponent in \(4, -1\)"):
            transpose_dual([(4, -1), (0, 3)], (1, 1), 3)

    def test_no_positive_solution(self):
        # valid weights on one side, sign change after transposition
        with pytest.raises(NoPositiveSolution):
            transpose_dual([(2, 3), (0, 4)], (1, 2), 8)


def _outcome(func, *args):
    """The result of a call, or the type and message of the error it raised."""
    try:
        return func(*args)
    except Exception as exc:
        return type(exc), str(exc)


class TestDelsarteDifferential:
    """``classify_atomic`` and ``transpose_dual`` equal the former four-pass
    classification and gcd-normalised transpose, errors included."""

    def _same(self, rows, weights):
        degree = sum(a * w for a, w in zip(rows[0], weights))
        dec = _outcome(classify_atomic, rows, weights)
        assert dec == _outcome(classify_atomic_four_pass, rows, weights)
        dual = _outcome(transpose_dual, rows, weights, degree)
        assert dual == _outcome(transpose_dual_gcd, rows, weights, degree)
        return dec

    def test_enumerated_atomic_sums(self):
        rng = random.Random(71_401)
        sums = list(enumerate_atomic_sums(4, 4))
        for n, atoms in sums:
            rows = [r for a in atoms for r in a.rows(n)]
            rng.shuffle(rows)
            dec = self._same(rows, wps_weights_for(rows)[0])
            assert sorted(dec.atoms, key=lambda a: a.variables) == sorted(
                atoms, key=lambda a: a.variables
            )
        assert len(sums) == 1596

    def test_perturbed_sums_and_random_squares(self):
        rng = random.Random(71_402)
        outcomes = []
        while len(outcomes) < 5000:
            n = rng.randint(1, 6)
            if len(outcomes) % 2:
                rows = [[rng.randint(0, 4) for _ in range(n)] for _ in range(n)]
            else:
                _, rows = random_atomic_sum(rng, n, max_exp=4)
                rows = [list(r) for r in rows]
                for _ in range(rng.randint(1, 2)):
                    rows[rng.randrange(n)][rng.randrange(n)] = rng.randint(0, 4)
            pair = wps_weights_for(rows)
            if pair is None:
                continue
            dec = self._same(rows, pair[0])
            outcomes.append(dec[0] if isinstance(dec, tuple) else type(dec))
        assert outcomes.count(DelsarteDecomposition) > 1000
        assert outcomes.count(type(None)) > 1000
        assert outcomes.count(DegreeTooSmall) > 100


class TestTransposeInvariance:
    def test_fermat(self):
        rows = [(3, 0), (0, 3)]
        assert quasismooth_transpose_invariance(rows, (1, 1), 3)

    def test_random_atomic_sums(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(1, 5)
            _, rows = random_atomic_sum(rng, n)
            weights, degree = wps_weights_for(rows)
            assert quasismooth_transpose_invariance(rows, weights, degree)

    def test_non_decomposable_square_system(self):
        rng = random.Random(19)
        found = 0
        while found < 10:
            n = rng.randint(3, 5)
            rows = sorted(
                {tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(n)}
            )
            if len(rows) != n:
                continue
            pair = wps_weights_for(rows)
            if pair is None:
                continue
            weights, degree = pair
            if any(degree <= w for w in weights) or any(sum(r) == 1 for r in rows):
                continue
            if classify_atomic(rows, weights) is not None:
                continue
            assert not wps_check(wps_system(rows, weights)).quasismooth
            try:
                assert quasismooth_transpose_invariance(rows, weights, degree)
            except (NoPositiveSolution, SingularMatrix):
                # non-decomposable transposes need not carry positive weights
                continue
            found += 1
