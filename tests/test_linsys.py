import itertools
import random
import time

import pytest

import qsmooth.linsys
import qsmooth.polytope
from generators import (
    enumerate_atomic_sums,
    fixture_systems,
    loop_system,
    random_atomic_sum,
    random_fan_system,
    random_product_system,
    wps_weights_for,
)
from oracle import EmptyGamma, base_locus_strata_scan, in_convex_hull, m_gamma, m_gamma_unrestricted
from qsmooth.errors import (
    DuplicateMonomial,
    NotBaseStratum,
    NotHomogeneous,
    ParseError,
)
from qsmooth.linsys import (
    BaseStratum,
    base_locus_strata,
    base_stratum,
    format_monomials,
    monomial_system,
    parse_monomials_text,
)
from qsmooth.linalg import affine_span_dim
from qsmooth.polytope import hull
from qsmooth.qscheck import (
    Method,
    QSVerdict,
    StratumFailure,
    certificate_lines,
    check_stratum_polytope,
    check_stratum_rank,
    is_quasismooth,
)
from qsmooth.toric import Fan, ToricAmbient, make_wps

P1_FAN = Fan(lattice_rank=1, rays=((1,), (-1,)), max_cones=((0,), (1,)))


class TestNewtonVertices:
    def test_single_monomial(self):
        amb = ToricAmbient.from_fan(P1_FAN)
        sys_ = monomial_system(amb, [(2, 0)])
        assert sys_.vertex_rows == (0,)

    def test_all_eight_rows_are_vertices(self, product_system):
        assert product_system.vertex_rows == tuple(range(8))

    def test_midpoint_row_is_not_a_vertex(self):
        amb = ToricAmbient.from_fan(P1_FAN)
        sys_ = monomial_system(amb, [(2, 0), (0, 2), (1, 1)])
        assert sys_.vertex_rows == (0, 1)


def _hull_vertex_rows(exps):
    vertex_set = set(hull(exps).vertices)
    return tuple(i for i, r in enumerate(exps) if r in vertex_set)


def _oracle_vertex_rows(exps):
    """Rows outside the hull of the other rows, by the LP oracle."""
    if len(exps) == 1:
        return (0,)
    return tuple(
        i for i, r in enumerate(exps) if not in_convex_hull(exps[:i] + exps[i + 1 :], r)
    )


class TestVertexRowsDifferential:
    """The affine-independence shortcut agrees with the hull it bypasses."""

    def _square_system(self, rows):
        weights, _ = wps_weights_for(rows)
        return monomial_system(make_wps(weights), rows)

    def test_enumerated_atomic_sums(self):
        for n, atoms in itertools.islice(enumerate_atomic_sums(4, 3), 0, None, 7):
            sys_ = self._square_system([r for a in atoms for r in a.rows(n)])
            assert sys_.vertex_rows == tuple(range(n))
            assert sys_.vertex_rows == _hull_vertex_rows(sys_.exponents)

    def test_random_atomic_sums(self):
        rng = random.Random(91_919)
        for _ in range(60):
            _, rows = random_atomic_sum(rng, rng.randint(1, 5))
            sys_ = self._square_system(rows)
            assert sys_.vertex_rows == _hull_vertex_rows(sys_.exponents)
            assert sys_.vertex_rows == _oracle_vertex_rows(sys_.exponents)

    def test_random_fan_systems_with_dependent_rows(self):
        rng = random.Random(92_929)
        dependent = independent = 0
        while dependent < 40 or independent < 20:
            out = random_fan_system(rng)
            if out is None:
                continue
            exps = out[2].exponents
            if affine_span_dim(exps) == len(exps) - 1:
                independent += 1
            else:
                dependent += 1
            assert out[2].vertex_rows == _hull_vertex_rows(exps)
            assert out[2].vertex_rows == _oracle_vertex_rows(exps)


class TestVertexRowsWithoutFacets:
    """``monomial_system`` reads only the hull's vertices, never its facets."""

    @staticmethod
    def _refuse_facet_listing(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("facets were listed")

        monkeypatch.setattr(qsmooth.polytope, "_list_facets", refuse)

    def test_random_fan_systems(self, monkeypatch):
        rng = random.Random(93_939)
        draws = []
        while len(draws) < 40:
            out = random_fan_system(rng)
            if out is not None and affine_span_dim(out[2].exponents) < len(out[2].exponents) - 1:
                draws.append(out)
        # the draws build their fans with facets; the rebuilt systems may not
        self._refuse_facet_listing(monkeypatch)
        for ambient, _, sys_ in draws:
            rebuilt = monomial_system(ambient, sys_.exponents)
            assert rebuilt.vertex_rows == _oracle_vertex_rows(sys_.exponents)

    def test_cubic_monomial_subsets(self, monkeypatch):
        rng = random.Random(94_949)
        self._refuse_facet_listing(monkeypatch)
        for num_vars in range(3, 7):
            pool = [m for m in itertools.product(range(4), repeat=num_vars) if sum(m) == 3]
            for _ in range(6):
                rows = rng.sample(pool, rng.randint(num_vars + 1, min(len(pool), num_vars + 6)))
                sys_ = monomial_system(make_wps([1] * num_vars), rows)
                assert sys_.vertex_rows == _oracle_vertex_rows(sys_.exponents)


class TestAffineTestSkipped:
    """More than r + 1 points in Q^r are never affinely independent, so
    ``monomial_system`` goes straight to the hull for them."""

    @staticmethod
    def _refuse_affine_test(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("affine_span_dim was called")

        monkeypatch.setattr(qsmooth.linsys, "affine_span_dim", refuse)

    def test_cubic_monomial_subsets(self, monkeypatch):
        rng = random.Random(95_959)
        self._refuse_affine_test(monkeypatch)
        for num_vars in range(2, 7):
            pool = [m for m in itertools.product(range(4), repeat=num_vars) if sum(m) == 3]
            for _ in range(6):
                rows = rng.sample(pool, rng.randint(num_vars + 2, min(len(pool), num_vars + 8)))
                sys_ = monomial_system(make_wps([1] * num_vars), rows)
                assert sys_.vertex_rows == _oracle_vertex_rows(sys_.exponents)

    def test_random_fan_and_product_systems(self, monkeypatch):
        rng = random.Random(96_969)
        draws = [random_product_system(rng, [2, 2], max_monomials=12) for _ in range(40)]
        while len(draws) < 100:
            out = random_fan_system(rng)
            if out is not None:
                draws.append(out[2])
        wide = [s for s in draws if s.num_monomials > s.num_vars + 1]
        assert len(wide) >= 20
        self._refuse_affine_test(monkeypatch)
        for sys_ in wide:
            rebuilt = monomial_system(sys_.ambient, sys_.exponents)
            assert rebuilt.vertex_rows == _oracle_vertex_rows(sys_.exponents)

    def test_square_systems_still_take_the_shortcut(self, monkeypatch):
        calls, real = [], qsmooth.linsys.affine_span_dim
        monkeypatch.setattr(
            qsmooth.linsys, "affine_span_dim", lambda pts: calls.append(pts) or real(pts)
        )
        sys_ = loop_system(5)
        assert len(calls) == 1 and sys_.vertex_rows == tuple(range(5))


class TestBaseLocusStrata:
    def test_product_fixture(self, product_system):
        strata = [st.variables for st in base_locus_strata(product_system)]
        assert strata == [(1, 2), (1, 2, 3), (1, 2, 4)]

    def test_triple_line_fixture(self, triple_line_system):
        strata = [st.variables for st in base_locus_strata(triple_line_system)]
        assert strata == [(1, 3), (1, 3, 4), (1, 3, 5)]

    def test_base_point_free_system_has_no_strata(self):
        fan = Fan(
            lattice_rank=2,
            rays=((1, 0), (0, 1), (-1, -1)),
            max_cones=((0, 1), (0, 2), (1, 2)),
        )
        amb = ToricAmbient.from_fan(fan)
        rows = [(a, b, 2 - a - b) for a in range(3) for b in range(3 - a)]
        sys_ = monomial_system(amb, rows)
        assert base_locus_strata(sys_) == []

    def test_every_row_hits_every_stratum(self, p4_system):
        for st in base_locus_strata(p4_system):
            for row in p4_system.exponents:
                assert sum(row[j] for j in st.variables) >= 1


def _verdict_on_plain_tuples(sys_, method):
    """``is_quasismooth`` rebuilt from the oracle strata and validated checks."""
    strata = base_locus_strata_scan(sys_)
    if any(sum(row) == 1 for row in sys_.exponents) or not strata:
        return None
    results = []
    for st in strata:
        c = tuple(st.variables)
        if method == Method.POLYTOPE:
            results.append(check_stratum_polytope(sys_, c))
        else:
            results.append(check_stratum_rank(sys_, c))
            if method == Method.BOTH:
                assert check_stratum_polytope(sys_, c) == results[-1]
    for res in results:
        if isinstance(res, StratumFailure):
            return QSVerdict(False, method, failure=res)
    return QSVerdict(True, method, witnesses=tuple(results))


class TestBaseStrataDifferential:
    """The bitmask search lists exactly the strata of the subset scan."""

    def _same(self, sys_):
        strata = base_locus_strata(sys_)
        assert strata == base_locus_strata_scan(sys_)
        assert all(isinstance(st, BaseStratum) for st in strata)
        return strata

    def test_fixtures(self):
        systems = fixture_systems()
        assert len(systems) >= 7
        assert sum(len(self._same(sys_)) for sys_ in systems) > 0

    def test_random_fan_systems(self):
        rng = random.Random(41_414)
        drawn = strata = 0
        while drawn < 200:
            out = random_fan_system(rng)
            if out is None:
                continue
            drawn += 1
            strata += len(self._same(out[2]))
        assert strata > 100

    def test_random_atomic_sums_up_to_twelve_variables(self):
        rng = random.Random(42_424)
        for n in range(1, 13):
            for _ in range(3):
                _, rows = random_atomic_sum(rng, n, max_exp=4)
                weights, _ = wps_weights_for(rows)
                self._same(monomial_system(make_wps(weights), rows))

    def test_products_of_projective_spaces(self):
        rng = random.Random(43_434)
        nonempty = 0
        for _ in range(120):
            blocks = [rng.randint(1, 4) for _ in range(rng.randint(2, 3))]
            nonempty += bool(self._same(random_product_system(rng, blocks)))
        assert nonempty > 30

    def test_empty_base_locus(self):
        sys_ = monomial_system(make_wps([1] * 5), [tuple(3 * (j == i) for j in range(5)) for i in range(5)])
        assert self._same(sys_) == []

    def test_certificates_match_checks_on_plain_tuples(self):
        rng = random.Random(44_444)
        systems = fixture_systems()
        systems += [random_product_system(rng, [2, 3]) for _ in range(20)]
        while len(systems) < 120:
            out = random_fan_system(rng)
            if out is not None:
                systems.append(out[2])
        compared = 0
        for sys_ in systems:
            for method in (Method.RANK, Method.POLYTOPE, Method.BOTH):
                expected = _verdict_on_plain_tuples(sys_, method)
                if expected is None:
                    continue
                compared += 1
                got = is_quasismooth(sys_, method)
                assert certificate_lines(got) == certificate_lines(expected)
        assert compared > 150

    def test_plain_tuple_off_the_base_locus_rejected(self, product_system):
        assert (0,) not in [st.variables for st in base_locus_strata(product_system)]
        for check in (check_stratum_rank, check_stratum_polytope):
            with pytest.raises(NotBaseStratum):
                check(product_system, (0,))
            with pytest.raises(NotBaseStratum):
                check(product_system, [2, 1, 0, 3, 4])

    def test_base_stratum_iterates_over_its_variables(self, product_system):
        for st in base_locus_strata(product_system):
            assert tuple(st) == st.variables
            assert check_stratum_rank(product_system, st) == check_stratum_rank(
                product_system, list(st)
            )


class TestBaseStratumFromTuple:
    """``base_stratum`` on a plain tuple builds the listed ``BaseStratum``."""

    def _same(self, sys_):
        strata = base_locus_strata(sys_)
        for st in strata:
            assert base_stratum(sys_, st) is st
            assert base_stratum(sys_, st.variables) == st
            assert base_stratum(sys_, reversed(st.variables)) == st
        return len(strata)

    def test_fixtures(self):
        assert sum(self._same(sys_) for sys_ in fixture_systems()) > 0

    def test_random_fan_systems(self):
        rng = random.Random(45_454)
        drawn = strata = 0
        while drawn < 100:
            out = random_fan_system(rng)
            if out is None:
                continue
            drawn += 1
            strata += self._same(out[2])
        assert strata > 50


class TestLoopSystemScaling:
    """Base strata of the cycle x_i^3 x_(i+1): the proper vertex covers of
    the r-cycle, L_r - 1 of them (L_r the r-th Lucas number)."""

    def test_counts_are_lucas_numbers_minus_one(self):
        lucas = [2, 1]
        while len(lucas) <= 18:
            lucas.append(lucas[-1] + lucas[-2])
        for r in range(3, 19):
            assert len(base_locus_strata(loop_system(r))) == lucas[r] - 1
        assert lucas[18] - 1 == 5777

    def test_small_cycles_match_the_scan(self):
        for r in range(3, 10):
            sys_ = loop_system(r)
            assert base_locus_strata(sys_) == base_locus_strata_scan(sys_)

    def test_eighteen_variables_within_budget(self):
        # On a 2-core x86-64 host with Python 3.11 the subset scan this
        # replaced took 1.8-2.6 s for the strata and 3.1-4.9 s for the
        # check; the bitmask search takes about 0.1 s and 0.35 s there.
        sys_ = loop_system(18)
        start = time.perf_counter()
        strata = base_locus_strata(sys_)
        strata_s = time.perf_counter() - start
        start = time.perf_counter()
        verdict = is_quasismooth(sys_)
        check_s = time.perf_counter() - start
        assert len(strata) == len(verdict.witnesses) == 5777
        assert strata_s < 0.6, f"strata took {strata_s:.2f} s"
        assert check_s < 1.5, f"check took {check_s:.2f} s"


class TestFaceSupports:
    def test_product_pair_stratum(self, product_system):
        supports = dict(base_stratum(product_system, (1, 2)).face_supports)
        assert supports[1] == (0, 1)
        assert supports[2] == (2, 3)
        seg = [
            tuple(a - b for a, b in zip(product_system.exponents[i], (0, 1, 0, 0, 0)))
            for i in supports[1]
        ]
        assert seg == [(2, 0, 0, 2, 0), (2, 0, 0, 0, 2)]

    def test_triple_point_stratum_all_empty(self, p4_system):
        supports = dict(base_stratum(p4_system, (0, 1, 2)).face_supports)
        assert all(rows == () for rows in supports.values())

    def test_blowup_supports_are_single_points(self, blowup_system):
        for st in base_locus_strata(blowup_system):
            for _, rows in st.face_supports:
                assert len(rows) <= 1

    def test_supports_pairwise_disjoint(self, triple_line_system):
        for st in base_locus_strata(triple_line_system):
            seen = set()
            for _, rows in st.face_supports:
                assert not (seen & set(rows))
                seen.update(rows)

    def test_not_a_stratum(self, product_system):
        with pytest.raises(NotBaseStratum):
            base_stratum(product_system, (0,))


class TestMGamma:
    def test_full_coordinate_slice(self, product_system):
        rows = m_gamma(product_system, (1, 2), (1, 2))
        assert rows == (0, 1, 2, 3)

    def test_empty_support_gives_empty_slice(self, triple_line_system):
        assert m_gamma(triple_line_system, (1, 3), (3,)) == ()

    def test_equals_union_of_face_supports(self, product_system, blowup_system):
        import itertools

        for sys_ in (product_system, blowup_system):
            for st in base_locus_strata(sys_):
                supports = dict(st.face_supports)
                for size in range(1, len(st.variables) + 1):
                    for gamma in itertools.combinations(st.variables, size):
                        expected = sorted(
                            i for rho in gamma for i in supports[rho]
                        )
                        assert sorted(m_gamma(sys_, st.variables, gamma)) == expected

    def test_empty_gamma_rejected(self, product_system):
        with pytest.raises(EmptyGamma):
            m_gamma(product_system, (1, 2), ())

    def test_unrestricted_slice_contains_restricted_rows(self, product_system):
        pts = m_gamma_unrestricted(product_system, (1, 2))
        restricted = [
            product_system.exponents[i] for i in m_gamma(product_system, (1, 2), (1, 2))
        ]
        assert set(restricted) <= set(pts)


class TestVertexRowInvariance:
    def test_interior_row_changes_nothing(self, product_system):
        rows = list(product_system.exponents)
        midpoint = tuple(
            (a + b) // 2 for a, b in zip(rows[0], rows[1])
        )
        extended = monomial_system(product_system.ambient, rows + [midpoint])
        assert [st.variables for st in base_locus_strata(extended)] == [
            st.variables for st in base_locus_strata(product_system)
        ]
        for st_a, st_b in zip(
            base_locus_strata(extended), base_locus_strata(product_system)
        ):
            pts_a = {
                rho: tuple(extended.exponents[i] for i in rows_)
                for rho, rows_ in st_a.face_supports
            }
            pts_b = {
                rho: tuple(product_system.exponents[i] for i in rows_)
                for rho, rows_ in st_b.face_supports
            }
            assert pts_a == pts_b
        assert (
            is_quasismooth(extended).quasismooth
            == is_quasismooth(product_system).quasismooth
        )


class TestValidation:
    def test_duplicate_rows_rejected(self):
        amb = ToricAmbient.from_fan(P1_FAN)
        with pytest.raises(DuplicateMonomial):
            monomial_system(amb, [(1, 1), (1, 1)])

    def test_inhomogeneous_rejected(self):
        amb = ToricAmbient.from_fan(P1_FAN)
        with pytest.raises(NotHomogeneous) as err:
            monomial_system(amb, [(2, 0), (1, 0)])
        assert err.value.row_a == 0 and err.value.row_b == 1

    @pytest.mark.parametrize(
        "rows",
        [
            [(2.5, 0.5, 0), (0, 3, 0)],
            [(1.5, 1.5, 0), (0, 3, 0)],
            [("1", 2, 0), (0, 3, 0)],
        ],
    )
    def test_non_integral_exponents_rejected(self, rows):
        # int() would truncate these to rows of different degree
        with pytest.raises(ValueError, match="exponents must be integers"):
            monomial_system(make_wps([1, 1, 1]), rows)

    def test_integral_float_exponents_accepted(self):
        sys_ = monomial_system(make_wps([1, 1, 1]), [(3.0, 0, 0), (0, 3, 0)])
        assert sys_.exponents == ((3, 0, 0), (0, 3, 0))


class TestMonomialFormat:
    def test_symbolic_and_numeric_agree(self):
        text = "x1^3\nx2^2*x1\nx3^2*x1\nx2*x3*x4\n"
        numeric = "3 0 0 0 0\n1 2 0 0 0\n1 0 2 0 0\n0 1 1 1 0\n"
        assert parse_monomials_text(text, 5) == parse_monomials_text(numeric, 5)

    def test_y_variables_alias_columns(self):
        assert parse_monomials_text("y1^3*y2\n", 3) == [(3, 1, 0)]

    def test_repeated_variable_accumulates(self):
        assert parse_monomials_text("x1*x1^2\n", 2) == [(3, 0)]

    def test_bad_index_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_monomials_text("# c\nx9\n", 3)
        assert ":2:" in str(err.value)

    def test_roundtrip(self, product_system):
        text = format_monomials(product_system.exponents)
        assert tuple(parse_monomials_text(text, 5)) == product_system.exponents
