import dataclasses
import itertools
import random

import pytest

import qsmooth.qscheck as qscheck
from generators import (
    random_complete_fan_2d,
    random_complete_fan_3d,
    random_fan_system,
    random_product_system,
    random_system,
)
from oracle import (
    check_curve_on_surface_scan,
    check_stratum_rank_unrestricted,
    check_surface_on_threefold_scan,
    m_gamma,
    necessary_screen,
)
from qsmooth.errors import (
    DimensionMismatch,
    GeneratorInBasis,
    MethodDisagreement,
    NotBaseStratum,
)
from qsmooth.linalg import affine_span_dim, rank_rational, vector_sub
from qsmooth.linsys import base_locus_strata, monomial_system
from qsmooth.qscheck import (
    has_generator_row,
    FailureReason,
    Method,
    StratumFailure,
    StratumWitness,
    check_curve_on_surface,
    check_stratum_polytope,
    check_stratum_rank,
    check_surface_on_threefold,
    is_quasismooth,
    sufficient_screen,
)
from qsmooth.toric import Fan, Grading, ToricAmbient, make_wps

P2_FAN = Fan(
    lattice_rank=2,
    rays=((1, 0), (0, 1), (-1, -1)),
    max_cones=((0, 1), (0, 2), (1, 2)),
)
P2 = ToricAmbient.from_fan(P2_FAN)

P3_FAN = Fan(
    lattice_rank=3,
    rays=((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)),
    max_cones=((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)),
)
P3 = ToricAmbient.from_fan(P3_FAN)

# projective three-space blown up at one torus-fixed point
BLOWN_P3_FAN = Fan(
    lattice_rank=3,
    rays=((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (0, 0, -1)),
    max_cones=((0, 1, 2), (0, 2, 3), (1, 2, 3), (0, 1, 4), (0, 3, 4), (1, 3, 4)),
)
BLOWN_P3 = ToricAmbient.from_fan(BLOWN_P3_FAN)


class TestStratumChecks:
    def test_product_pair_stratum_witness(self, product_system):
        res = check_stratum_rank(product_system, (1, 2))
        assert isinstance(res, StratumWitness)
        assert res.gamma == (1, 2)
        assert res.rank_small == 2
        assert res.rank_big == 3

    def test_polytope_check_agrees_on_product(self, product_system):
        rank_res = check_stratum_rank(product_system, (1, 2))
        poly_res = check_stratum_polytope(product_system, (1, 2))
        assert rank_res == poly_res

    def test_all_faces_empty(self, p4_system):
        res = check_stratum_rank(p4_system, (0, 1, 2))
        assert res == StratumFailure((0, 1, 2), FailureReason.ALL_FACES_EMPTY)
        assert check_stratum_polytope(p4_system, (0, 1, 2)) == res

    def test_segment_alone_is_independent(self, triple_line_system):
        res = check_stratum_rank(triple_line_system, (1, 3))
        assert res == StratumFailure(
            (1, 3), FailureReason.NO_DEGENERATE_SUBCOLLECTION
        )
        assert check_stratum_polytope(triple_line_system, (1, 3)) == res

    def test_single_point_support_is_degenerate(self):
        sys_ = monomial_system(P2, [(2, 1, 0), (0, 2, 1), (1, 0, 2)])
        res = check_stratum_rank(sys_, (0, 1))
        assert isinstance(res, StratumWitness)
        assert res.gamma == (0,)
        assert (res.rank_small, res.rank_big) == (1, 1)

    def test_unknown_stratum_rejected(self, product_system):
        with pytest.raises(NotBaseStratum):
            check_stratum_rank(product_system, (0,))

    def test_unrestricted_variant_agrees_where_faces_exist(
        self, product_system, triple_line_system, blowup_system
    ):
        for sys_ in (product_system, triple_line_system, blowup_system):
            for st in base_locus_strata(sys_):
                a = check_stratum_rank(sys_, st.variables)
                b = check_stratum_rank_unrestricted(sys_, st.variables)
                assert isinstance(a, StratumWitness) == isinstance(b, StratumWitness)

    def test_unrestricted_variant_overcertifies_empty_faces(self, p4_system):
        # the slice without vanishing conditions outside gamma "certifies"
        # a stratum whose face polytopes are all empty, where the general
        # member really is singular; the restricted slice is the faithful
        # reading and stays consistent with the polytope test
        restricted = check_stratum_rank(p4_system, (0, 1, 2))
        literal = check_stratum_rank_unrestricted(p4_system, (0, 1, 2))
        assert restricted == StratumFailure((0, 1, 2), FailureReason.ALL_FACES_EMPTY)
        assert isinstance(literal, StratumWitness)
        assert check_stratum_polytope(p4_system, (0, 1, 2)) == restricted


class TestVerdicts:
    def test_product_quasismooth(self, product_system):
        verdict = is_quasismooth(product_system)
        assert verdict.quasismooth
        assert verdict.witnesses[0].stratum == (1, 2)

    def test_triple_line_not_quasismooth(self, triple_line_system):
        verdict = is_quasismooth(triple_line_system)
        assert not verdict.quasismooth
        assert verdict.failure.stratum == (1, 3)
        assert verdict.failure.reason == FailureReason.NO_DEGENERATE_SUBCOLLECTION

    def test_p4_not_quasismooth_with_passing_pairs(self, p4_system):
        verdict = is_quasismooth(p4_system)
        assert not verdict.quasismooth
        assert verdict.failure.stratum == (0, 1, 2)
        assert verdict.failure.reason == FailureReason.ALL_FACES_EMPTY
        for pair in [(0, 1), (0, 2), (0, 3)]:
            assert isinstance(check_stratum_rank(p4_system, pair), StratumWitness)

    def test_blowup_quasismooth(self, blowup_system):
        assert is_quasismooth(blowup_system).quasismooth

    def test_fan_and_quotient_presentations_agree(self, blowup_system, blowup_fan_ambient):
        fan_sys = monomial_system(blowup_fan_ambient, blowup_system.exponents)
        assert is_quasismooth(fan_sys) == is_quasismooth(blowup_system)

    def test_dual8_not_quasismooth(self, dual8_system):
        verdict = is_quasismooth(dual8_system)
        assert not verdict.quasismooth
        assert verdict.failure.stratum == (4, 5, 6, 7)
        assert verdict.failure.reason == FailureReason.ALL_FACES_EMPTY

    def test_generator_shortcut(self):
        sys_ = monomial_system(P2, [(1, 0, 0), (0, 1, 0)])
        verdict = is_quasismooth(sys_)
        assert verdict.quasismooth
        assert verdict.shortcut == "generator_in_basis"

    def test_base_point_free_is_quasismooth(self):
        rows = [(a, b, 2 - a - b) for a in range(3) for b in range(3 - a)]
        assert is_quasismooth(monomial_system(P2, rows)).quasismooth

    def test_single_method_runs(self, product_system):
        for method in (Method.RANK, Method.POLYTOPE):
            verdict = is_quasismooth(product_system, method)
            assert verdict.quasismooth
            assert verdict.method == method


class TestScreens:
    def test_sufficient_screen_product(self, product_system):
        assert sufficient_screen(product_system, (1, 2))

    def test_sufficient_screen_blowup_counterexample(self, blowup_system):
        stratum = next(
            st for st in base_locus_strata(blowup_system) if st.variables == (1, 5)
        )
        assert stratum.k == 1
        assert not sufficient_screen(blowup_system, (1, 5))
        assert is_quasismooth(blowup_system).quasismooth

    def test_sufficient_screen_empty_faces(self, p4_system):
        assert not sufficient_screen(p4_system, (0, 1, 2))

    def test_necessary_screen_confirms_failure(self, p4_system):
        assert not necessary_screen(p4_system, (0, 1, 2))

    def test_necessary_screen_trivial_when_k_max(self, product_system):
        # stratum of size 2 with both faces nonempty: dim - k = 3 - 2 <= 2
        assert necessary_screen(product_system, (1, 2))

    def test_necessary_screen_wps_form(self):
        amb = make_wps([1, 1, 1, 1])
        rows = [(0, 1, 3, 0), (1, 3, 0, 0), (0, 3, 0, 1), (3, 1, 0, 0), (3, 0, 0, 1)]
        sys_ = monomial_system(amb, rows)
        for st in base_locus_strata(sys_):
            dim_drop = sys_.num_vars - len(st.variables) - st.k
            assert necessary_screen(sys_, st.variables) == (dim_drop <= 0)

    def test_necessary_screen_needs_no_generator(self):
        sys_ = monomial_system(P2, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        with pytest.raises(GeneratorInBasis):
            necessary_screen(sys_, (0,))


class TestScreenSoundness:
    def test_screens_bound_the_verdict_on_random_systems(self):
        rng = random.Random(404)
        checked = 0
        while checked < 60:
            out = random_fan_system(rng)
            if out is None:
                continue
            _, _, sys_ = out
            strata = base_locus_strata(sys_)
            if not strata or has_generator_row(sys_):
                continue
            verdict = is_quasismooth(sys_)
            if all(sufficient_screen(sys_, st.variables) for st in strata):
                assert verdict.quasismooth
            if any(not necessary_screen(sys_, st.variables) for st in strata):
                assert not verdict.quasismooth
            checked += 1

    def test_screens_agree_on_a_stratum_and_its_tuple(self):
        rng = random.Random(405)
        systems = [random_product_system(rng, [2, 3]) for _ in range(20)]
        while len(systems) < 100:
            out = random_fan_system(rng)
            if out is not None:
                systems.append(out[2])
        compared = 0
        for sys_ in systems:
            generator = has_generator_row(sys_)
            for st in base_locus_strata(sys_):
                plain = tuple(reversed(st.variables))
                assert sufficient_screen(sys_, st) == sufficient_screen(sys_, plain)
                if not generator:
                    assert necessary_screen(sys_, st) == necessary_screen(sys_, plain)
                compared += 1
        assert compared > 100

    def test_screens_reject_a_tuple_off_the_base_locus(self, product_system):
        with pytest.raises(NotBaseStratum):
            sufficient_screen(product_system, (0,))
        with pytest.raises(NotBaseStratum):
            necessary_screen(product_system, (0,))


class TestMethodAgreement:
    def test_fixtures_agree_per_stratum(
        self, product_system, triple_line_system, p4_system, blowup_system, dual8_system
    ):
        for sys_ in (
            product_system,
            triple_line_system,
            p4_system,
            blowup_system,
            dual8_system,
        ):
            for st in base_locus_strata(sys_):
                assert check_stratum_rank(sys_, st.variables) == check_stratum_polytope(
                    sys_, st.variables
                )

    def test_random_systems_agree(self):
        rng = random.Random(2024)
        produced = 0
        while produced < 120:
            out = random_fan_system(rng)
            if out is None:
                continue
            _, _, sys_ = out
            produced += 1
            is_quasismooth(sys_, Method.BOTH)  # raises on disagreement

    def test_whole_witnesses_are_compared(self, product_system, monkeypatch):
        # a polytope witness with the right gamma but a wrong rank must
        # still be reported as a disagreement
        polytope_check = qscheck.check_stratum_polytope

        def skewed(sys_, c):
            res = polytope_check(sys_, c)
            if isinstance(res, StratumWitness):
                return dataclasses.replace(res, rank_big=res.rank_big + 1)
            return res

        monkeypatch.setattr(qscheck, "check_stratum_polytope", skewed)
        with pytest.raises(MethodDisagreement):
            is_quasismooth(product_system, Method.BOTH)

    def test_methods_agree_on_non_simplicial_fans(self):
        # normal fans of random canonical polytopes often carry
        # non-simplicial cones; the zero-pattern strata still must let the
        # two procedures coincide
        from generators import random_canonical_polytope, random_system
        from qsmooth.polytope import normal_fan
        from qsmooth.toric import ToricAmbient, is_simplicial

        rng = random.Random(2025)
        produced = non_simplicial = 0
        while produced < 40:
            fan = normal_fan(random_canonical_polytope(rng, 3))
            ambient = ToricAmbient.from_fan(fan)
            sys_ = random_system(rng, ambient, fan, max_exp=4, max_monomials=8)
            if sys_ is None:
                continue
            produced += 1
            non_simplicial += not is_simplicial(fan)
            is_quasismooth(sys_, Method.BOTH)  # raises on disagreement
        assert non_simplicial > 0  # the sample included genuine quad cones


class TestPolytopeWitnessRanks:
    """The polytope test's witness ranks come from the identity
    ``rank_small = k`` and ``rank_big = k + span``; compare them with the
    ranks of the literal ``M_gamma`` matrices."""

    @staticmethod
    def _check_system(sys_):
        witnesses = 0
        for st in base_locus_strata(sys_):
            res = check_stratum_polytope(sys_, st)
            if not isinstance(res, StratumWitness):
                continue
            rows = [sys_.exponents[i] for i in m_gamma(sys_, st.variables, res.gamma)]
            assert res.k == len(res.gamma)
            assert res.rank_small == rank_rational([tuple(r[j] for j in res.gamma) for r in rows])
            assert res.rank_big == rank_rational(rows)
            witnesses += 1
        return witnesses

    def test_fixtures(
        self, product_system, triple_line_system, p4_system, blowup_system, dual8_system
    ):
        systems = (product_system, triple_line_system, p4_system, blowup_system, dual8_system)
        assert sum(self._check_system(sys_) for sys_ in systems) > 0

    def test_random_fan_and_product_systems(self):
        rng = random.Random(6_161)
        witnesses = produced = 0
        while produced < 150:
            out = random_fan_system(rng)
            if out is None:
                continue
            produced += 1
            witnesses += self._check_system(out[2])
        for _ in range(60):
            blocks = [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
            witnesses += self._check_system(random_product_system(rng, blocks))
        assert witnesses > 300


def _polytope_test_by_affine_span(sys_, st):
    """The polytope test with each span taken by ``affine_span_dim``."""
    faces = {rho: [sys_.exponents[i] for i in rows] for rho, rows in st.face_supports if rows}
    if not faces:
        return StratumFailure(st.variables, FailureReason.ALL_FACES_EMPTY)
    for size in range(1, len(faces) + 1):
        for gamma in itertools.combinations(faces, size):
            span = affine_span_dim(
                [vector_sub(p, min(faces[rho])) for rho in gamma for p in faces[rho]]
            )
            if size > span:
                return StratumWitness(st.variables, gamma, size, size, size + span)
    return StratumFailure(st.variables, FailureReason.NO_DEGENERATE_SUBCOLLECTION)


class TestStratumRanksDifferential:
    """The stratum tests take their ranks from an ``Echelon`` directly; compare
    them with ``rank_rational`` and ``affine_span_dim`` on seeded random fans."""

    def test_random_fan_strata(self):
        rng = random.Random(4_242)
        systems = ranks = 0
        outcomes = set()
        while systems < 200:
            out = random_fan_system(rng)
            if out is None:
                continue
            sys_ = out[2]
            systems += 1
            for st in base_locus_strata(sys_):
                candidates = [rho for rho, rows in st.face_supports if rows]
                for size in range(1, len(candidates) + 1):
                    for gamma in itertools.combinations(candidates, size):
                        rows = m_gamma(sys_, st.variables, gamma)
                        expected = (
                            rank_rational([tuple(sys_.exponents[i][j] for j in gamma) for i in rows]),
                            rank_rational([sys_.exponents[i] for i in rows]),
                        )
                        assert qscheck._gamma_ranks(sys_, rows, gamma) == expected
                        ranks += 1
                res = check_stratum_polytope(sys_, st)
                assert res == _polytope_test_by_affine_span(sys_, st)
                outcomes.add(type(res) if isinstance(res, StratumWitness) else res.reason)
        assert ranks > 300
        assert len(outcomes) == 3


class TestTorsionInvariance:
    def test_added_torsion_rows_change_nothing(self):
        rng = random.Random(5)
        checked = 0
        while checked < 25:
            out = random_fan_system(rng)
            if out is None:
                continue
            ambient, fan, sys_ = out
            base_verdict = is_quasismooth(sys_)
            free = ambient.grading.free_part
            q = rng.choice([2, 3, 5])
            coeffs = [rng.randint(0, q - 1) for _ in range(free.rows)]
            weights = tuple(
                sum(c * row[j] for c, row in zip(coeffs, free.entries)) % q
                for j in range(free.cols)
            )
            if not any(weights):
                continue
            twisted_grading = Grading(free, ambient.grading.torsion + ((q, weights),))
            twisted = ToricAmbient.from_quotient(twisted_grading, ambient.irrelevant)
            verdict = is_quasismooth(monomial_system(twisted, sys_.exponents))
            assert verdict.quasismooth == base_verdict.quasismooth
            assert verdict.failure == base_verdict.failure
            checked += 1


class TestLowDimensionCheckers:
    def test_full_cubic_curve_base_point_free(self):
        rows = [(a, b, 3 - a - b) for a in range(4) for b in range(4 - a)]
        assert check_curve_on_surface(monomial_system(P2, rows)).quasismooth

    def test_cuspidal_family_fails(self):
        sys_ = monomial_system(P2, [(3, 0, 0), (0, 2, 1)])
        verdict = check_curve_on_surface(sys_)
        assert not verdict.quasismooth
        assert verdict.failure.stratum == (0, 1)
        assert is_quasismooth(sys_).quasismooth == verdict.quasismooth

    def test_second_cuspidal_family_fails(self):
        sys_ = monomial_system(P2, [(2, 1, 0), (0, 0, 3)])
        verdict = check_curve_on_surface(sys_)
        assert not verdict.quasismooth
        assert is_quasismooth(sys_).quasismooth == verdict.quasismooth

    def test_full_quartic_surface(self):
        rows = [
            (a, b, c, 4 - a - b - c)
            for a in range(5)
            for b in range(5 - a)
            for c in range(5 - a - b)
        ]
        assert check_surface_on_threefold(monomial_system(P3, rows)).quasismooth

    def test_one_sided_pair_stratum_with_unit_exponent_elsewhere(self):
        # tricky shape: the stratum {x1, x2} passes with a single supporting
        # point even though other monomials use x1 with exponent one
        rows = [(0, 1, 0, 3, 0), (1, 3, 0, 0, 0), (0, 3, 0, 1, 0),
                (3, 1, 0, 0, 0), (3, 0, 0, 1, 0)]
        sys_ = monomial_system(BLOWN_P3, rows)
        assert sys_.vertex_rows == tuple(range(5))
        assert check_surface_on_threefold(sys_).quasismooth
        assert is_quasismooth(sys_).quasismooth

    def test_dimension_mismatch(self, product_system):
        with pytest.raises(DimensionMismatch):
            check_curve_on_surface(product_system)
        sys2 = monomial_system(P2, [(3, 0, 0), (0, 2, 1)])
        with pytest.raises(DimensionMismatch):
            check_surface_on_threefold(sys2)

    def test_quotient_presentation_rejected(self):
        amb = make_wps([1, 1, 1])
        sys_ = monomial_system(amb, [(3, 0, 0), (0, 2, 1)])
        with pytest.raises(DimensionMismatch):
            check_curve_on_surface(sys_)

    def test_random_surface_agreement(self):
        rng = random.Random(77)
        checked = 0
        while checked < 60:
            out = random_fan_system(rng, dim=2)
            if out is None:
                continue
            _, _, sys_ = out
            assert (
                check_curve_on_surface(sys_).quasismooth
                == is_quasismooth(sys_).quasismooth
            )
            checked += 1

    def test_random_threefold_agreement(self):
        rng = random.Random(78)
        checked = 0
        while checked < 60:
            out = random_fan_system(rng, dim=3)
            if out is None:
                continue
            _, _, sys_ = out
            assert (
                check_surface_on_threefold(sys_).quasismooth
                == is_quasismooth(sys_).quasismooth
            )
            checked += 1

    @pytest.mark.parametrize(
        "dim, check, scan, pairs",
        [
            (2, check_curve_on_surface, check_curve_on_surface_scan, 3),
            (3, check_surface_on_threefold, check_surface_on_threefold_scan, 5),
        ],
    )
    def test_whole_verdicts_match_the_row_scans(self, dim, check, scan, pairs):
        # small exponents and many monomials make passing verdicts common
        # enough; dropping rows reaches every (|C|, reason) pair
        rng = random.Random(90 + dim)
        seen, passed, checked = set(), 0, 0
        while checked < 1000:
            fan = (
                random_complete_fan_2d(rng, rng.randint(3, 7))
                if dim == 2
                else random_complete_fan_3d(rng)
            )
            ambient = ToricAmbient.from_fan(fan)
            sys_ = random_system(
                rng, ambient, fan, max_exp=rng.randint(2, 4), max_monomials=rng.randint(4, 30)
            )
            if sys_ is None:
                continue
            if rng.random() < 0.5 and sys_.num_monomials > 2:
                size = rng.randint(2, sys_.num_monomials - 1)
                sys_ = monomial_system(ambient, rng.sample(sys_.exponents, size))
            verdict = check(sys_)
            assert verdict == scan(sys_)
            if verdict.quasismooth:
                passed += 1
            else:
                seen.add((len(verdict.failure.stratum), verdict.failure.reason))
            checked += 1
        assert passed > 0
        assert len(seen) == pairs


class TestNewtonInvariance:
    def test_vertex_subsystem_same_verdict(self):
        rng = random.Random(31)
        checked = 0
        while checked < 40:
            out = random_fan_system(rng)
            if out is None:
                continue
            ambient, _, sys_ = out
            vertex_sys = monomial_system(ambient, sys_.vertex_exponents())
            assert (
                is_quasismooth(vertex_sys).quasismooth
                == is_quasismooth(sys_).quasismooth
            )
            checked += 1

    def test_filling_in_newton_lattice_points_same_verdict(self):
        from qsmooth.polytope import hull, lattice_points

        rng = random.Random(32)
        checked = 0
        while checked < 15:
            out = random_fan_system(rng, dim=2)
            if out is None:
                continue
            ambient, _, sys_ = out
            if max(max(r) for r in sys_.exponents) > 3:
                continue
            filled = monomial_system(
                ambient, lattice_points(hull(sys_.exponents))
            )
            assert (
                is_quasismooth(filled).quasismooth
                == is_quasismooth(sys_).quasismooth
            )
            checked += 1
