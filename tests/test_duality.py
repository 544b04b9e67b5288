import itertools
import random
from fractions import Fraction

import pytest

import qsmooth.polytope
from generators import random_canonical_polytope
from oracle import in_row_space
from qsmooth.duality import (
    dual_pair,
    duality_qs_report,
    good_pair_check,
    induced_system,
    quasismooth_implies_good,
)
from qsmooth.errors import NonIntegralDual, PointOutsideP2
from qsmooth.linalg import vector_sub
from qsmooth.linsys import monomial_system
from qsmooth.polytope import (
    as_lattice,
    has_integral_vertices,
    hull,
    is_canonical,
    lattice_points,
    polar_dual,
    rational_hull,
)
from qsmooth.qscheck import is_quasismooth


def rows_match_up_to_column_permutation(rows_a, rows_b, width):
    sa = sorted(rows_a)
    for perm in itertools.permutations(range(width)):
        if sorted(tuple(r[p] for p in perm) for r in rows_b) == sa:
            return perm
    return None


CROSS = hull([(1, 0), (-1, 0), (0, 1), (0, -1)])
PLANE_ANTICANONICAL = hull([(2, -1), (-1, 2), (-1, -1)])


class TestGoodPairCheck:
    def test_self_dual_cross_polytope(self):
        gp = good_pair_check(CROSS, CROSS)
        assert gp.is_good

    def test_newton_pair_from_fixtures(self, newton_polytope_pair):
        p1, p2 = newton_polytope_pair
        gp = good_pair_check(p1, p2)
        assert gp.is_good
        assert gp.p2star_integral

    def test_boundary_origin_is_not_good(self):
        shifted = hull([(0, 0), (2, 0), (0, 2), (2, 2)])
        big = hull([(3, 3), (3, -3), (-3, 3), (-3, -3)])
        gp = good_pair_check(shifted, big)
        assert not gp.p1_canonical and not gp.is_good

    def test_non_integral_polar_flagged(self):
        fat = hull([(2, 2), (2, -2), (-2, 2), (-2, -2)])
        gp = good_pair_check(CROSS, fat)
        assert not gp.p2star_integral
        assert not gp.p2star_canonical


class TestGoodPairLazyPolar:
    """A non-integral polar is judged without listing its facets."""

    @staticmethod
    def _pairs():
        yield CROSS, CROSS
        yield PLANE_ANTICANONICAL, PLANE_ANTICANONICAL
        rng = random.Random(4_040)
        for _ in range(30):
            dim = rng.choice([2, 3])
            p1 = random_canonical_polytope(rng, dim)
            corners = [tuple(rng.choice([-1, 1]) * rng.randint(1, 3) for _ in range(dim))
                       for _ in range(2 * dim)]
            axes = [tuple(s * (j == i) * rng.randint(1, 3) for j in range(dim))
                    for i in range(dim) for s in (1, -1)]
            yield p1, hull(axes + corners)
            yield p1, p1

    def _flags(self, monkeypatch, force):
        polars = []

        def polar_dual(p):
            polar = original(p)
            if force:
                polar.facets  # list them
            polars.append(polar)
            return polar

        original = qsmooth.polytope.polar_dual
        with monkeypatch.context() as patch:
            patch.setattr(qsmooth.polytope, "polar_dual", polar_dual)
            flags = [
                (gp.contains, gp.p1_canonical, gp.p2star_canonical, gp.p2star_integral)
                for gp in (good_pair_check(p1, p2) for p1, p2 in self._pairs())
            ]
        return flags, polars

    def test_flags_do_not_depend_on_listing(self, monkeypatch):
        lazy, polars = self._flags(monkeypatch, force=False)
        eager, _ = self._flags(monkeypatch, force=True)
        assert lazy == eager
        non_integral = [(f, p) for f, p in zip(lazy, polars) if not f[3]]
        assert non_integral and any(f[3] for f in lazy)
        assert all("facets" not in p.__dict__ for _, p in non_integral)


class TestInducedSystem:
    def test_plane_anticanonical_gives_all_cubics(self):
        ind = induced_system(PLANE_ANTICANONICAL, PLANE_ANTICANONICAL)
        assert ind.system.num_vars == 3
        expected = sorted(
            (a, b, 3 - a - b) for a in range(4) for b in range(4 - a)
        )
        assert rows_match_up_to_column_permutation(
            expected, ind.system.exponents, 3
        )

    def test_origin_maps_to_all_ones(self):
        ind = induced_system(PLANE_ANTICANONICAL, PLANE_ANTICANONICAL)
        idx = ind.points.index((0, 0))
        assert ind.system.exponents[idx] == (1, 1, 1)

    def test_newton_pair_vertex_rows(self, newton_polytope_pair):
        p1, p2 = newton_polytope_pair
        ind = induced_system(p1, p2)
        assert ind.system.num_monomials == len(lattice_points(p1)) == 27
        expected = [
            (2, 1, 0, 2, 0), (2, 1, 0, 0, 2), (2, 0, 1, 2, 0), (2, 0, 1, 0, 2),
            (0, 3, 0, 2, 0), (0, 3, 0, 0, 2), (0, 0, 3, 2, 0), (0, 0, 3, 0, 2),
        ]
        assert rows_match_up_to_column_permutation(
            expected, ind.system.vertex_exponents(), 5
        )

    def test_exponent_differences_lie_in_ray_row_space(self, newton_polytope_pair):
        p1, p2 = newton_polytope_pair
        ind = induced_system(p1, p2)
        rays = ind.ambient.fan.rays
        ray_rows = [tuple(r[j] for r in rays) for j in range(len(rays[0]))]
        base = ind.system.exponents[0]
        for row in ind.system.exponents[1:]:
            assert in_row_space(vector_sub(row, base), ray_rows)

    def test_point_outside_rejected(self):
        big = hull([(3, 0), (-3, 0), (0, 3), (0, -3)])
        with pytest.raises(PointOutsideP2):
            induced_system(big, CROSS)


def _hull_vertex_rows(rows):
    corners = set(hull(rows).vertices)
    return tuple(i for i, r in enumerate(rows) if r in corners)


class TestInducedVertexRows:
    """The vertex rows read off P1 equal the rows the hull finds."""

    @staticmethod
    def _pairs():
        rng = random.Random(8_301)
        pairs = [(CROSS, CROSS), (PLANE_ANTICANONICAL, PLANE_ANTICANONICAL)]
        while len(pairs) < 32:
            # a reflexive P2, so its lattice points all give nonnegative exponents
            p2 = random_canonical_polytope(rng, rng.choice([2, 3]))
            star = polar_dual(p2)
            if not has_integral_vertices(star):
                continue
            if rng.random() < 0.5:
                p2 = as_lattice(star)
            points = lattice_points(p2)
            size = rng.randint(1, len(points))
            pairs.append((hull(rng.sample(points, size)), p2))
        return pairs

    def test_fixture_pair(self, newton_polytope_pair):
        ind = induced_system(*newton_polytope_pair)
        assert ind.system.vertex_rows == _hull_vertex_rows(ind.system.exponents)

    def test_seeded_pairs(self):
        dims = set()
        for p1, p2 in self._pairs():
            ind = induced_system(p1, p2)
            assert ind.system.vertex_rows == _hull_vertex_rows(ind.system.exponents)
            assert ind.system == monomial_system(ind.ambient, ind.system.exponents)
            dims.add(p1.dim)
        assert dims == {0, 1, 2, 3}

    def test_integral_p1_builds_no_hull(self, monkeypatch, newton_polytope_pair):
        def no_hull(points):
            raise AssertionError("hull built for an integral P1")

        expected = induced_system(*newton_polytope_pair)
        monkeypatch.setattr(qsmooth.polytope, "hull", no_hull)
        assert induced_system(*newton_polytope_pair) == expected

    def test_rational_p1_goes_through_the_hull(self):
        # the lattice points of this P1 span a smaller square than P1
        p1 = rational_hull([(Fraction(3, 2), 0), (0, Fraction(3, 2)), (-1, -1)])
        p2 = hull([(1, 1), (1, -1), (-1, 1), (-1, -1)])
        ind = induced_system(p1, p2)
        rows = ind.system.exponents
        assert ind.system.vertex_rows == _hull_vertex_rows(rows)
        assert len(ind.system.vertex_rows) < len(rows)
        corners = {ind.points[i] for i in ind.system.vertex_rows}
        assert corners != set(p1.vertices)


class TestDualPair:
    def test_self_dual(self):
        q1, q2 = dual_pair(CROSS, CROSS)
        square = sorted([(1, 1), (1, -1), (-1, 1), (-1, -1)])
        assert sorted(q1.vertices) == square
        assert sorted(q2.vertices) == square
        assert good_pair_check(q1, q2).is_good

    def test_newton_pair_roundtrip(self, newton_polytope_pair):
        p1, p2 = newton_polytope_pair
        q1, q2 = dual_pair(p1, p2)
        assert good_pair_check(q1, q2).is_good
        back1, back2 = dual_pair(q1, q2)
        assert sorted(back1.vertices) == sorted(p1.vertices)
        assert sorted(back2.vertices) == sorted(p2.vertices)

    def test_non_integral_dual_rejected(self):
        fat = hull([(2, 2), (2, -2), (-2, 2), (-2, -2)])
        with pytest.raises(NonIntegralDual):
            dual_pair(fat, fat)

    def test_duals_of_random_reflexive_pairs_are_good(self):
        from generators import random_canonical_polytope
        from qsmooth.polytope import has_integral_vertices, polar_dual

        rng = random.Random(83)
        found = 0
        while found < 8:
            p = random_canonical_polytope(rng, rng.choice([2, 3]))
            if not has_integral_vertices(polar_dual(p)):
                continue
            gp = good_pair_check(p, p)
            assert gp.is_good
            q1, q2 = dual_pair(p, p)
            assert good_pair_check(q1, q2).is_good
            found += 1


class TestDualityReport:
    def test_newton_pair_report(self, newton_polytope_pair):
        p1, p2 = newton_polytope_pair
        primal, dual = duality_qs_report(p1, p2)
        assert primal.quasismooth
        assert not dual.quasismooth
        assert dual.failure.reason.value == "all_faces_empty"
        assert len(dual.failure.stratum) == 4

    def test_dual_system_matches_reference_monomials(
        self, newton_polytope_pair, dual8_system
    ):
        p1, p2 = newton_polytope_pair
        q1, q2 = dual_pair(p1, p2)
        ind = induced_system(q1, q2)
        assert ind.system.num_monomials == 6
        verts = ind.system.vertex_exponents()
        assert len(verts) == 5
        assert rows_match_up_to_column_permutation(
            dual8_system.exponents, verts, 8
        )

    def test_self_dual_fermat_pair(self):
        primal, dual = duality_qs_report(PLANE_ANTICANONICAL, PLANE_ANTICANONICAL)
        assert primal.quasismooth and dual.quasismooth

    def test_induced_degree_is_anticanonical(self, newton_polytope_pair):
        p1, p2 = newton_polytope_pair
        ind = induced_system(p1, p2)
        all_ones = tuple(1 for _ in range(ind.system.num_vars))
        assert ind.system.degree == ind.ambient.grading.degree_of(all_ones)


class TestQuasismoothImpliesGood:
    def test_fixture_pair(self, newton_polytope_pair):
        p1, p2 = newton_polytope_pair
        assert quasismooth_implies_good(p1, p2)

    def test_boundary_origin_vacuous(self):
        p1 = hull([(0, 0), (2, -1), (-1, 2)])
        # origin is a vertex of the candidate: the induced system cannot be
        # quasismooth, so the implication holds vacuously
        assert not is_canonical(p1)
        ind = induced_system(p1, PLANE_ANTICANONICAL)
        assert not is_quasismooth(ind.system).quasismooth
        assert quasismooth_implies_good(p1, PLANE_ANTICANONICAL)

    def test_random_subpolytopes_of_product_anticanonical(self, newton_polytope_pair):
        _, p2 = newton_polytope_pair
        rng = random.Random(55)
        points = lattice_points(p2)
        for _ in range(20):
            size = rng.randint(1, len(points))
            subset = rng.sample(points, size)
            p1 = hull(subset)
            if not p1.is_full_dim:
                continue
            assert quasismooth_implies_good(p1, p2)
