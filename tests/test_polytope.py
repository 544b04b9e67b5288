import itertools
import random
import time
from fractions import Fraction

import pytest

from conftest import FIXTURES, fixture_path
from generators import random_canonical_polytope
from oracle import (
    box_scan_points,
    drop_midpoints_pairs,
    in_convex_hull,
    in_interior,
    int_hull_data_exhaustive,
    interior_lattice_points_bruteforce,
    list_facets_kernel,
)
from qsmooth.errors import BoxTooLarge, EmptyInput, NotFullDim, NotInteriorOrigin
from qsmooth.linalg import affine_span_dim, dot
from qsmooth.polytope import (
    Facet,
    LatticePolytope,
    _box_scan,
    _dedupe,
    _drop_midpoints,
    _hull_parts,
    _scale_to_int,
    format_polytope,
    hull,
    interior_lattice_points,
    is_canonical,
    lattice_points,
    load_polytope,
    normal_fan,
    parse_polytope_text,
    as_lattice,
    polar_dual,
    rational_hull,
)

SQUARE = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
EIGHT_ROWS = [
    (2, 1, 0, 2, 0),
    (2, 1, 0, 0, 2),
    (2, 0, 1, 2, 0),
    (2, 0, 1, 0, 2),
    (0, 3, 0, 2, 0),
    (0, 3, 0, 0, 2),
    (0, 0, 3, 2, 0),
    (0, 0, 3, 0, 2),
]


class TestHull:
    def test_single_point(self):
        p = hull([(3, 1, 4)])
        assert p.dim == 0
        assert p.vertices == ((3, 1, 4),)
        assert p.facets == ()

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            hull([])

    def test_interior_point_dropped(self):
        p = hull(SQUARE + [(0, 0)])
        assert sorted(p.vertices) == sorted(tuple(v) for v in SQUARE)

    def test_every_exponent_row_is_a_vertex(self):
        p = hull(EIGHT_ROWS)
        assert sorted(p.vertices) == sorted(EIGHT_ROWS)
        # independent oracle: no row is a convex combination of the others
        for i, row in enumerate(EIGHT_ROWS):
            others = [r for j, r in enumerate(EIGHT_ROWS) if j != i]
            assert not in_convex_hull(others, row)

    def test_vertices_never_inside_hull_of_rest(self):
        rng = random.Random(5)
        for _ in range(15):
            pts = [
                tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(rng.randint(1, 8))
            ]
            p = hull(pts)
            for i, v in enumerate(p.vertices):
                others = [w for j, w in enumerate(p.vertices) if j != i]
                if others:
                    assert not in_convex_hull(others, v)
            # facet inequalities hold on all input points
            for q in pts:
                assert p.contains(q)

    def test_facets_supported_by_enough_vertices(self):
        p = hull(EIGHT_ROWS)
        for f in p.facets:
            tight = [v for v in p.vertices if dot(f.normal, v) == f.offset]
            assert len(tight) >= p.dim
            assert affine_span_dim(tight) == p.dim - 1


    def test_integral_floats_and_fractions_accepted(self):
        p = hull([(2.0, 0), (Fraction(4, 2), 2), (0, 2)])
        assert p == hull([(2, 0), (2, 2), (0, 2)])
        assert all(type(x) is int for v in p.vertices for x in v)

    @pytest.mark.parametrize("bad", [0.5, Fraction(1, 2), "1", float("nan")])
    def test_non_integral_points_rejected(self, bad):
        with pytest.raises(ValueError, match="integer points"):
            hull([(bad, 0), (2, 0), (0, 2)])


def _eager_hull_data(pts):
    """Dimension, facets, equations and vertex flags, with the facets listed now."""
    dim, equations, flags, list_facets = _hull_parts(pts)
    return dim, list_facets(), equations, flags


def _cubic_monomials(num_vars):
    return [m for m in itertools.product(range(4), repeat=num_vars) if sum(m) == 3]


def _embed(rng, pts, width):
    """Image of ``pts`` under a random integer affine map into Z^width."""
    dim = len(pts[0])
    matrix = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(width)]
    shift = [rng.randint(-3, 3) for _ in range(width)]
    return [
        tuple(sum(a * x for a, x in zip(row, p)) + c for row, c in zip(matrix, shift))
        for p in pts
    ]


class TestHullDifferential:
    """Beneath-beyond gives the exhaustive search's facets, in its order."""

    def _check(self, points):
        pts = _dedupe(points)
        data = _eager_hull_data(pts)
        assert data == int_hull_data_exhaustive(pts)
        assert hull(pts).facets == tuple(data[1])
        # the same points divided by 3: rational_hull rescales the facets
        # of the integer hull of the points with denominators cleared
        thirds = [tuple(Fraction(x, 3) for x in p) for p in pts]
        scaled, scale = _scale_to_int(thirds)
        assert rational_hull(thirds).facets == tuple(
            Facet(f.normal, Fraction(f.offset, scale)) for f in _eager_hull_data(scaled)[1]
        )
        flags = data[3]
        for i, p in enumerate(pts):
            others = pts[:i] + pts[i + 1 :]
            assert flags[i] == (not others or not in_convex_hull(others, p))
        return data

    def test_degree_monomial_subsets(self):
        rng = random.Random(7_001)
        for num_vars in range(4, 8):
            for degree in (2, 3):
                pool = [
                    m
                    for m in itertools.product(range(degree + 1), repeat=num_vars)
                    if sum(m) == degree
                ]
                for _ in range(6):
                    size = rng.randint(num_vars + 2, min(len(pool), num_vars + 6))
                    rows = rng.sample(pool, size)
                    data = self._check(rows)
                    assert data[0] == affine_span_dim(rows)

    def test_reflexive_polytopes_and_polars(self):
        rng = random.Random(7_002)
        polytopes = [load_polytope(str(path)) for path in sorted(FIXTURES.glob("poly_*"))]
        polytopes += [random_canonical_polytope(rng, rng.choice([2, 3, 4])) for _ in range(12)]
        for p in polytopes:
            self._check(list(p.vertices))
            polar = polar_dual(p)
            scaled, _ = _scale_to_int(_dedupe(polar.vertices))
            self._check(scaled)
            double = polar_dual(polar)
            assert sorted(double.vertices) == sorted(
                tuple(map(Fraction, v)) for v in p.vertices
            )

    def test_random_point_clouds(self):
        rng = random.Random(7_003)
        for width in range(1, 6):
            for _ in range(25):
                dim = rng.randint(0, width)
                base = [
                    tuple(rng.randint(-2, 2) for _ in range(max(dim, 1)))
                    for _ in range(rng.randint(1, 9))
                ]
                if dim == 0:
                    base = base[:1]
                pts = base if dim == width else _embed(rng, base, width)
                if len(pts) >= 2:
                    a, b = rng.sample(pts, 2)
                    if all((x + y) % 2 == 0 for x, y in zip(a, b)):
                        pts.append(tuple((x + y) // 2 for x, y in zip(a, b)))
                    pts += rng.sample(pts, 2)
                rng.shuffle(pts)
                self._check(pts)

    def test_collinear_and_coplanar_sets(self):
        self._check([(0, 0, 0), (1, 1, 1), (3, 3, 3), (-2, -2, -2), (1, 1, 1)])
        self._check([(0, 0), (1, 0), (3, 0), (4, 0), (2, 0)])
        self._check([(x, y, 5 - x - y) for x in range(3) for y in range(3)])
        self._check(EIGHT_ROWS + [(2, 1, 0, 1, 1), (1, 1, 1, 1, 1)])
        self._check([(4, 5)])


class TestFacetListingDifferential:
    """Facets read off the hull's normals equal the per-facet kernel listing."""

    def _check(self, points):
        pts = _dedupe(points)
        assert hull(pts).facets == tuple(list_facets_kernel(pts))
        thirds = [tuple(Fraction(x, 3) for x in p) for p in pts]
        assert rational_hull(thirds).facets == tuple(
            Facet(f.normal, Fraction(f.offset, 3)) for f in list_facets_kernel(pts)
        )

    def test_fixtures_and_polars(self):
        rng = random.Random(7_101)
        polytopes = [load_polytope(str(path)) for path in sorted(FIXTURES.glob("poly_*"))]
        polytopes += [random_canonical_polytope(rng, rng.choice([2, 3, 4])) for _ in range(12)]
        for p in polytopes:
            self._check(list(p.vertices))
            self._check(_scale_to_int(_dedupe(polar_dual(p).vertices))[0])

    def test_seeded_clouds_full_and_lower_dimensional(self):
        rng = random.Random(7_102)
        for width in range(1, 6):
            for _ in range(30):
                dim = rng.randint(1, width)
                base = [
                    tuple(rng.randint(-3, 3) for _ in range(dim))
                    for _ in range(rng.randint(2, 10))
                ]
                pts = base if dim == width else _embed(rng, base, width)
                rng.shuffle(pts)
                self._check(pts)

    def test_grid_subsets(self):
        # subsets of the {0, 1, 2}^n grid put many points on each facet
        rng = random.Random(7_103)
        for width in range(1, 5):
            grid = list(itertools.product(range(3), repeat=width))
            for _ in range(40):
                self._check(rng.sample(grid, rng.randint(2, len(grid))))

    def test_permuted_pivots(self):
        # the span's pivots come out of order when the first differences
        # vanish on the first coordinate
        self._check([(0, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 0), (1, 1, 1)])
        self._check([(0, 0, 0), (0, 0, 2), (0, 3, 1), (4, 1, 1), (-1, -1, -1)])


class TestDropMidpointsDifferential:
    """The pair test without its redundant checks keeps the same core."""

    def _check(self, points):
        pts = _dedupe(points)
        assert _drop_midpoints(pts) == drop_midpoints_pairs(pts)

    def test_seeded_clouds(self):
        rng = random.Random(7_005)
        for _ in range(400):
            width = rng.randint(1, 6)
            self._check(
                [tuple(rng.randint(-2, 2) for _ in range(width)) for _ in range(rng.randint(1, 14))]
            )

    def test_collinear_runs(self):
        rng = random.Random(7_006)
        for _ in range(60):
            width = rng.randint(1, 5)
            start = [rng.randint(-3, 3) for _ in range(width)]
            step = [rng.randint(-2, 2) for _ in range(width)]
            run = [tuple(a + k * d for a, d in zip(start, step)) for k in range(rng.randint(1, 8))]
            rng.shuffle(run)
            self._check(run)
            self._check(run + [tuple(rng.randint(-3, 3) for _ in range(width))])

    def test_lower_dimensional_sets(self):
        rng = random.Random(7_007)
        for _ in range(80):
            dim = rng.randint(1, 3)
            base = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(2, 10))]
            self._check(_embed(rng, base, dim + rng.randint(1, 3)))


class TestLazyFacets:
    """Facets are listed on first read and compare like eager ones."""

    def test_vertices_do_not_list_facets(self):
        p = hull(EIGHT_ROWS)
        assert sorted(p.vertices) == sorted(EIGHT_ROWS)
        assert "facets" not in p.__dict__
        assert p.facets == tuple(_eager_hull_data(EIGHT_ROWS)[1])
        assert "_list_facets" not in p.__dict__

    def test_equality_and_hash_force_facets(self):
        rng = random.Random(7_008)
        for _ in range(20):
            pts = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(rng.randint(1, 9))]
            fresh, read = hull(pts), hull(pts)
            read.facets  # list them
            assert fresh == read and read == fresh
            assert "facets" in fresh.__dict__
            assert hash(fresh) == hash(hull(pts)) == hash(read)
            rational = [tuple(Fraction(x, 2) for x in p) for p in pts]
            fresh, read = rational_hull(rational), rational_hull(rational)
            read.facets  # list them
            assert fresh == read and hash(fresh) == hash(read)

    def test_facets_distinguish_polytopes(self):
        square = hull(SQUARE)
        same_vertices = LatticePolytope(2, 2, square.vertices, (), ())
        assert square != same_vertices and hash(square) != hash(same_vertices)
        assert square != rational_hull(SQUARE)

    def test_as_lattice_keeps_listed_facets(self):
        polar = polar_dual(hull(SQUARE))
        lattice = as_lattice(polar)
        assert "facets" in lattice.__dict__
        assert lattice.facets == hull(lattice.vertices).facets

    def test_immutable(self):
        p = hull(SQUARE)
        with pytest.raises(AttributeError):
            p.dim = 3


class TestHullScaling:
    def test_cubic_monomials_in_eight_variables(self):
        # 24 of the 120 cubic monomials in 8 variables: a 7-dimensional hull.
        # The exhaustive search tried all C(24, 7) = 346,104 subsets: 70 s
        # on a 2-core x86-64 host with Python 3.11, against 0.04 s now.
        rows = random.Random(7_004).sample(_cubic_monomials(8), 24)
        start = time.perf_counter()
        p = hull(rows)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        assert p.dim == 7
        for f in p.facets:
            assert all(dot(f.normal, r) >= f.offset for r in rows)
            assert affine_span_dim([r for r in rows if dot(f.normal, r) == f.offset]) == 6
        for i, r in enumerate(rows):
            assert (r in p.vertices) == (not in_convex_hull(rows[:i] + rows[i + 1 :], r))


class TestLatticePoints:
    def test_segment(self):
        p = hull([(0, 0), (2, 0)])
        assert lattice_points(p) == [(0, 0), (1, 0), (2, 0)]

    def test_dilated_triangle(self):
        p = hull([(0, 0), (3, 0), (0, 3)])
        pts = lattice_points(p)
        brute = [
            (x, y) for x in range(4) for y in range(4) if x + y <= 3
        ]
        assert sorted(pts) == sorted(brute)
        assert len(pts) == 10

    def test_cross_polytope(self):
        p = hull([(1, 0), (-1, 0), (0, 1), (0, -1)])
        assert len(lattice_points(p)) == 5

    def test_closed_under_symmetries_of_the_square(self):
        pts = set(lattice_points(hull(SQUARE)))
        assert {(x, -y) for x, y in pts} == pts
        assert {(y, x) for x, y in pts} == pts


class TestPolarDual:
    def test_square_gives_cross_polytope(self):
        d = polar_dual(hull(SQUARE))
        assert sorted(d.vertices) == sorted(
            [(Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0)),
             (Fraction(0), Fraction(1)), (Fraction(0), Fraction(-1))]
        )

    def test_plane_simplex_involution(self):
        p = hull([(1, 0), (0, 1), (-1, -1)])
        d = polar_dual(p)
        assert sorted(d.vertices) == sorted(
            [(Fraction(2), Fraction(-1)), (Fraction(-1), Fraction(2)),
             (Fraction(-1), Fraction(-1))]
        )
        back = polar_dual(d)
        assert sorted(tuple(map(Fraction, v)) for v in p.vertices) == sorted(back.vertices)

    def test_polar_of_square_has_five_lattice_points(self):
        assert len(lattice_points(polar_dual(hull(SQUARE)))) == 5

    def test_origin_on_boundary_rejected(self):
        with pytest.raises(NotInteriorOrigin):
            polar_dual(hull([(0, 0), (1, 0), (0, 1)]))

    def test_lower_dimensional_rejected(self):
        with pytest.raises(NotFullDim):
            polar_dual(hull([(1, 0), (-1, 0)]))


class TestCanonical:
    def test_unit_square_at_origin(self):
        assert is_canonical(hull(SQUARE))

    def test_shifted_square_not_canonical(self):
        assert not is_canonical(hull([(0, 0), (2, 0), (0, 2), (2, 2)]))

    def test_dilated_square_not_canonical(self):
        big = hull([(2, 2), (2, -2), (-2, 2), (-2, -2)])
        assert not is_canonical(big)
        assert len(interior_lattice_points(big)) == 9

    def test_matches_bruteforce_interior_scan(self):
        rng = random.Random(23)
        for dim in (2, 3):
            for _ in range(6):
                pts = [
                    tuple(rng.randint(-2, 2) for _ in range(dim))
                    for _ in range(rng.randint(dim + 1, dim + 4))
                ]
                p = hull(pts)
                if not p.is_full_dim:
                    continue
                mine = interior_lattice_points(p)
                brute = interior_lattice_points_bruteforce(p.vertices)
                assert sorted(mine) == sorted(brute)
                origin = tuple(0 for _ in range(dim))
                assert is_canonical(p) == (brute == [origin])


class TestLatticePointsAgainstOracle:
    def test_matches_lp_membership_on_random_hulls(self):
        rng = random.Random(61)
        for _ in range(10):
            dim = rng.choice([2, 3])
            pts = [
                tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(rng.randint(dim + 1, dim + 4))
            ]
            p = hull(pts)
            box = [
                range(min(v[j] for v in p.vertices), max(v[j] for v in p.vertices) + 1)
                for j in range(dim)
            ]
            brute = [
                cand
                for cand in itertools.product(*box)
                if in_convex_hull(p.vertices, cand)
            ]
            assert lattice_points(p) == brute


def _random_polytopes(rng, rational):
    """Seeded polytopes in dimensions 1-4, full- and lower-dimensional."""
    out = []
    for width in range(1, 5):
        for _ in range(20):
            dim = rng.randint(0, width)
            base = [
                tuple(rng.randint(-3, 3) for _ in range(max(dim, 1)))
                for _ in range(rng.randint(1, 8))
            ]
            if dim == 0:
                base = base[:1]
            pts = base if dim == width else _embed(rng, base, width)
            if rational:
                den = rng.choice([2, 3, 4])
                pts = [tuple(Fraction(x, den) + rng.randint(-1, 1) for x in p) for p in pts]
                out.append(rational_hull(pts))
            else:
                out.append(hull(pts))
    return out


class TestFibreScanDifferential:
    """The fibre scan finds what the per-point box scan finds, in its order."""

    def _polytopes(self):
        polytopes = [load_polytope(str(path)) for path in sorted(FIXTURES.glob("poly_*"))]
        polytopes += [polar_dual(p) for p in polytopes]
        polytopes += _random_polytopes(random.Random(7_201), rational=False)
        polytopes += _random_polytopes(random.Random(7_202), rational=True)
        polytopes += [random_canonical_polytope(random.Random(7_203 + d), d) for d in (1, 2, 3, 4)]
        return polytopes

    def test_lattice_and_interior_points(self):
        kinds = set()
        for p in self._polytopes():
            kinds.add((p.dim_ambient, p.is_full_dim, type(p).__name__))
            for strict in (False, True):
                assert list(_box_scan(p, strict)) == box_scan_points(p, strict)
            assert lattice_points(p) == box_scan_points(p, False)
            if p.is_full_dim:
                assert interior_lattice_points(p) == box_scan_points(p, True)
        # every dimension 1-4 was seen full- and lower-dimensional, lattice and rational
        assert len(kinds) == 16

    @pytest.mark.parametrize(
        "vertices, count, interior",
        [
            # x0 + x1 = 2: the equation leaves the last coordinate free
            ([(0, 2, 0), (2, 0, 0), (0, 2, 3), (2, 0, 3)], 12, 2),
            # x0 + 2 x2 = 2: the last coordinate is not an integer on odd x0
            ([(0, 0, 1), (2, 0, 0), (0, 3, 1), (2, 3, 0)], 8, 0),
        ],
    )
    def test_planes_in_three_space(self, vertices, count, interior):
        p = hull(vertices)
        assert (p.dim, p.dim_ambient) == (2, 3)
        points = list(_box_scan(p, False))
        inside = list(_box_scan(p, True))
        assert points == box_scan_points(p, False) == lattice_points(p)
        assert inside == box_scan_points(p, True)
        assert (len(points), len(inside)) == (count, interior)

    def test_rank_zero_lattice_holds_one_point(self):
        p = hull([()])
        for strict in (False, True):
            assert list(_box_scan(p, strict)) == box_scan_points(p, strict) == [()]
        assert lattice_points(p) == [()]
        assert p.vertices == ((),)

    def test_is_canonical_stops_at_the_same_answer(self):
        polytopes = [p for p in self._polytopes() if p.is_full_dim]
        polytopes += [random_canonical_polytope(random.Random(7_204), 3) for _ in range(10)]
        polytopes += [hull([(x, 0), (0, y), (-1, -1)]) for x in (1, 2) for y in (1, 2)]
        answers = set()
        for p in polytopes:
            if any(Fraction(x).denominator != 1 for v in p.vertices for x in v):
                continue
            origin = (0,) * p.dim_ambient
            expected = interior_lattice_points(p) == [origin]
            assert is_canonical(p) == expected == (box_scan_points(p, True) == [origin])
            answers.add(expected)
        assert answers == {True, False}

    def test_box_limit_is_on_the_whole_box(self):
        # two fibres only, but the whole box holds 2 * (2 * 10**6 + 1) points
        thin = hull([(0, 0), (1, 0), (0, 2 * 10**6)])
        message = "box with 4000002 points exceeds the limit of 1000000"
        for scan in (lattice_points, interior_lattice_points, is_canonical):
            with pytest.raises(BoxTooLarge, match=message):
                scan(thin)


class TestNormalFan:
    def test_square_gives_product_of_lines(self):
        fan = normal_fan(hull(SQUARE))
        assert sorted(fan.rays) == sorted([(1, 0), (-1, 0), (0, 1), (0, -1)])
        assert len(fan.max_cones) == 4
        for cone in fan.max_cones:
            assert len(cone) == 2

    def test_product_anticanonical_gives_five_rays(self):
        p = load_polytope(fixture_path("poly_anticanonical_p2xp1.txt"))
        fan = normal_fan(p)
        assert sorted(fan.rays) == sorted(
            [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)]
        )
        assert len(fan.max_cones) == 6

    def test_translated_simplex(self):
        p = hull([(-1, -1), (1, -1), (-1, 1)])
        fan = normal_fan(p)
        assert len(fan.rays) == 3
        from qsmooth.toric import is_complete

        assert is_complete(fan)


class TestRandomCanonicalInvolution:
    def test_polar_involution_on_random_canonical_polytopes(self):
        rng = random.Random(101)
        for _ in range(10):
            dim = rng.choice([2, 3])
            p = random_canonical_polytope(rng, dim)
            double = polar_dual(rational_hull(polar_dual(p).vertices))
            assert sorted(tuple(map(Fraction, v)) for v in p.vertices) == sorted(
                double.vertices
            )


class TestTextFormat:
    def test_roundtrip(self):
        p = hull(EIGHT_ROWS)
        again = parse_polytope_text(format_polytope(p))
        assert sorted(again.vertices) == sorted(p.vertices)

    def test_rational_entries(self):
        p = parse_polytope_text("1/2 0\n-1/2 0\n0 1\n0 -1\n")
        assert p.dim == 2
        assert (Fraction(1, 2), Fraction(0)) in p.vertices

    def test_comment_and_error(self):
        from qsmooth.errors import ParseError

        parse_polytope_text("# comment\n1 0\n-1 0\n0 1\n0 -1\n")
        with pytest.raises(ParseError):
            parse_polytope_text("1 x\n")

    def test_interior_oracle_agrees_on_fixture(self):
        p = load_polytope(fixture_path("poly_newton_deg32.txt"))
        assert is_canonical(p)
        assert in_interior(p.vertices, (0, 0, 0))
        assert not in_interior(p.vertices, (1, 0, 1))
