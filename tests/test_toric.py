import random

import pytest

from conftest import fixture_path
from generators import primitive_rays, random_complete_fan_2d, random_complete_fan_3d
from oracle import (
    gradings_equivalent,
    irrelevant_components_unbounded,
    irrelevant_dim_in_stratum,
)
from qsmooth.errors import IrrelevantStratum, NotHomogeneous, ParseError
from qsmooth.linsys import monomial_system
from qsmooth.linalg import IntMatrix
from qsmooth.toric import (
    Fan,
    Grading,
    ToricAmbient,
    class_group,
    format_ambient,
    irrelevant_components,
    is_complete,
    is_fake_wps,
    is_simplicial,
    load_ambient,
    make_wps,
    parse_ambient_text,
    relevant_subsets,
    stratum_image_dim,
)


def projective_fan(n: int) -> Fan:
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    cones = [tuple(sorted(set(range(n + 1)) - {i})) for i in range(n + 1)]
    return Fan(lattice_rank=n, rays=tuple(rays), max_cones=tuple(cones))


P1xP1 = Fan(
    lattice_rank=2,
    rays=((1, 0), (-1, 0), (0, 1), (0, -1)),
    max_cones=((0, 2), (0, 3), (1, 2), (1, 3)),
)

INDEX_TWO_FAN = Fan(
    lattice_rank=2,
    rays=((1, 0), (-1, 2), (-1, -2)),
    max_cones=((0, 1), (1, 2), (0, 2)),
)

WEIGHTED_235 = Fan(
    lattice_rank=2,
    rays=((1, 0), (1, 5), (-1, -3)),
    max_cones=((0, 1), (1, 2), (0, 2)),
)


class TestClassGroup:
    def test_projective_space(self):
        g = class_group(projective_fan(3))
        assert g.free_rank == 1
        assert g.torsion == ()
        row = g.free_part.entries[0]
        assert all(abs(x) == 1 for x in row) and len(set(row)) == 1

    def test_product_of_plane_and_line(self):
        amb = load_ambient(fixture_path("ambient_p2xp1.txt"))
        g = amb.grading
        assert g.free_rank == 2
        expected = Grading(IntMatrix.from_rows([(1, 1, 1, 0, 0), (0, 0, 0, 1, 1)]))
        assert gradings_equivalent(g, expected)

    def test_index_two_quotient_has_torsion(self):
        g = class_group(INDEX_TWO_FAN)
        assert g.free_rank == 1
        assert [q for q, _ in g.torsion] == [2]

    def test_grading_annihilates_the_ray_image_exactly(self):
        import random

        from generators import random_fan_system

        rng = random.Random(73)
        for _ in range(15):
            out = None
            while out is None:
                out = random_fan_system(rng)
            ambient, fan, _ = out
            for k in range(fan.lattice_rank):
                image_vector = tuple(ray[k] for ray in fan.rays)
                free, tors = ambient.grading.degree_of(image_vector)
                assert not any(free) and not any(tors)


class TestCompletenessAndShape:
    def test_projective_spaces_complete(self):
        for n in (1, 2, 3, 4):
            assert is_complete(projective_fan(n))

    def test_missing_cone_not_complete(self):
        broken = Fan(
            lattice_rank=2,
            rays=((1, 0), (0, 1), (-1, -1)),
            max_cones=((0, 1), (1, 2)),
        )
        assert not is_complete(broken)

    def test_fake_wps_recognition(self):
        assert is_fake_wps(projective_fan(2))
        assert is_fake_wps(WEIGHTED_235)
        assert not is_fake_wps(P1xP1)

    def test_quotient_wps_recognition(self):
        assert make_wps([2, 3, 5]).is_fake_wps()
        amb = load_ambient(fixture_path("ambient_blowup_p3_quotient.txt"))
        assert not amb.is_fake_wps()

    def test_simpliciality(self):
        assert is_simplicial(projective_fan(3))


class TestIrrelevantComponents:
    def test_projective_space(self):
        assert irrelevant_components(projective_fan(3)) == [(0, 1, 2, 3)]

    def test_product_of_lines(self):
        assert sorted(irrelevant_components(P1xP1)) == [(0, 1), (2, 3)]

    def test_size_bound_matches_unbounded_search(self, blowup_fan_ambient):
        rng = random.Random(9_101)
        fans = [projective_fan(n) for n in (1, 2, 3, 5)]
        fans += [P1xP1, INDEX_TWO_FAN, WEIGHTED_235, blowup_fan_ambient.fan]
        fans += [random_complete_fan_2d(rng, rng.randint(3, 8)) for _ in range(10)]
        fans += [random_complete_fan_3d(rng, max_rays=9) for _ in range(10)]
        # incomplete fans: a few random cones on up to nine rays
        for _ in range(30):
            rays = primitive_rays(rng, rng.randint(1, 9), width=3)
            cones = {
                tuple(sorted(rng.sample(range(len(rays)), rng.randint(1, len(rays)))))
                for _ in range(rng.randint(1, 4))
            }
            maximal = [c for c in cones if not any(set(c) < set(d) for d in cones)]
            fans.append(Fan(lattice_rank=3, rays=rays, max_cones=tuple(maximal)))
        for fan in fans:
            assert irrelevant_components(fan) == irrelevant_components_unbounded(fan)

    def test_blowup_fan_components(self, blowup_fan_ambient):
        assert sorted(blowup_fan_ambient.irrelevant) == sorted(
            [(0, 5), (2, 4), (4, 5), (0, 1, 3), (1, 2, 3)]
        )
        # the strata used by the transform fixture are all relevant
        for c in [(1, 3), (1, 5), (3, 4)]:
            assert blowup_fan_ambient.is_relevant(c)

    def test_blowup_quotient_matches_fan(self, blowup_fan_ambient):
        quotient = load_ambient(fixture_path("ambient_blowup_p3_quotient.txt"))
        assert sorted(quotient.irrelevant) == sorted(blowup_fan_ambient.irrelevant)
        assert gradings_equivalent(quotient.grading, blowup_fan_ambient.grading)


class TestRelevantSubsets:
    def test_projective_plane(self):
        amb = ToricAmbient.from_fan(projective_fan(2))
        subsets = set(relevant_subsets(amb))
        assert (0, 1, 2) not in subsets
        assert all(len(c) <= 2 for c in subsets if c != ())
        assert (0, 1) in subsets and (0,) in subsets

    def test_product_of_lines(self):
        amb = ToricAmbient.from_fan(P1xP1)
        subsets = set(relevant_subsets(amb))
        assert (0, 1) not in subsets and (2, 3) not in subsets
        assert (0, 2) in subsets

    def test_downward_closed(self, blowup_fan_ambient):
        subsets = set(relevant_subsets(blowup_fan_ambient))
        for c in subsets:
            for drop in range(len(c)):
                assert tuple(x for i, x in enumerate(c) if i != drop) in subsets

    def test_fan_and_cone_subsets_agree(self, blowup_fan_ambient):
        fan = blowup_fan_ambient.fan
        from_cones = set()
        import itertools

        for cone in fan.max_cones:
            for size in range(len(cone) + 1):
                from_cones.update(itertools.combinations(cone, size))
        assert from_cones == set(relevant_subsets(blowup_fan_ambient))

    def test_dual8_listed_component_not_relevant(self, dual8_system):
        # the pair of variables 4 and 5 (1-based) forms an irrelevant component
        assert not dual8_system.ambient.is_relevant((3, 4))
        assert dual8_system.ambient.is_relevant((4, 5, 6, 7))


class TestStratumDimensions:
    def test_projective_three_space_hyperplane(self):
        amb = ToricAmbient.from_fan(projective_fan(3))
        assert stratum_image_dim(amb, (0,)) == 2

    def test_blowup_pair_stratum(self, blowup_system):
        w = blowup_system.degree[0]
        assert stratum_image_dim(blowup_system.ambient, (1, 5), w) == 1

    def test_fake_wps_dimension_drop(self):
        amb = make_wps([1, 2, 3, 5])
        r = amb.num_vars
        for c in [(0,), (1, 2), (0, 2, 3)]:
            assert stratum_image_dim(amb, c) == (r - len(c)) - 1

    def test_irrelevant_stratum_rejected(self):
        amb = ToricAmbient.from_fan(projective_fan(2))
        with pytest.raises(IrrelevantStratum):
            stratum_image_dim(amb, (0, 1, 2))

    def test_non_integral_degree_rejected(self):
        amb = make_wps([1, 2, 3, 5])
        assert stratum_image_dim(amb, (0,), (30.0,)) == 2
        with pytest.raises(ValueError):
            stratum_image_dim(amb, (0,), (30.5,))

    def test_irrelevant_dim_fake_wps(self):
        amb = make_wps([1, 1, 2])
        for c in [(0,), (0, 1)]:
            assert irrelevant_dim_in_stratum(amb, c) == 0

    def test_irrelevant_dim_product_of_lines(self):
        amb = ToricAmbient.from_fan(P1xP1)
        assert irrelevant_dim_in_stratum(amb, (0,)) == 2
        assert irrelevant_dim_in_stratum(amb, (0, 1)) == 2

    def test_irrelevant_subset_itself(self):
        amb = ToricAmbient.from_fan(P1xP1)
        assert irrelevant_dim_in_stratum(amb, (2, 3)) == 2


class TestHomogeneity:
    """``monomial_system`` accepts rows of one degree and rejects the rest."""

    @staticmethod
    def accepts(amb, rows):
        return monomial_system(amb, rows).exponents == tuple(map(tuple, rows))

    def test_product_fixture_rows(self, product_system):
        assert self.accepts(product_system.ambient, product_system.exponents)

    def test_different_degrees(self):
        amb = ToricAmbient.from_fan(projective_fan(2))
        with pytest.raises(NotHomogeneous):
            monomial_system(amb, [(2, 0, 0), (1, 2, 0)])

    def test_blowup_rows_under_printed_grading(self, blowup_system):
        assert self.accepts(blowup_system.ambient, blowup_system.exponents)

    def test_torsion_detects_odd_difference(self):
        grading = Grading(IntMatrix.from_rows([(1, 1)]), torsion=((2, (1, 0)),))
        amb = ToricAmbient.from_quotient(grading, [(0, 1)])
        assert self.accepts(amb, [(2, 0), (0, 2)])
        with pytest.raises(NotHomogeneous):
            monomial_system(amb, [(2, 0), (1, 1)])


class TestAmbientFormat:
    def test_roundtrip_fan(self):
        amb = load_ambient(fixture_path("ambient_p2xp1.txt"))
        again = parse_ambient_text(format_ambient(amb))
        assert again.fan.rays == amb.fan.rays
        assert again.fan.max_cones == amb.fan.max_cones

    def test_roundtrip_quotient(self):
        amb = load_ambient(fixture_path("ambient_dual8.txt"))
        again = parse_ambient_text(format_ambient(amb))
        assert again.grading.free_part.entries == amb.grading.free_part.entries
        assert again.grading.torsion == amb.grading.torsion
        assert again.irrelevant == amb.irrelevant

    def test_both_presentations_rejected(self):
        text = "[rays]\n1 0\n0 1\n-1 -1\n[cones]\n1 2\n[grading]\n1 1 1\n"
        with pytest.raises(ParseError):
            parse_ambient_text(text)

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_ambient_text("[rays]\n1 zz\n[cones]\n1\n")
        assert ":2:" in str(err.value)


class TestNonIntegralInput:
    """Entry points that used to truncate with int() now reject a fraction."""

    def test_wps_weights(self):
        # make_wps([1.7, 1, 1]) used to give weights (1, 1, 1)
        with pytest.raises(ValueError):
            make_wps([1.7, 1, 1])
        assert make_wps([2.0, 1, 1]).grading.free_part.entries == ((2, 1, 1),)

    def test_fan_rays_and_cones(self):
        with pytest.raises(ValueError):
            Fan(lattice_rank=1, rays=((1.5,), (-1,)), max_cones=((0,), (1,)))
        with pytest.raises(ValueError):
            Fan(lattice_rank=1, rays=((1,), (-1,)), max_cones=((0.5,), (1,)))

    def test_torsion_rows(self):
        free = IntMatrix.from_rows([(1, 1)])
        with pytest.raises(ValueError):
            Grading(free, torsion=((2.5, (1, 0)),))
        with pytest.raises(ValueError):
            Grading(free, torsion=((2, (1.5, 0)),))
