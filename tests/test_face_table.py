"""The face table: each face is built once per listing and shared.

``base_locus_strata`` keys every face by the part of the stratum that can
change it, and the rank test keeps the ranks of each face in a store that
lives on the listing's table.  These tests compare strata and per-stratum
results with the former row scan and the former uncached test bodies in
``tests/oracle.py``, and check that nothing is shared between listings or
between systems, and that ``both`` still ranks every face on the rank side.
"""

import random
from collections import defaultdict

import pytest

import qsmooth.qscheck as qscheck
from generators import (
    fixture_systems,
    loop_system,
    random_atomic_sum,
    random_fan_system,
    random_wps_system,
    segment_system,
    wps_weights_for,
)
from oracle import (
    check_stratum_polytope_uncached,
    check_stratum_rank_uncached,
    stratum_on_scan,
)
from qsmooth.cli import RunConfig, run
from qsmooth.errors import MethodDisagreement
from qsmooth.linalg import rank_rational
from qsmooth.linsys import (
    base_locus_strata,
    base_stratum,
    format_monomials,
    monomial_system,
)
from qsmooth.qscheck import (
    FailureReason,
    Method,
    StratumFailure,
    StratumWitness,
    check_stratum_polytope,
    check_stratum_rank,
    is_quasismooth,
)
from qsmooth.toric import format_ambient, make_wps


def _wps_sum(rng, r):
    _, rows = random_atomic_sum(rng, r, max_exp=4)
    weights, _ = wps_weights_for(rows)
    return monomial_system(make_wps(weights), rows)


def _same_as_oracle(sys_):
    """Strata and both tests' results equal the uncached oracles; returns
    (strata, witnesses of more than one face)."""
    strata = base_locus_strata(sys_)
    multi = 0
    for st in strata:
        assert st == stratum_on_scan(sys_, st.variables)
        assert base_stratum(sys_, st.variables) == st
        rank = check_stratum_rank(sys_, st)
        assert rank == check_stratum_rank_uncached(sys_, st.variables)
        assert check_stratum_polytope(sys_, st) == check_stratum_polytope_uncached(
            sys_, st.variables
        )
        multi += isinstance(rank, StratumWitness) and len(rank.gamma) > 1
    return len(strata), multi


class TestFaceTableDifferential:
    def test_fixtures(self):
        totals = [_same_as_oracle(sys_) for sys_ in fixture_systems()]
        assert sum(n for n, _ in totals) > 0
        assert sum(m for _, m in totals) > 0

    def test_criterion06_systems(self):
        rng = random.Random(60_601)
        produced = strata = multi = 0
        while produced < 1000:
            out = random_fan_system(rng)
            if out is None:
                continue
            produced += 1
            n, m = _same_as_oracle(out[2])
            strata += n
            multi += m
        assert strata > 500 and multi > 0

    def test_random_wps_systems(self):
        rng = random.Random(14_141)
        drawn = strata = 0
        while drawn < 300:
            sys_ = random_wps_system(rng, max_vars=6, max_weight=3)
            if sys_ is None:
                continue
            drawn += 1
            strata += _same_as_oracle(sys_)[0]
        assert strata > 300

    def test_wide_atomic_sums(self):
        rng = random.Random(14_142)
        for r in range(11, 17):
            for _ in range(2):
                assert _same_as_oracle(_wps_sum(rng, r))[0] > 0

    def test_loop_family(self):
        for r in range(3, 15):
            assert _same_as_oracle(loop_system(r))[0] > 0

    def test_segment_families(self):
        # the stratum of the x_i is decided only after every smaller gamma:
        # on the cycle by the whole stratum, on the path not at all
        for k in range(3, 8):
            for closed in (True, False):
                sys_ = segment_system(k, closed)
                assert _same_as_oracle(sys_)[0] > 0
                xs = tuple(range(k))
                expected = StratumWitness(xs, xs, k, k, 2 * k - 1) if closed else (
                    StratumFailure(xs, FailureReason.NO_DEGENERATE_SUBCOLLECTION)
                )
                for check in (check_stratum_rank, check_stratum_polytope):
                    assert check(sys_, base_stratum(sys_, xs)) == expected

    def test_the_lex_first_of_several_witnesses(self):
        # three parallel segments on P^4: every pair of faces is degenerate
        rows = [(1, 0, 0, 2, 0), (1, 0, 0, 0, 2), (0, 1, 0, 2, 0), (0, 1, 0, 0, 2),
                (0, 0, 1, 2, 0), (0, 0, 1, 0, 2)]
        sys_ = monomial_system(make_wps([1] * 5), rows)
        assert _same_as_oracle(sys_)[1] > 0
        for check in (check_stratum_rank, check_stratum_polytope):
            assert check(sys_, (0, 1, 2)) == StratumWitness((0, 1, 2), (0, 1), 2, 2, 3)


class TestFaceSharing:
    def test_a_face_of_several_strata_is_one_object(self):
        for sys_ in (loop_system(12), _wps_sum(random.Random(14_143), 14)):
            seen = defaultdict(set)
            for st in base_locus_strata(sys_):
                for face in st.face_supports:
                    seen[face].add(id(face))
            assert all(len(ids) == 1 for ids in seen.values())
            holders = defaultdict(int)
            for st in base_locus_strata(sys_):
                for face in st.face_supports:
                    holders[face] += 1
            assert max(holders.values()) > 1

    def test_one_table_per_listing(self):
        sys_ = loop_system(9)
        first, second = base_locus_strata(sys_), base_locus_strata(sys_)
        assert len({id(st.table) for st in first}) == 1
        assert first[0].table is not second[0].table
        standalone = base_stratum(sys_, first[-1].variables)
        assert standalone.table not in (first[0].table, second[0].table)

    def test_equality_hash_and_repr_ignore_the_table(self):
        sys_ = loop_system(7)
        for st, again in zip(base_locus_strata(sys_), base_locus_strata(sys_)):
            scanned = stratum_on_scan(sys_, st.variables)
            assert scanned.table is None
            assert st == again == scanned
            assert hash(st) == hash(again) == hash(scanned)
            assert repr(st) == repr(scanned)
            assert "table" not in repr(st)

    def test_stratum_records_are_slotted(self):
        sys_ = loop_system(5)
        st = base_locus_strata(sys_)[0]
        witness = check_stratum_rank(sys_, st)
        for record in (st, witness):
            assert not hasattr(record, "__dict__")
            with pytest.raises(AttributeError):
                record.k = 0

    def test_caches_hold_one_result_per_single_face(self, product_system, blowup_system):
        for sys_ in (product_system, blowup_system, loop_system(10)):
            strata = base_locus_strata(sys_)
            for st in strata:
                check_stratum_rank(sys_, st)
                check_stratum_polytope(sys_, st)
            table = strata[0].table
            faces = {face for st in strata for face in st.face_supports if face[1]}
            assert table.ranks and set(table.ranks) <= faces
            for (rho, rows), ranks in table.ranks.items():
                m = [sys_.exponents[i] for i in rows]
                assert ranks == (rank_rational([[row[rho]] for row in m]), rank_rational(m))


# Two systems on P^4 whose stratum {x1, x2} has the faces (0, (0, 1)) and
# (1, (2, 3)) in both, with different exponents in row 1: in the first
# the two faces are parallel segments, a degenerate pair; in the second
# they are not, and the stratum fails.
SEGMENTS = [(1, 0, 2, 0, 0), (1, 0, 0, 2, 0), (0, 1, 2, 0, 0), (0, 1, 0, 2, 0)]
SKEW = [(1, 0, 2, 0, 0), (1, 0, 0, 0, 2), (0, 1, 2, 0, 0), (0, 1, 0, 2, 0)]
# Two systems on P^5 whose stratum {x1, x2} has the four-row face
# (0, (0, 1, 2, 3)) in both: its rows span 3 dimensions in the first and
# 4 in the second.
PLANAR = [
    (1, 0, 2, 0, 0, 0), (1, 0, 0, 2, 0, 0), (1, 0, 1, 0, 1, 0), (1, 0, 0, 1, 1, 0),
    (0, 1, 2, 0, 0, 0), (0, 1, 0, 2, 0, 0),
]
SOLID = [
    (1, 0, 2, 0, 0, 0), (1, 0, 0, 2, 0, 0), (1, 0, 1, 0, 1, 0), (1, 0, 0, 0, 0, 2),
    (0, 1, 2, 0, 0, 0), (0, 1, 0, 2, 0, 0),
]

# One system on P^6 whose strata {x1, x2} and {x1, x2, x3} both have the
# gamma {x1, x2}, with other faces: x3 cuts the rows x1*x3*x6 and x2*x3*x7
# out of the second stratum's faces, which leaves two parallel segments.
NESTED = [
    (1, 0, 0, 2, 0, 0, 0), (1, 0, 0, 0, 2, 0, 0), (1, 0, 1, 0, 0, 1, 0),
    (0, 1, 0, 2, 0, 0, 0), (0, 1, 0, 0, 2, 0, 0), (0, 1, 1, 0, 0, 0, 1),
]


def _pair(rows_a, rows_b):
    r = len(rows_a[0])
    return [monomial_system(make_wps([1] * r), rows) for rows in (rows_a, rows_b)]


class TestCacheScoping:
    def _alternate(self, systems, method):
        listings = [base_locus_strata(sys_) for sys_ in systems]
        check = check_stratum_rank if method == "rank" else check_stratum_polytope
        oracle = check_stratum_rank_uncached if method == "rank" else check_stratum_polytope_uncached
        got = {}
        for n in range(max(len(strata) for strata in listings)):
            for which, (sys_, strata) in enumerate(zip(systems, listings)):
                if n < len(strata):
                    res = check(sys_, strata[n])
                    assert res == oracle(sys_, strata[n].variables)
                    got[which, strata[n].variables] = res
        return listings, got

    def test_pairs_share_faces_with_different_exponents(self):
        for rows_a, rows_b, face in ((SEGMENTS, SKEW, (0, (0, 1))), (PLANAR, SOLID, (0, (0, 1, 2, 3)))):
            a, b = _pair(rows_a, rows_b)
            assert a.vertex_rows == b.vertex_rows == tuple(range(len(rows_a)))
            st_a, st_b = (base_stratum(s, (0, 1)) for s in (a, b))
            assert face in st_a.face_supports and face in st_b.face_supports
            assert [a.exponents[i] for i in face[1]] != [b.exponents[i] for i in face[1]]

    def test_alternating_systems_get_their_own_points(self):
        systems = _pair(SEGMENTS, SKEW)
        _, got = self._alternate(systems, "polytope")
        assert got[0, (0, 1)] == StratumWitness((0, 1), (0, 1), 2, 2, 3)
        assert not isinstance(got[1, (0, 1)], StratumWitness)

    def test_alternating_systems_get_their_own_ranks(self):
        systems = _pair(PLANAR, SOLID)
        listings, _ = self._alternate(systems, "rank")
        face = (0, (0, 1, 2, 3))
        spans = [strata[0].table.ranks[face] for strata in listings]
        assert spans == [(1, 3), (1, 4)]

    def test_a_gamma_is_decided_on_each_strata_own_faces(self):
        sys_ = monomial_system(make_wps([1] * 7), NESTED)
        for method in ("rank", "polytope"):
            _, got = self._alternate([sys_], method)
            assert got[0, (0, 1)] == check_stratum_rank_uncached(sys_, (0, 1))
            assert not isinstance(got[0, (0, 1)], StratumWitness)
            assert got[0, (0, 1, 2)] == StratumWitness((0, 1, 2), (0, 1), 2, 2, 3)

    def test_a_second_run_on_the_same_files_recomputes(self, tmp_path):
        ambient, monomials = tmp_path / "ambient.txt", tmp_path / "monomials.txt"
        ambient.write_text(format_ambient(make_wps([1] * 5)), encoding="utf-8")
        reports = []
        for rows in (SEGMENTS, SKEW, SEGMENTS):
            monomials.write_text(format_monomials(rows), encoding="utf-8")
            cfg = RunConfig("check", str(ambient), str(monomials), method="polytope",
                            output="machine", witness=True)
            reports.append(run(cfg))
        # {x1, x2} passes in the first system and is the first failure in
        # the second; points kept from the other run would swap that
        assert reports[0] == reports[2] != reports[1]
        assert "[failing_stratum]\nvars = x3 x4\nreason = all_faces_empty" in reports[0][1]
        assert "[failing_stratum]\nvars = x1 x2\nreason = no_degenerate_subcollection" in reports[1][1]


class TestBothStillCrossChecks:
    def test_a_wrong_single_face_rank_is_a_disagreement(self, monkeypatch):
        # every witness of an atomic sum is a single face, found from the
        # rank side's own per-face store
        sys_ = _wps_sum(random.Random(14_144), 8)
        verdict = is_quasismooth(sys_, Method.BOTH)
        assert verdict.quasismooth and all(len(w.gamma) == 1 for w in verdict.witnesses)
        ranks = qscheck._gamma_ranks

        def skewed(sys_, rows, gamma):
            small, big = ranks(sys_, rows, gamma)
            return small, big + 1

        monkeypatch.setattr(qscheck, "_gamma_ranks", skewed)
        with pytest.raises(MethodDisagreement):
            is_quasismooth(sys_, Method.BOTH)
