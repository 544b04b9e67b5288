"""Tests of the benchmark's own checks: real outputs pass, tampered ones fail.

    python3 bench/selftest.py
"""

import os
import random
import re
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _replace(report, pattern, repl, count=1):
    out, n = re.subn(pattern, repl, report, count=count, flags=re.M)
    assert n, f"pattern {pattern!r} not found"
    return out


def _drop_section(report, header):
    lines = report.splitlines()
    start = lines.index(header)
    end = next((i for i in range(start + 1, len(lines)) if lines[i].startswith("[")), len(lines))
    return "\n".join(lines[:start] + lines[end:])


class CheckTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
        cls.work = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(HERE, "_work"))
        rng = random.Random(7)
        cls.checks = workloads.build_dense_newton(rng, cls.work, count=12)
        cls.wps = workloads.build_wps_wide(rng, cls.work, mix={6: 2, 8: 1})
        cls.pairs = workloads.build_goodpair(rng, cls.work, count=8)
        cls.results = {c.name: run.run_sequence(c)[1] for c in cls.checks + cls.wps + cls.pairs}

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def assert_rejected(self, case, results, vertices=False):
        with self.assertRaises(ref.Mismatch):
            run.verify(case, results, vertices)

    def tampered(self, case, index, report):
        results = list(self.results[case.name])
        results[index] = (results[index][0], report)
        return results

    def first(self, cases, predicate):
        return next(c for c in cases if predicate(self.results[c.name]))

    def test_real_outputs_pass(self):
        for case in self.checks + self.wps + self.pairs:
            run.verify(case, self.results[case.name], True)

    def test_changed_rank_rejected(self):
        case = self.first(self.checks, lambda r: "[stratum 1]" in r[0][1])
        report = _replace(self.results[case.name][0][1], r"^rank_small = (\d+)", lambda m: f"rank_small = {int(m[1]) + 1}")
        self.assert_rejected(case, self.tampered(case, 0, report))

    def test_dropped_witness_rejected(self):
        case = self.first(self.checks, lambda r: "[stratum 1]" in r[0][1])
        report = _drop_section(self.results[case.name][0][1], "[stratum 1]")
        self.assert_rejected(case, self.tampered(case, 0, report))

    def test_changed_failure_rejected(self):
        case = next(c for c in self.checks if c.data.get("fixture") == "p4")
        report = self.results[case.name][0][1]
        self.assert_rejected(case, self.tampered(case, 0, report.replace("all_faces_empty", "no_degenerate_subcollection")))
        self.assert_rejected(case, self.tampered(case, 0, _replace(report, r"^vars = x1 x2 x3$", "vars = x1 x2 x4")))

    def test_fixture_verdict_rejected(self):
        case = next(c for c in self.checks if c.data.get("fixture") == "product")
        code, report = self.results[case.name][0]
        self.assert_rejected(case, [(1, report.replace("status = quasismooth", "status = not_quasismooth"))])

    def test_wrong_vertices_rejected(self):
        case = next(c for c in self.checks if c.data.get("fixture") == "triple_line")
        report = _replace(self.results[case.name][0][1], r"^newton_vertices = .*$", "newton_vertices = 1 2")
        self.assert_rejected(case, self.tampered(case, 0, report), vertices=True)

    def test_wps_witness_order_and_rank_rejected(self):
        case = self.wps[0]
        report = self.results[case.name][0][1]
        self.assert_rejected(case, self.tampered(case, 0, _replace(report, r"^rank_big = (\d+)", lambda m: f"rank_big = {int(m[1]) + 1}")))
        swapped = report.replace("[stratum 1]", "[stratum X]").replace("[stratum 2]", "[stratum 1]")
        lines = swapped.splitlines()
        a, b = lines.index("[stratum X]"), lines.index("[stratum 1]")
        lines[a:b + 6] = lines[b:b + 6] + lines[a:b]
        self.assert_rejected(case, self.tampered(case, 0, "\n".join(lines)))

    def test_wps_dropped_witness_rejected(self):
        case = self.wps[0]
        report = self.results[case.name][0][1]
        self.assertIn("[stratum 2]", report)
        self.assert_rejected(case, self.tampered(case, 0, _drop_section(report, "[stratum 1]")))

    def test_wps_delsarte_and_transpose_rejected(self):
        case = self.wps[0]
        delsarte = self.results[case.name][1][1]
        self.assert_rejected(case, self.tampered(case, 1, _replace(delsarte, r"\^(\d+)", lambda m: f"^{int(m[1]) + 1}")))
        transpose = self.results[case.name][2][1]
        self.assert_rejected(case, self.tampered(case, 2, _replace(transpose, r"^degree = (\d+)", lambda m: f"degree = {int(m[1]) * 2}")))

    def test_goodpair_flags_and_induced_rows_rejected(self):
        case = self.pairs[0]
        report = self.results[case.name][0][1]
        flipped = report.replace("good = true", "good = X").replace("good = false", "good = true").replace("good = X", "good = false")
        self.assert_rejected(case, self.tampered(case, 0, flipped))
        path = case.files["induced_monomials"]
        with open(path, encoding="utf-8") as fh:
            original = fh.read()
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_replace(original, r"^(\d+)", lambda m: str(int(m[1]) + 1)))
            self.assert_rejected(case, self.results[case.name])
        finally:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(original)

    def test_dualize_involution_checked(self):
        case = next(c for c in self.pairs if ref.dualizable(c.data["p1"], c.data["p2"]))
        reports = run.dualize_twice(case)
        ref.check_dualize(*reports, case.data["p1"], case.data["p2"])
        p1 = [tuple(2 * x for x in v) for v in case.data["p1"]]
        with self.assertRaises(ref.Mismatch):
            ref.check_dualize(*reports, p1, case.data["p2"])


class TraceTests(unittest.TestCase):
    def test_spans_count_the_programs_calls(self):
        work = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(HERE, "_work"))
        try:
            cases = workloads.build_dense_newton(random.Random(3), work, count=11)
            untraced = [run.run_sequence(c)[1] for c in cases]
            tr = layers.Tracer()
            with layers.traced(tr):
                traced = [run.run_sequence(c)[1] for c in cases]
        finally:
            shutil.rmtree(work, ignore_errors=True)
        self.assertEqual(traced, untraced)
        self.assertEqual(run.cli._qscheck.check_stratum_rank.__name__, "check_stratum_rank")  # restored
        strata = [ref.base_strata(c.rows, c.num_vars, c.relevant) for c in cases
                  if not any(sum(row) == 1 for row in c.rows)]
        self.assertEqual(tr.counts["linsys.strata"], sum(len(s) for s in strata))
        self.assertEqual(tr.counts["qscheck.strata_checked"], sum(len(s) for s in strata))
        self.assertLess(tr.counts["qscheck.strata_needed"], tr.counts["qscheck.strata_checked"])
        self.assertGreater(tr.counts["linsys.hull_systems"], 0)
        self.assertGreater(tr.seconds["polytope.hull"], 0.0)


class ReferenceTests(unittest.TestCase):
    def test_rank_and_hull(self):
        self.assertEqual(ref.rank([(1, 2, 3), (2, 4, 6), (0, 1, 1)]), 2)
        self.assertEqual(ref.hull_vertices([(0, 0), (2, 0), (1, 0), (0, 2), (1, 1)]), [1, 2, 4])
        self.assertTrue(ref.in_hull((1, 1), [(0, 0), (2, 0), (0, 2)]))
        self.assertFalse(ref.in_hull((2, 1), [(0, 0), (2, 0), (0, 2)]))

    def test_square_facets_and_polar(self):
        square = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        self.assertEqual(len(ref.facets(square)), 4)
        self.assertEqual(sorted(ref.polar(square)), [(-1, 0), (0, -1), (0, 1), (1, 0)])
        self.assertTrue(ref.is_canonical(square))
        self.assertEqual(len(ref.lattice_points(square)), 9)


if __name__ == "__main__":
    unittest.main()
