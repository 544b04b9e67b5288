import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qsmooth
from conftest import fixture_path
from qsmooth.cli import config_from_args, main, run


def run_cli(argv):
    return run(config_from_args(argv))


def check_args(ambient, monomials, *extra):
    return [
        "check",
        "--ambient",
        fixture_path(ambient),
        "--monomials",
        fixture_path(monomials),
        *extra,
    ]


class TestCheckCommand:
    def test_quasismooth_fixture_exits_zero(self):
        code, report = run_cli(
            check_args(
                "ambient_p2xp1.txt",
                "monomials_p2xp1_deg32.txt",
                "--output",
                "machine",
                "--witness",
            )
        )
        assert code == 0
        assert "status = quasismooth" in report
        lines = report.splitlines()
        first = lines.index("[stratum 1]")
        block = lines[first : first + 6]
        assert "vars = x2 x3" in block
        assert "gamma = x2 x3" in block
        assert "rank_small = 2" in block
        assert "rank_big = 3" in block

    def test_not_quasismooth_fixture_exits_one(self):
        code, report = run_cli(
            check_args(
                "ambient_p1p1p1.txt",
                "monomials_p1p1p1_deg222.txt",
                "--output",
                "machine",
            )
        )
        assert code == 1
        assert "status = not_quasismooth" in report
        assert "vars = x2 x4" in report
        assert "reason = no_degenerate_subcollection" in report

    def test_triple_point_failure_reported(self):
        code, report = run_cli(
            check_args("ambient_p4.txt", "monomials_p4_triple_point.txt")
        )
        assert code == 1
        assert "x1 x2 x3" in report
        assert "all_faces_empty" in report

    def test_method_flag(self):
        for method in ("rank", "polytope", "both"):
            code, report = run_cli(
                check_args(
                    "ambient_p2xp1.txt",
                    "monomials_p2xp1_deg32.txt",
                    "--method",
                    method,
                )
            )
            assert code == 0

    def test_machine_output_is_byte_stable(self):
        args = check_args(
            "ambient_blowup_p3_quotient.txt",
            "monomials_blowup_p3.txt",
            "--output",
            "machine",
            "--witness",
        )
        first = run_cli(args)
        second = run_cli(args)
        assert first == second

    def test_missing_file_exits_two(self):
        code, report = run_cli(check_args("ambient_p2xp1.txt", "no_such_file.txt"))
        assert code == 2


class TestUnreadableFiles:
    """A file that cannot be read or written is an input error that names it."""

    @staticmethod
    def assert_input_error(argv, path):
        for output in ("text", "machine"):
            code, report = run_cli([*argv, "--output", output])
            assert code == 2
            assert str(path) in report
            assert "internal error" not in report
            assert ("[error]" in report) == (output == "machine")

    def test_missing_ambient(self, tmp_path):
        path = tmp_path / "no_such_dir" / "a.txt"
        monomials = fixture_path("monomials_p2xp1_deg32.txt")
        self.assert_input_error(["check", "--ambient", str(path), "--monomials", monomials], path)

    def test_missing_monomials(self, tmp_path):
        path = tmp_path / "missing.txt"
        self.assert_input_error(check_args("ambient_p2xp1.txt", str(path)), path)

    def test_directory_as_ambient(self, tmp_path):
        monomials = fixture_path("monomials_p2xp1_deg32.txt")
        argv = ["strata", "--ambient", str(tmp_path), "--monomials", monomials]
        self.assert_input_error(argv, tmp_path)

    def test_undecodable_bytes(self, tmp_path):
        path = tmp_path / "mono.txt"
        path.write_bytes(b"2 1 0 \xff\xfe 0\n")
        self.assert_input_error(check_args("ambient_p2xp1.txt", str(path)), path)
        p2 = fixture_path("poly_anticanonical_p2xp1.txt")
        self.assert_input_error(["goodpair", "--p1", str(path), "--p2", p2], path)

    def test_unwritable_output(self, tmp_path):
        pair = [
            "--p1",
            fixture_path("poly_newton_deg32.txt"),
            "--p2",
            fixture_path("poly_anticanonical_p2xp1.txt"),
        ]
        path = tmp_path / "no_such_dir" / "amb.txt"
        self.assert_input_error(["induce", *pair, "--out-ambient", str(path)], path)
        self.assert_input_error(["induce", *pair, "--out-monomials", str(tmp_path)], tmp_path)


class TestValidateCommand:
    def test_valid_inputs(self):
        code, _ = run_cli(
            [
                "validate",
                "--ambient",
                fixture_path("ambient_p2xp1.txt"),
                "--monomials",
                fixture_path("monomials_p2xp1_deg32.txt"),
            ]
        )
        assert code == 0

    def test_inhomogeneous_exits_two_with_diagnostic(self):
        code, report = run_cli(
            [
                "validate",
                "--ambient",
                fixture_path("ambient_p4.txt"),
                "--monomials",
                fixture_path("monomials_nonhomog.txt"),
            ]
        )
        assert code == 2
        assert "monomials 1 and 2" in report
        assert "difference" in report or "differ" in report


class TestWitnessFlag:
    def test_only_check_accepts_witness(self, capsys):
        system = ["--ambient", fixture_path("ambient_p2xp1.txt"),
                  "--monomials", fixture_path("monomials_p2xp1_deg32.txt")]
        pair = ["--p1", fixture_path("poly_newton_deg32.txt"),
                "--p2", fixture_path("poly_anticanonical_p2xp1.txt")]
        assert config_from_args(["check", *system, "--witness"]).witness
        for command, args in (
            ("strata", system), ("validate", system), ("delsarte", system),
            ("transpose", system), ("goodpair", pair), ("dualize", pair), ("induce", pair),
        ):
            assert not config_from_args([command, *args]).witness
            with pytest.raises(SystemExit) as exc:
                config_from_args([command, *args, "--witness"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --witness" in capsys.readouterr().err


class TestStrataCommand:
    def test_lists_strata(self):
        code, report = run_cli(
            [
                "strata",
                "--ambient",
                fixture_path("ambient_p2xp1.txt"),
                "--monomials",
                fixture_path("monomials_p2xp1_deg32.txt"),
                "--output",
                "machine",
            ]
        )
        assert code == 0
        assert "count = 3" in report
        assert "vars = x2 x3" in report


class TestDelsarteCommands:
    def setup_method(self):
        import pathlib
        import tempfile

        self.tmp = tempfile.mkdtemp()
        amb = pathlib.Path(self.tmp, "wps.txt")
        amb.write_text("[grading]\n1 1 1\n[irrelevant]\n1 2 3\n", encoding="utf-8")
        mono = pathlib.Path(self.tmp, "loop.txt")
        mono.write_text("x1^2*x2\nx2^2*x3\nx3^2*x1\n", encoding="utf-8")
        self.amb = str(amb)
        self.mono = str(mono)

    def test_delsarte_decomposes_loop(self):
        code, report = run_cli(
            ["delsarte", "--ambient", self.amb, "--monomials", self.mono,
             "--output", "machine"]
        )
        assert code == 0
        assert "decomposition = loop(x1^2->x2^2->x3^2->x1)" in report

    def test_transpose_roundtrip_weights(self):
        code, report = run_cli(
            ["transpose", "--ambient", self.amb, "--monomials", self.mono,
             "--output", "machine"]
        )
        assert code == 0
        assert "weights = 1 1 1" in report
        assert "degree = 3" in report

    def test_non_decomposable_exits_one(self):
        import pathlib

        bad = pathlib.Path(self.tmp, "bad.txt")
        bad.write_text("x1^2*x2^2\nx2^2*x3^2\nx3^2*x1^2\n", encoding="utf-8")
        code, report = run_cli(
            ["delsarte", "--ambient", self.amb, "--monomials", str(bad)]
        )
        assert code == 1


class TestPolytopeCommands:
    def test_goodpair(self):
        code, report = run_cli(
            [
                "goodpair",
                "--p1",
                fixture_path("poly_newton_deg32.txt"),
                "--p2",
                fixture_path("poly_anticanonical_p2xp1.txt"),
                "--output",
                "machine",
            ]
        )
        assert code == 0
        assert "good = true" in report

    def test_goodpair_rational_first_polytope_is_an_input_error(self, tmp_path):
        p1 = tmp_path / "p1.txt"
        p2 = tmp_path / "p2.txt"
        p1.write_text("1/2 0\n0 1\n-1 -1\n", encoding="utf-8")
        p2.write_text("2 0\n0 2\n-2 -2\n", encoding="utf-8")
        code, report = run_cli(["goodpair", "--p1", str(p1), "--p2", str(p2)])
        assert code == 2
        assert report == "error: canonicality is defined for lattice polytopes"
        code, report = run_cli(
            ["goodpair", "--p1", str(p1), "--p2", str(p2), "--output", "machine"]
        )
        assert code == 2
        assert "[error]" in report and "internal error" not in report

    def test_huge_lattice_point_box_is_an_input_error(self, tmp_path):
        # the box of this simplex holds about 10^18 integer points
        simplex = tmp_path / "simplex.txt"
        simplex.write_text("-1 -1 -1\n1000000 0 0\n0 1000000 0\n0 0 1000000\n", encoding="utf-8")
        for command in ("goodpair", "induce"):
            for output in ("text", "machine"):
                start = time.perf_counter()
                code, report = run_cli(
                    [command, "--p1", str(simplex), "--p2", str(simplex), "--output", output]
                )
                assert time.perf_counter() - start < 1.0
                assert code == 2
                assert "box with 1000006000012000008 points exceeds the limit" in report
                assert ("[error]" in report) == (output == "machine")

    def test_polytopes_in_different_lattices_are_an_input_error(self, tmp_path):
        triangle = tmp_path / "triangle.txt"
        simplex = tmp_path / "simplex.txt"
        triangle.write_text("1 0\n0 1\n-1 -1\n", encoding="utf-8")
        simplex.write_text("1 0 0\n0 1 0\n0 0 1\n-1 -1 -1\n", encoding="utf-8")
        message = "polytopes live in different ambient lattices"
        for command in ("goodpair", "dualize", "induce"):
            pair = [command, "--p1", str(triangle), "--p2", str(simplex)]
            assert run_cli(pair) == (2, f"error: {message}")
            assert run_cli(pair + ["--output", "machine"]) == (2, f"[error]\nmessage = {message}")

    def test_dualize_emits_two_polytopes(self):
        code, report = run_cli(
            [
                "dualize",
                "--p1",
                fixture_path("poly_newton_deg32.txt"),
                "--p2",
                fixture_path("poly_anticanonical_p2xp1.txt"),
            ]
        )
        assert code == 0
        assert report.count("# dual pair") == 2

    def test_induce_writes_files(self, tmp_path):
        out_amb = tmp_path / "amb.txt"
        out_mono = tmp_path / "mono.txt"
        code, report = run_cli(
            [
                "induce",
                "--p1",
                fixture_path("poly_newton_deg32.txt"),
                "--p2",
                fixture_path("poly_anticanonical_p2xp1.txt"),
                "--out-ambient",
                str(out_amb),
                "--out-monomials",
                str(out_mono),
            ]
        )
        assert code == 0
        from qsmooth.linsys import load_system

        sys_ = load_system(str(out_amb), str(out_mono))
        assert sys_.num_monomials == 27

        from qsmooth.qscheck import is_quasismooth

        assert is_quasismooth(sys_).quasismooth

    def test_induce_from_a_segment(self, tmp_path):
        # P1 is lower-dimensional, so its lattice points come from the
        # fibre scan's equation bounds
        segment = tmp_path / "segment.txt"
        triangle = tmp_path / "triangle.txt"
        segment.write_text("0 0\n1 0\n", encoding="utf-8")
        triangle.write_text("1 0\n0 1\n-1 -1\n", encoding="utf-8")
        code, report = run_cli(["induce", "--p1", str(segment), "--p2", str(triangle)])
        assert code == 0
        assert report.split("# induced monomials\n")[1] == "1 1 1\n0 0 3"

    def test_induce_roundtrip_through_check(self, tmp_path):
        out_amb = tmp_path / "amb.txt"
        out_mono = tmp_path / "mono.txt"
        run_cli(
            [
                "induce",
                "--p1",
                fixture_path("poly_newton_deg32.txt"),
                "--p2",
                fixture_path("poly_anticanonical_p2xp1.txt"),
                "--out-ambient",
                str(out_amb),
                "--out-monomials",
                str(out_mono),
            ]
        )
        code, report = run_cli(
            ["check", "--ambient", str(out_amb), "--monomials", str(out_mono)]
        )
        assert code == 0


class TestMainEntry:
    def test_main_exits_with_verdict_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(check_args("ambient_p2xp1.txt", "monomials_p2xp1_deg32.txt"))
        assert exc.value.code == 0
        assert "quasismooth" in capsys.readouterr().out

    @pytest.mark.parametrize("module", ["qsmooth", "qsmooth.cli"])
    def test_python_dash_m_prints_the_verdict_and_exits_with_its_code(self, module):
        src = str(Path(qsmooth.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        args = check_args("ambient_p4.txt", "monomials_p4_triple_point.txt")
        done = subprocess.run(
            [sys.executable, "-m", module, *args],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert done.returncode == 1
        assert "verdict: NOT quasismooth (method both)" in done.stdout
        assert "failing stratum {x1 x2 x3}" in done.stdout
