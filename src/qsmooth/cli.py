"""Command-line front end.

Exit codes: 0 for quasismooth / decomposable / good pair / success, 1 for
the corresponding negative verdicts, 2 for input or internal errors
(including a method disagreement).  Machine output is line-oriented
``key = value`` inside ``[section]`` blocks and is byte-stable across runs.
"""

from __future__ import annotations

import argparse
import sys as _sys
from dataclasses import dataclass, field, replace

from . import delsarte as _delsarte
from . import duality as _duality
from . import linsys as _linsys
from . import polytope as _poly
from . import qscheck as _qscheck
from . import toric as _toric
from .errors import QsmoothError

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


@dataclass
class RunConfig:
    command: str
    ambient_path: str | None = None
    monomials_path: str | None = None
    p1_path: str | None = None
    p2_path: str | None = None
    method: str = "both"
    output: str = "text"
    witness: bool = False
    out_ambient: str | None = None
    out_monomials: str | None = None
    lines: list[str] = field(default_factory=list)

    def emit(self, text: str = "") -> None:
        self.lines.append(text)

    def report(self) -> str:
        return "\n".join(self.lines)


def _load_system(cfg: RunConfig) -> _linsys.MonomialSystem:
    if not cfg.ambient_path or not cfg.monomials_path:
        raise QsmoothError("this command needs --ambient and --monomials")
    return _linsys.load_system(cfg.ambient_path, cfg.monomials_path)


def _var_names(indices) -> str:
    return " ".join(f"x{i + 1}" for i in indices)


def _system_header(cfg: RunConfig, sys_: _linsys.MonomialSystem) -> None:
    free, tors = sys_.degree
    if cfg.output == "machine":
        cfg.emit("[system]")
        cfg.emit(f"variables = {sys_.num_vars}")
        cfg.emit(f"monomials = {sys_.num_monomials}")
        cfg.emit("degree_free = " + " ".join(str(x) for x in free))
        if tors:
            cfg.emit("degree_torsion = " + " ".join(str(x) for x in tors))
        cfg.emit(
            "newton_vertices = " + " ".join(str(i + 1) for i in sys_.vertex_rows)
        )
    else:
        cfg.emit(
            f"system: {sys_.num_monomials} monomials in {sys_.num_vars} variables, "
            f"degree {tuple(free)}"
            + (f" torsion {tuple(tors)}" if tors else "")
        )


def _emit_verdict(cfg: RunConfig, sys_, verdict: _qscheck.QSVerdict) -> int:
    if cfg.output == "machine":
        shown = verdict if cfg.witness else replace(verdict, witnesses=())
        cfg.lines += _qscheck.certificate_lines(shown)
    else:
        status = "quasismooth" if verdict.quasismooth else "NOT quasismooth"
        cfg.emit(f"verdict: {status} (method {verdict.method.value})")
        if verdict.shortcut:
            cfg.emit(f"decided early: {verdict.shortcut}")
        if verdict.failure is not None:
            f = verdict.failure
            cfg.emit(
                f"failing stratum {{{_var_names(f.stratum)}}}: {f.reason.value}"
            )
        if cfg.witness:
            for w in verdict.witnesses:
                cfg.emit(
                    f"stratum {{{_var_names(w.stratum)}}}: gamma {{{_var_names(w.gamma)}}} "
                    f"k={w.k} ranks {w.rank_small}/{w.rank_big}"
                )
    return EXIT_OK if verdict.quasismooth else EXIT_NEGATIVE


def _cmd_check(cfg: RunConfig) -> int:
    sys_ = _load_system(cfg)
    _system_header(cfg, sys_)
    verdict = _qscheck.is_quasismooth(sys_, cfg.method)
    return _emit_verdict(cfg, sys_, verdict)


def _cmd_strata(cfg: RunConfig) -> int:
    sys_ = _load_system(cfg)
    _system_header(cfg, sys_)
    strata = _linsys.base_locus_strata(sys_)
    if cfg.output == "machine":
        cfg.emit("[strata]")
        cfg.emit(f"count = {len(strata)}")
        for idx, st in enumerate(strata, start=1):
            cfg.emit(f"[stratum {idx}]")
            cfg.emit(f"vars = {_var_names(st.variables)}")
            cfg.emit(f"k = {st.k}")
            for rho, rows in st.face_supports:
                cfg.emit(
                    f"support_x{rho + 1} = "
                    + " ".join(str(i + 1) for i in rows)
                )
    else:
        cfg.emit(f"base locus: {len(strata)} strata")
        for st in strata:
            cfg.emit(f"  {{{_var_names(st.variables)}}}: k={st.k}")
    return EXIT_OK


def _cmd_validate(cfg: RunConfig) -> int:
    sys_ = _load_system(cfg)
    _system_header(cfg, sys_)
    cfg.emit("valid = true" if cfg.output == "machine" else "inputs are valid")
    return EXIT_OK


def _wps_data(cfg: RunConfig):
    sys_ = _load_system(cfg)
    if not sys_.ambient.is_fake_wps():
        raise QsmoothError("ambient is not a (fake) weighted projective space")
    weights = sys_.ambient.grading.free_part.entries[0]
    degree = sys_.degree[0][0]
    if weights[0] < 0:
        # a fan's class group row may come out negated; the weights of a
        # fake weighted projective space all have one sign
        weights, degree = tuple(-w for w in weights), -degree
    return sys_, weights, degree


def _cmd_delsarte(cfg: RunConfig) -> int:
    sys_, weights, degree = _wps_data(cfg)
    dec = _delsarte.classify_atomic(sys_.exponents, weights)
    if cfg.output == "machine":
        cfg.emit("[delsarte]")
        cfg.emit(f"decomposable = {'true' if dec else 'false'}")
        if dec:
            cfg.emit(f"decomposition = {_delsarte.format_decomposition(dec)}")
            cfg.emit(
                "row_permutation = "
                + " ".join(str(i + 1) for i in dec.row_permutation)
            )
    else:
        if dec:
            cfg.emit(f"decomposition: {_delsarte.format_decomposition(dec)}")
        else:
            cfg.emit("not decomposable into atomic types")
    return EXIT_OK if dec else EXIT_NEGATIVE


def _cmd_transpose(cfg: RunConfig) -> int:
    sys_, weights, degree = _wps_data(cfg)
    dual = _delsarte.transpose_dual(sys_.exponents, weights, degree)
    if cfg.output == "machine":
        cfg.emit("[transpose]")
        cfg.emit("weights = " + " ".join(str(w) for w in dual.weights))
        cfg.emit(f"degree = {dual.degree}")
        for row in dual.rows:
            cfg.emit("monomial = " + " ".join(str(x) for x in row))
    else:
        cfg.emit(f"dual weights {dual.weights}, degree {dual.degree}")
        for row in dual.rows:
            cfg.emit("  " + " ".join(str(x) for x in row))
    return EXIT_OK


def _load_pair(cfg: RunConfig):
    if not cfg.p1_path or not cfg.p2_path:
        raise QsmoothError("this command needs --p1 and --p2")
    return _poly.load_polytope(cfg.p1_path), _poly.load_polytope(cfg.p2_path)


def _cmd_goodpair(cfg: RunConfig) -> int:
    p1, p2 = _load_pair(cfg)
    gp = _duality.good_pair_check(p1, p2)
    if cfg.output == "machine":
        cfg.emit("[goodpair]")
        cfg.emit(f"contains = {str(gp.contains).lower()}")
        cfg.emit(f"p1_canonical = {str(gp.p1_canonical).lower()}")
        cfg.emit(f"p2star_canonical = {str(gp.p2star_canonical).lower()}")
        cfg.emit(f"p2star_integral = {str(gp.p2star_integral).lower()}")
        cfg.emit(f"good = {str(gp.is_good).lower()}")
    else:
        cfg.emit(
            f"containment {gp.contains}, first canonical {gp.p1_canonical}, "
            f"polar canonical {gp.p2star_canonical}"
            + ("" if gp.p2star_integral else " (polar not integral)")
        )
        cfg.emit("good pair" if gp.is_good else "NOT a good pair")
    return EXIT_OK if gp.is_good else EXIT_NEGATIVE


def _cmd_dualize(cfg: RunConfig) -> int:
    p1, p2 = _load_pair(cfg)
    q1, q2 = _duality.dual_pair(p1, p2)
    cfg.emit("# dual pair, first polytope")
    cfg.emit(_poly.format_polytope(q1).rstrip("\n"))
    cfg.emit("# dual pair, second polytope")
    cfg.emit(_poly.format_polytope(q2).rstrip("\n"))
    return EXIT_OK


def _write_output(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise QsmoothError(f"{path}: cannot write: {exc.strerror or exc}") from exc


def _cmd_induce(cfg: RunConfig) -> int:
    p1, p2 = _load_pair(cfg)
    induced = _duality.induced_system(p1, p2)
    ambient_text = _toric.format_ambient(induced.ambient)
    monomials_text = _linsys.format_monomials(induced.system.exponents)
    if cfg.out_ambient:
        _write_output(cfg.out_ambient, ambient_text)
        cfg.emit(f"wrote ambient to {cfg.out_ambient}")
    else:
        cfg.emit("# induced ambient")
        cfg.emit(ambient_text.rstrip("\n"))
    if cfg.out_monomials:
        _write_output(cfg.out_monomials, monomials_text)
        cfg.emit(f"wrote monomials to {cfg.out_monomials}")
    else:
        cfg.emit("# induced monomials")
        cfg.emit(monomials_text.rstrip("\n"))
    return EXIT_OK


_COMMANDS = {
    "check": _cmd_check,
    "strata": _cmd_strata,
    "validate": _cmd_validate,
    "delsarte": _cmd_delsarte,
    "transpose": _cmd_transpose,
    "goodpair": _cmd_goodpair,
    "dualize": _cmd_dualize,
    "induce": _cmd_induce,
}


def run(cfg: RunConfig) -> tuple[int, str]:
    """Execute a command; returns (exit code, report text)."""
    try:
        code = _COMMANDS[cfg.command](cfg)
    except QsmoothError as exc:
        if cfg.output == "machine":
            cfg.emit("[error]")
            cfg.emit(f"message = {exc}")
        else:
            cfg.emit(f"error: {exc}")
        return EXIT_ERROR, cfg.report()
    except Exception as exc:  # internal error: still map to exit code 2
        cfg.emit(f"internal error: {exc!r}")
        return EXIT_ERROR, cfg.report()
    return code, cfg.report()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsmooth",
        description="Combinatorial quasismoothness checker for monomial systems "
        "on toric varieties",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_, system=False, pair=False, method=False):
        p = sub.add_parser(name, help=help_)
        if system:
            p.add_argument("--ambient", required=True, help="ambient description file")
            p.add_argument("--monomials", required=True, help="monomial basis file")
        if pair:
            p.add_argument("--p1", required=True, help="first polytope file")
            p.add_argument("--p2", required=True, help="second polytope file")
        if method:
            p.add_argument(
                "--method",
                choices=["rank", "polytope", "both"],
                default="both",
                help="decision procedure (default: both, cross-checked)",
            )
        p.add_argument(
            "--output", choices=["text", "machine"], default="text",
            help="report format",
        )
        return p

    check = add("check", "decide quasismoothness", system=True, method=True)
    check.add_argument(
        "--witness", action="store_true",
        help="include per-stratum certificates in the report",
    )
    add("strata", "list base-locus strata", system=True)
    add("validate", "parse and validate inputs", system=True)
    add("delsarte", "classify a square system into atomic types", system=True)
    add("transpose", "transpose a square system onto the dual weights", system=True)
    add("goodpair", "check the good-pair conditions", pair=True)
    add("dualize", "emit the dual pair of polytopes", pair=True)
    induce = add("induce", "emit the induced ambient and monomials", pair=True)
    induce.add_argument("--out-ambient", help="write the ambient file here")
    induce.add_argument("--out-monomials", help="write the monomial file here")
    return parser


def config_from_args(argv) -> RunConfig:
    args = build_parser().parse_args(argv)
    return RunConfig(
        command=args.command,
        ambient_path=getattr(args, "ambient", None),
        monomials_path=getattr(args, "monomials", None),
        p1_path=getattr(args, "p1", None),
        p2_path=getattr(args, "p2", None),
        method=getattr(args, "method", "both"),
        output=args.output,
        witness=getattr(args, "witness", False),
        out_ambient=getattr(args, "out_ambient", None),
        out_monomials=getattr(args, "out_monomials", None),
    )


def main(argv=None) -> None:
    cfg = config_from_args(argv if argv is not None else _sys.argv[1:])
    code, report = run(cfg)
    if report:
        print(report)
    _sys.exit(code)


if __name__ == "__main__":
    main()
