"""Quasismoothness decision procedures with combinatorial certificates.

Two independent per-stratum tests are implemented and can be cross-run:

* the rank test, which looks for a nonempty subset gamma of the stratum
  with ``2 rk(A_{M_gamma, gamma}) > rk(A_{M_gamma, all})``;
* the polytope test, which looks for a subcollection of nonempty face
  polytopes that fits, after translation, into a subspace of dimension
  strictly below its size.

Both try the single faces first and then share one search over gammas of
several faces, by increasing size and then lexicographically, so
certificates are deterministic and diffable.  A disagreement between the
two is raised as an error, never resolved silently.

A single-face gamma depends on its face alone, and the strata of one
listing share their faces (``linsys.FaceTable``).  So the rank test keeps
the two ranks of each face on the listing's table.  The polytope test
needs no store: a face spans no dimension after translation exactly when
it has one row.  Under ``both`` the rank side still ranks every face
itself, and whole results are compared.  A gamma of several faces is
ranked on its own, per stratum.

Strata are quantified over relevant zero patterns; on non-simplicial fans
this is a conservative superset of the per-cone strata.  The closed-form
checkers for curves on surfaces and surfaces on simplicial threefolds, and
``delsarte.wps_check``, decide each stratum by counting its faces, with
no rank or span computation; all three read the faces of the
``BaseStratum`` and share one loop over the strata.  Since they read the
same faces as the generic tests, they are checked against the former row
scans kept in ``tests/oracle.py``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence

from . import linsys as _linsys
from . import toric as _toric
from .errors import (
    DimensionMismatch,
    MethodDisagreement,
)
from .linalg import Echelon, vector_sub


class Method(str, Enum):
    RANK = "rank"
    POLYTOPE = "polytope"
    BOTH = "both"
    WPS = "wps"
    CURVE = "curve"
    SURFACE = "surface"


class FailureReason(str, Enum):
    ALL_FACES_EMPTY = "all_faces_empty"
    NO_DEGENERATE_SUBCOLLECTION = "no_degenerate_subcollection"


@dataclass(frozen=True, slots=True)
class StratumWitness:
    """Certificate that a stratum passes: gamma with 2*rank_small > rank_big."""

    stratum: tuple[int, ...]
    gamma: tuple[int, ...]
    k: int
    rank_small: int
    rank_big: int


@dataclass(frozen=True)
class StratumFailure:
    stratum: tuple[int, ...]
    reason: FailureReason


@dataclass(frozen=True)
class QSVerdict:
    """Outcome of a quasismoothness check.

    ``witnesses`` carries one entry per base stratum for the generic
    methods; the specialized closed-form checkers leave it empty.
    ``shortcut`` records an unconditional early verdict, if any.
    """

    quasismooth: bool
    method: Method
    witnesses: tuple[StratumWitness, ...] = ()
    failure: StratumFailure | None = None
    shortcut: str | None = None


def _gamma_ranks(sys: _linsys.MonomialSystem, rows: Sequence[int], gamma: Sequence[int]):
    """Ranks of the rows of ``M_gamma`` on the gamma columns and on all columns."""
    small, big = Echelon(len(gamma)), Echelon(sys.num_vars)
    for i in rows:
        row = sys.exponents[i]
        small.add([row[j] for j in gamma])
        big.add(row)
    return small.rank, big.rank


def _first_degenerate(cs, faces, ranks) -> StratumWitness | StratumFailure:
    """The first gamma of two or more ``faces`` (nonempty, as ``(rho, data)``
    pairs in variable order) in (size, lex) order whose ``(small, big) =
    ranks(gamma)`` has ``2 * small > big``: the one search of both tests."""
    for size in range(2, len(faces) + 1):
        for gamma in itertools.combinations(faces, size):
            small, big = ranks(gamma)
            if 2 * small > big:
                return StratumWitness(cs, tuple(rho for rho, _ in gamma), size, small, big)
    return StratumFailure(cs, FailureReason.NO_DEGENERATE_SUBCOLLECTION)


def check_stratum_rank(
    sys: _linsys.MonomialSystem, c: Iterable[int]
) -> StratumWitness | StratumFailure:
    """Rank test for one stratum.

    ``c`` is a ``BaseStratum`` or an iterable of variables (validated).
    The ranks of a single-face gamma depend on the face alone, so they
    are computed once per face of the listing and shared by every stratum
    that has that face.  A gamma of several faces ranks ``M_gamma``, the
    sorted union of its faces' rows.
    """
    st = _linsys.base_stratum(sys, c)
    cs = st.variables
    stored = st.table.ranks if st.table is not None else {}
    for face in st.face_supports:
        if not face[1]:
            continue
        got = stored.get(face)
        if got is None:
            rho, rows = face
            got = stored[face] = _gamma_ranks(sys, rows, (rho,))
        small, big = got
        if 2 * small > big:
            return StratumWitness(cs, (face[0],), 1, small, big)
    faces = [face for face in st.face_supports if face[1]]
    if not faces:
        return StratumFailure(cs, FailureReason.ALL_FACES_EMPTY)

    def ranks(gamma):
        rows = sorted(i for _, face_rows in gamma for i in face_rows)
        return _gamma_ranks(sys, rows, [rho for rho, _ in gamma])

    return _first_degenerate(cs, faces, ranks)


def check_stratum_polytope(
    sys: _linsys.MonomialSystem, c: Iterable[int]
) -> StratumWitness | StratumFailure:
    """Degeneracy test for one stratum.

    A subcollection gamma of nonempty face polytopes is degenerate when the
    union of their translates through the origin spans fewer than ``|gamma|``
    dimensions.  Every translate contains the origin, the image of its
    base point, so that span is the rank of the other translated points.
    Base points are the lexicographically smallest supporting rows; the
    span dimension does not depend on that choice.  ``c`` is a
    ``BaseStratum`` or an iterable of variables (validated).  A face's rows
    are distinct, so it is degenerate on its own exactly when it has one
    row; the translated points are built only when no face is.

    The witness ranks need no elimination of their own.  A row of
    ``M_gamma`` that supports the face rho is the unit vector e_rho on C.
    On the gamma columns every face of gamma contributes e_rho, so
    ``rank_small = |gamma|``; the base rows stay independent on C while
    every translate vanishes there, so ``rank_big = |gamma| + span``.
    """
    st = _linsys.base_stratum(sys, c)
    cs = st.variables
    for rho, rows in st.face_supports:
        if len(rows) == 1:
            return StratumWitness(cs, (rho,), 1, 1, 1)
    faces = []
    for rho, rows in st.face_supports:
        if rows:
            pts = [sys.exponents[i] for i in rows]
            base = min(pts)
            faces.append((rho, [vector_sub(p, base) for p in pts if p != base]))
    if not faces:
        return StratumFailure(cs, FailureReason.ALL_FACES_EMPTY)

    def ranks(gamma):
        union = Echelon(sys.num_vars)
        for _, points in gamma:
            for p in points:
                union.add(p)
        return len(gamma), len(gamma) + union.rank

    return _first_degenerate(cs, faces, ranks)


def has_generator_row(sys: _linsys.MonomialSystem) -> bool:
    """True iff some monomial is a single variable (a Cox-ring generator)."""
    return any(sum(row) == 1 for row in sys.exponents)


def _check_one(sys, method: Method, c) -> StratumWitness | StratumFailure:
    if method == Method.RANK:
        return check_stratum_rank(sys, c)
    if method == Method.POLYTOPE:
        return check_stratum_polytope(sys, c)
    rank_res = check_stratum_rank(sys, c)
    poly_res = check_stratum_polytope(sys, c)
    if rank_res != poly_res:
        raise MethodDisagreement(c, rank_res, poly_res)
    return rank_res


def is_quasismooth(
    sys: _linsys.MonomialSystem,
    method: Method | str = Method.BOTH,
) -> QSVerdict:
    """Decide quasismoothness of the general member of the system.

    A system with empty base locus is quasismooth, as is any system whose
    basis contains a coordinate variable (decided before stratum analysis).
    Otherwise every base stratum must pass; the first failing stratum in
    the deterministic order is reported.
    """
    method = Method(method)
    if method not in (Method.RANK, Method.POLYTOPE, Method.BOTH):
        raise ValueError(f"unsupported method {method}")
    if has_generator_row(sys):
        return QSVerdict(True, method, shortcut="generator_in_basis")
    strata = _linsys.base_locus_strata(sys)
    if not strata:
        return QSVerdict(True, method)
    results = [_check_one(sys, method, st) for st in strata]
    witnesses = []
    for res in results:
        if isinstance(res, StratumFailure):
            return QSVerdict(False, method, failure=res)
        witnesses.append(res)
    return QSVerdict(True, method, witnesses=tuple(witnesses))


def sufficient_screen(sys: _linsys.MonomialSystem, c: Iterable[int]) -> bool:
    """Fast sufficient test: more nonempty faces than the slice dimension.

    True on every base stratum implies quasismooth; the converse fails, so
    a False here decides nothing on its own.
    """
    st = _linsys.base_stratum(sys, c)
    return st.k > _toric.stratum_image_dim(sys.ambient, st.variables, sys.degree[0])


# ---------------------------------------------------------------------------
# face-count rules: the closed-form checkers in low dimension


def _require_fan(sys: _linsys.MonomialSystem, rank: int, simplicial: bool) -> None:
    fan = sys.ambient.fan
    if fan is None:
        raise DimensionMismatch("closed-form checkers need a fan presentation")
    if fan.lattice_rank != rank:
        raise DimensionMismatch(
            f"expected a rank-{rank} fan, got rank {fan.lattice_rank}"
        )
    if not _toric.is_complete(fan):
        raise DimensionMismatch("fan is not complete")
    if simplicial and not _toric.is_simplicial(fan):
        raise DimensionMismatch("fan is not simplicial")


def _first_failing_stratum(
    sys: _linsys.MonomialSystem,
    method: Method,
    passes: Callable[[_linsys.BaseStratum], bool],
) -> QSVerdict:
    """The verdict of a rule that decides each base stratum on its own.

    Walks ``base_locus_strata`` in order and fails at the first stratum
    ``st`` with ``passes(st)`` false: ``all_faces_empty`` when it has no
    nonempty face (``st.k == 0``), ``no_degenerate_subcollection``
    otherwise.
    """
    for st in _linsys.base_locus_strata(sys):
        if not passes(st):
            reason = (
                FailureReason.ALL_FACES_EMPTY
                if st.k == 0
                else FailureReason.NO_DEGENERATE_SUBCOLLECTION
            )
            return QSVerdict(False, method, failure=StratumFailure(st.variables, reason))
    return QSVerdict(True, method)


def _closed_form_passes(st: _linsys.BaseStratum, rank: int) -> bool:
    """The closed-form rule on a fan of lattice rank 2 or 3.

    A stratum C passes when one of its faces has exactly one row (a single
    face is then degenerate) or when it has more than ``rank - |C|``
    nonempty faces.  On such fans ``|C| <= rank``, and this count is the
    whole case analysis: with ``|C| = 1`` only the one-row clause can
    hold, with ``|C| = rank`` any nonempty face passes, and a pair on a
    threefold passes with two nonempty faces or one face of one row.
    """
    return st.k > rank - len(st.variables) or any(
        len(rows) == 1 for _, rows in st.face_supports
    )


def check_curve_on_surface(sys: _linsys.MonomialSystem) -> QSVerdict:
    """Closed-form verdict for curves on a complete toric surface.

    Base-point-free systems pass.  A one-variable stratum {x_i} needs its
    face, the monomials with exponent 1 in x_i, to be a single monomial; a
    two-variable stratum needs a nonempty face, a monomial whose two
    exponents there sum to 1.  The faces are those of the ``BaseStratum``.
    """
    _require_fan(sys, rank=2, simplicial=False)
    return _first_failing_stratum(sys, Method.CURVE, lambda st: _closed_form_passes(st, 2))


def check_surface_on_threefold(sys: _linsys.MonomialSystem) -> QSVerdict:
    """Closed-form verdict for surfaces on a simplicial projective threefold.

    One-variable strata behave as on surfaces.  A two-variable stratum
    {i, j} passes when both of its faces (1 on one variable, 0 on the
    other) are nonempty, or only one is and it is a single monomial.  A
    three-variable stratum needs a nonempty face, a monomial with exponent
    sum 1 there.  The faces are those of the ``BaseStratum``.
    """
    _require_fan(sys, rank=3, simplicial=True)
    return _first_failing_stratum(sys, Method.SURFACE, lambda st: _closed_form_passes(st, 3))


# ---------------------------------------------------------------------------
# certificate rendering (machine-parseable key-value lines)


def certificate_lines(verdict: QSVerdict) -> list[str]:
    lines = [
        "[verdict]",
        f"status = {'quasismooth' if verdict.quasismooth else 'not_quasismooth'}",
        f"method = {verdict.method.value}",
    ]
    if verdict.shortcut:
        lines.append(f"shortcut = {verdict.shortcut}")
    if verdict.failure is not None:
        f = verdict.failure
        lines.append("[failing_stratum]")
        lines.append("vars = " + " ".join(f"x{i + 1}" for i in f.stratum))
        lines.append(f"reason = {f.reason.value}")
    # every witness stratum lies in the variables 0..top
    top = max((w.stratum[-1] for w in verdict.witnesses), default=-1)
    names = [f"x{i + 1}" for i in range(top + 1)]
    name = names.__getitem__
    for idx, w in enumerate(verdict.witnesses, start=1):
        lines += (
            f"[stratum {idx}]",
            "vars = " + " ".join(map(name, w.stratum)),
            "gamma = " + " ".join(map(name, w.gamma)),
            f"k = {w.k}",
            f"rank_small = {w.rank_small}",
            f"rank_big = {w.rank_big}",
        )
    return lines
