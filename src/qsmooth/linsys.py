"""Monomial linear systems and their base-locus combinatorics.

A system is an ambient plus a matrix of nonnegative exponents, one row per
monomial.  All stratum data (hitting sets, face supports, coordinate-sum
slices) is read off the rows that are vertices of the Newton polytope;
non-vertex rows change neither the base locus nor any downstream verdict,
and computing supports on vertex rows keeps the full matrix and its
vertex-row submatrix literally interchangeable.  ``BaseStratum`` is the
one stratum object of the package: every check and screen reads its
variables, face supports and face count ``k``, built in one place.  A
face depends on its stratum only through a few variables, so a
``FaceTable`` builds each distinct face once per listing and every stratum
that has it shares the same object; the rank test keeps its per-face
ranks on that table, so they too are computed once per listing.

Base strata are the relevant variable subsets that meet the support of
every vertex row, i.e. the relevant transversals of the row supports.
``base_locus_strata`` finds them on bitmasks, with one mask per row support
and per irrelevant component.  A search decides the variables in index
order and drops a branch once it cannot lead to a stratum, so it does not
test all 2^r subsets.

Monomial file format: one monomial per line, either ``r`` space-separated
nonnegative integers or a symbolic product like ``x1^3*x2`` (variables
``x<k>`` or ``y<k>``, 1-based; the letter is cosmetic and both address the
k-th variable).  ``#`` starts a comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import polytope as _poly
from . import toric as _toric
from .errors import (
    DimensionMismatch,
    DuplicateMonomial,
    EmptyInput,
    NotBaseStratum,
    NotHomogeneous,
    ParseError,
    read_input,
)
from .linalg import _int_vector, affine_span_dim

Row = tuple[int, ...]


@dataclass(frozen=True)
class MonomialSystem:
    """Immutable monomial linear system over a toric ambient."""

    ambient: _toric.ToricAmbient
    exponents: tuple[Row, ...]
    vertex_rows: tuple[int, ...]

    @property
    def num_vars(self) -> int:
        return self.ambient.num_vars

    @property
    def num_monomials(self) -> int:
        return len(self.exponents)

    @property
    def degree(self):
        return self.ambient.grading.degree_of(self.exponents[0])

    def vertex_exponents(self) -> list[Row]:
        return [self.exponents[i] for i in self.vertex_rows]


def monomial_system(
    ambient: _toric.ToricAmbient,
    rows: Sequence[Sequence[int]],
    *,
    vertex_rows: Iterable[int] | None = None,
) -> MonomialSystem:
    """Validated constructor; computes the Newton-polytope vertex rows once.

    When the rows are affinely independent (as for every square system with
    an invertible exponent matrix) each row is a vertex and the hull is
    skipped.  More than r + 1 rows in Q^r never are, so they skip that test
    instead.  Otherwise the vertices come from ``polytope.hull``, an exact
    beneath-beyond hull.  Only the hull's vertices are read, so its facet
    inequalities, which are listed on first read, are never computed.  A
    non-integral exponent raises ``ValueError``.

    A caller that already knows the Newton vertices passes their row
    indices, in increasing order, as ``vertex_rows``; they are trusted, and
    neither test nor hull runs (``duality.induced_system`` does this).
    """
    try:
        exps = tuple(_int_vector(r) for r in rows)
    except ValueError as exc:
        raise ValueError(f"monomial exponents must be integers: {exc}") from exc
    if not exps:
        raise EmptyInput("a monomial system needs at least one monomial")
    for r in exps:
        if len(r) != ambient.num_vars:
            raise DimensionMismatch(
                f"monomial has {len(r)} exponents, ambient has {ambient.num_vars} variables"
            )
        if any(x < 0 for x in r):
            raise ValueError(f"negative exponent in {r}")
    seen: dict[Row, int] = {}
    for i, r in enumerate(exps):
        if r in seen:
            raise DuplicateMonomial(
                f"monomials {seen[r] + 1} and {i + 1} are identical"
            )
        seen[r] = i
    for i, other in enumerate(exps[1:], start=1):
        diff = ambient.grading.degree_difference(exps[0], other)
        if any(diff):
            raise NotHomogeneous(0, i, diff)
    if vertex_rows is not None:
        vertex_rows = tuple(vertex_rows)
    elif len(exps) <= ambient.num_vars + 1 and affine_span_dim(exps) == len(exps) - 1:
        # Affinely independent rows are all vertices of their hull.
        vertex_rows = tuple(range(len(exps)))
    else:
        vertex_set = set(_poly.hull(exps).vertices)
        vertex_rows = tuple(i for i, r in enumerate(exps) if r in vertex_set)
    return MonomialSystem(ambient=ambient, exponents=exps, vertex_rows=vertex_rows)


@dataclass(frozen=True, slots=True)
class BaseStratum:
    """A relevant zero pattern contained in the base locus.

    ``face_supports`` maps each variable of the stratum to the vertex rows
    whose exponent is 1 there and 0 on the rest of the stratum; ``k`` counts
    the variables with nonempty support.  Iterating yields the variables.
    ``base_locus_strata`` lists them; ``base_stratum`` builds one from a
    plain tuple of variables.  ``table`` is the ``FaceTable`` the faces
    came from, shared by every stratum of one listing; it takes no part in
    equality, hashing or ``repr``.
    """

    variables: tuple[int, ...]
    face_supports: tuple[tuple[int, tuple[int, ...]], ...]
    k: int
    table: FaceTable | None = field(default=None, compare=False, repr=False)

    def __iter__(self):
        return iter(self.variables)


class FaceTable:
    """The faces of one system's strata, each built once and shared.

    The face at rho of a stratum C holds the vertex rows with exponent 1 at
    rho that vanish on the rest of C.  Only the other support variables of
    the rows with exponent 1 at rho can exclude a row, so the face depends
    on C only through its meet with their union R_rho.  The table keys each
    rho's faces by that meet, and every distinct ``(rho, rows)`` pair is one
    tuple object, whichever strata contain it.  ``ranks`` holds the rank
    test's ``(rank_small, rank_big)`` of each single face, keyed by face;
    like the faces, it lives as long as the table.
    """

    __slots__ = ("supports", "_candidates", "_reach", "_faces", "_interned", "ranks")

    def __init__(self, sys: MonomialSystem):
        r = sys.num_vars
        self.supports: list[int] = []  # the support mask of each vertex row
        # per rho: (row, mask of the row's other support variables)
        self._candidates: list[list[tuple[int, int]]] = [[] for _ in range(r)]
        self._reach = [0] * r  # R_rho
        for i in sys.vertex_rows:
            row = sys.exponents[i]
            support = _mask(j for j, x in enumerate(row) if x)
            self.supports.append(support)
            for rho, x in enumerate(row):
                if x == 1:
                    others = support & ~(1 << rho)
                    self._candidates[rho].append((i, others))
                    self._reach[rho] |= others
        self._faces: list[dict[int, tuple[int, tuple[int, ...]]]] = [{} for _ in range(r)]
        self._interned: dict[tuple[int, tuple[int, ...]], tuple[int, tuple[int, ...]]] = {}
        self.ranks: dict[tuple[int, tuple[int, ...]], tuple[int, int]] = {}

    def stratum(self, cmask: int) -> BaseStratum:
        """The stratum on the variables of the bitmask ``cmask``."""
        reach, tables = self._reach, self._faces
        variables = [rho for rho in range(len(reach)) if cmask >> rho & 1]
        faces = [tables[rho].get(cmask & reach[rho]) for rho in variables]
        if None in faces:
            for n, rho in enumerate(variables):
                if faces[n] is None:
                    faces[n] = self._face(rho, cmask & reach[rho])
        k = len(faces) - [rows for _, rows in faces].count(())
        return BaseStratum(tuple(variables), tuple(faces), k, self)

    def _face(self, rho: int, key: int) -> tuple[int, tuple[int, ...]]:
        """Build, intern and file the face at rho for the key ``C & R_rho``."""
        rows = tuple(i for i, others in self._candidates[rho] if not others & key)
        face = self._faces[rho][key] = self._interned.setdefault((rho, rows), (rho, rows))
        return face


def _hits(row: Row, c: Iterable[int]) -> bool:
    return any(row[j] > 0 for j in c)


def _mask(variables: Iterable[int]) -> int:
    m = 0
    for j in variables:
        m |= 1 << j
    return m


def base_locus_strata(sys: MonomialSystem) -> list[BaseStratum]:
    """All relevant zero patterns on which every vertex monomial vanishes.

    A pattern C is a base stratum when it contains no irrelevant component
    and meets the support of every vertex row; non-maximal strata inside
    the base locus are listed too, since they must be checked as well.
    The search decides the variables in index order, putting each one in C
    or leaving it out.  It drops a branch as soon as putting a variable in
    completes an irrelevant component, or leaving it out leaves some row
    support that no undecided variable can meet any more; a decision with
    only one open branch is taken in place.  The result is ordered by
    size, then lexicographically, like ``relevant_subsets``, and its
    strata share one ``FaceTable``.
    """
    r = sys.num_vars
    table = FaceTable(sys)
    rows = set(table.supports)
    comps = [_mask(c) for c in sys.ambient.irrelevant]
    if 0 in rows or 0 in comps:
        return []
    # Each constraint is settled at its highest variable: a row support
    # must be met by then, and a component is complete only once it is in.
    rows_ending: list[list[int]] = [[] for _ in range(r)]
    for m in rows:
        rows_ending[m.bit_length() - 1].append(m)
    comps_ending: list[list[int]] = [[] for _ in range(r)]
    for m in comps:
        comps_ending[m.bit_length() - 1].append(m)

    found: list[int] = []

    def search(j: int, chosen: int) -> None:
        while j < r:
            taken = chosen | 1 << j
            comps_j, rows_j = comps_ending[j], rows_ending[j]
            can_take = not comps_j or not any(comp & taken == comp for comp in comps_j)
            if not rows_j or all(m & chosen for m in rows_j):
                if can_take:
                    search(j + 1, taken)
            elif can_take:
                chosen = taken
            else:
                return
            j += 1
        found.append(chosen)

    search(0, 0)
    # The search tries "in" before "out", so strata of one size are found
    # in lexicographic order and a stable sort by size finishes the order.
    found.sort(key=int.bit_count)
    return [table.stratum(cmask) for cmask in found]


def is_base_stratum(sys: MonomialSystem, c: Iterable[int]) -> bool:
    cs = tuple(sorted(set(c)))
    if not cs or not sys.ambient.is_relevant(cs):
        return False
    return all(_hits(row, cs) for row in sys.vertex_exponents())


def base_stratum(sys: MonomialSystem, c: Iterable[int]) -> BaseStratum:
    """The ``BaseStratum`` of a variable subset, with its face supports.

    The face polytope at rho is the hull of the supporting rows shifted by
    -e_rho; it is a face of the Newton polytope, so vertex rows suffice.
    A ``BaseStratum`` (as listed by ``base_locus_strata``) is returned as
    it is; any other iterable of variables is validated first and gets a
    ``FaceTable`` of its own.
    """
    if isinstance(c, BaseStratum):
        return c
    cs = tuple(sorted(set(c)))
    if not is_base_stratum(sys, cs):
        raise NotBaseStratum(f"{cs} is not a base-locus stratum")
    return FaceTable(sys).stratum(_mask(cs))


# ---------------------------------------------------------------------------
# text format

_SYMBOLIC = re.compile(r"^[xy]\d+(\^\d+)?(\*[xy]\d+(\^\d+)?)*$")
_FACTOR = re.compile(r"([xy])(\d+)(?:\^(\d+))?")


def _parse_symbolic(line: str, num_vars: int, path: str, line_no: int) -> Row:
    if not _SYMBOLIC.match(line):
        raise ParseError(f"bad monomial {line!r}", path, line_no)
    exps = [0] * num_vars
    for _, idx_str, exp_str in _FACTOR.findall(line):
        idx = int(idx_str)
        if idx < 1 or idx > num_vars:
            raise ParseError(
                f"variable index {idx} out of range 1..{num_vars}", path, line_no
            )
        exps[idx - 1] += int(exp_str) if exp_str else 1
    return tuple(exps)


def parse_monomials_text(
    text: str, num_vars: int, path: str = "<string>"
) -> list[Row]:
    rows = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line[0] in "xy":
            rows.append(_parse_symbolic(line, num_vars, path, line_no))
            continue
        try:
            row = tuple(int(tok) for tok in line.split())
        except ValueError as exc:
            raise ParseError(f"bad exponent line {line!r}", path, line_no) from exc
        if len(row) != num_vars:
            raise ParseError(
                f"expected {num_vars} exponents, got {len(row)}", path, line_no
            )
        if any(x < 0 for x in row):
            raise ParseError("negative exponent", path, line_no)
        rows.append(row)
    if not rows:
        raise ParseError("no monomials found", path)
    return rows


def load_system(ambient_path: str, monomials_path: str) -> MonomialSystem:
    ambient = _toric.load_ambient(ambient_path)
    rows = parse_monomials_text(read_input(monomials_path), ambient.num_vars, monomials_path)
    return monomial_system(ambient, rows)


def format_monomials(rows: Sequence[Row]) -> str:
    return "\n".join(" ".join(str(x) for x in row) for row in rows) + "\n"
