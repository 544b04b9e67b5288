"""Toric ambient presentations: fans, gradings, strata, irrelevant components.

An ambient is given either by a fan (primitive rays plus maximal cones) or
by a quotient presentation (grading matrix plus irrelevant components).
For fans the grading and the irrelevant components are derived once at
construction, so downstream stratum queries are uniform across the two
presentations.

Strata are indexed by variable subsets C (zero patterns): C is *relevant*
when the points vanishing exactly on C survive the removal of the
irrelevant locus, i.e. when C contains no irrelevant component.  For a fan
this is the same as C being contained in the ray set of some cone.  For
non-simplicial fans the zero-pattern indexing checks every relevant subset,
a conservative superset of the per-cone strata.  ``relevant_subsets`` lists
the subsets as plain tuples; the strata the checks read are built in
``linsys``.

File format (sectioned, ``#`` comments):
  ``[rays]`` one primitive ray per line; ``[cones]`` one maximal cone per
  line as 1-based ray indices; or ``[grading]`` rows of the free degree
  matrix, optional ``[torsion]`` lines ``q | w_1 ... w_r``, and
  ``[irrelevant]`` lines of 1-based variable indices.  Exactly one
  presentation must be given.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import polytope as _poly
from .errors import (
    DegenerateFan,
    DimensionMismatch,
    IrrelevantStratum,
    ParseError,
    read_input,
)
from .linalg import (
    IntMatrix,
    _exact_int,
    _int_vector,
    dot,
    gcd_vector,
    rank_rational,
    smith_normal_form,
    vector_sub,
)


@dataclass(frozen=True)
class Fan:
    """Rational polyhedral fan given by primitive rays and maximal cones."""

    lattice_rank: int
    rays: tuple[tuple[int, ...], ...]
    max_cones: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rays = tuple(_int_vector(r) for r in self.rays)
        for r in rays:
            if len(r) != self.lattice_rank:
                raise DimensionMismatch("ray length does not match lattice rank")
            if gcd_vector(r) != 1:
                raise ValueError(f"ray {r} is not primitive")
        if len(set(rays)) != len(rays):
            raise ValueError("duplicate rays")
        cones = tuple(
            dict.fromkeys(tuple(sorted(set(_int_vector(c)))) for c in self.max_cones)
        )
        for c in cones:
            if not c or c[0] < 0 or c[-1] >= len(rays):
                raise ValueError(f"cone {c} has ray indices out of range")
        for a, b in itertools.permutations(cones, 2):
            if set(a) < set(b):
                raise ValueError(f"maximal cone {a} is contained in {b}")
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "max_cones", cones)

    @property
    def num_rays(self) -> int:
        return len(self.rays)


@dataclass(frozen=True)
class Grading:
    """Degree map: a free integer part plus torsion rows (modulus, weights)."""

    free_part: IntMatrix
    torsion: tuple[tuple[int, tuple[int, ...]], ...] = ()

    def __post_init__(self):
        reduced = []
        for q, weights in self.torsion:
            q = _exact_int(q)
            if q < 2:
                raise ValueError("torsion modulus must be at least 2")
            reduced.append((q, tuple(w % q for w in _int_vector(weights))))
        object.__setattr__(self, "torsion", tuple(reduced))

    @property
    def num_vars(self) -> int:
        return self.free_part.cols

    @property
    def free_rank(self) -> int:
        return self.free_part.rows

    def degree_of(self, exponent: Sequence[int]):
        free = tuple(dot(row, exponent) for row in self.free_part.entries)
        tors = tuple(dot(w, exponent) % q for q, w in self.torsion)
        return free, tors

    def degree_difference(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        """Free and torsion degree of ``b - a``; all zero iff a and b share a degree."""
        free, tors = self.degree_of(vector_sub(b, a))
        return free + tors


def class_group(fan: Fan) -> Grading:
    """Grading presenting the cokernel of m -> (<m, ray>)_rays.

    Free rank is num_rays - lattice_rank; finite invariant factors >= 2
    appear as torsion rows.
    """
    snf = smith_normal_form(IntMatrix.from_rows(fan.rays))  # r x n
    if snf.rank != fan.lattice_rank:
        raise DegenerateFan("rays do not span the ambient lattice")
    n = fan.lattice_rank
    free_rows = snf.U.entries[n:]
    torsion = []
    for i, d in enumerate(snf.diagonal):
        if d >= 2:
            torsion.append((d, snf.U.entries[i]))
    return Grading(IntMatrix.from_rows(free_rows), tuple(torsion))


def _cone_walls(fan: Fan, cone: tuple[int, ...]) -> list[frozenset]:
    """Ray-index sets of the codimension-one faces of a maximal cone."""
    origin = tuple(0 for _ in range(fan.lattice_rank))
    pts = [origin] + [fan.rays[i] for i in cone]
    hull = _poly.hull(pts)
    walls = []
    for f in hull.facets:
        if f.offset != 0:
            continue
        walls.append(frozenset(i for i in cone if dot(f.normal, fan.rays[i]) == 0))
    return walls


def is_complete(fan: Fan) -> bool:
    """Exact completeness test: every wall is shared by exactly two cones."""
    n = fan.lattice_rank
    counter: Counter = Counter()
    for cone in fan.max_cones:
        if rank_rational([fan.rays[i] for i in cone]) != n:
            return False
        for wall in _cone_walls(fan, cone):
            counter[wall] += 1
    return bool(counter) and all(v == 2 for v in counter.values())


def is_simplicial(fan: Fan) -> bool:
    return all(
        len(c) == rank_rational([fan.rays[i] for i in c]) for c in fan.max_cones
    )


def is_fake_wps(fan: Fan) -> bool:
    """Complete simplicial fan with exactly lattice_rank + 1 rays."""
    return (
        fan.num_rays == fan.lattice_rank + 1
        and is_simplicial(fan)
        and is_complete(fan)
    )


def _mask(indices: Iterable[int]) -> int:
    return sum(1 << i for i in indices)


def irrelevant_components(fan: Fan) -> list[tuple[int, ...]]:
    """Minimal variable subsets not contained in any cone's ray set.

    Every proper subset of a minimal one lies in some cone, so none has
    more than ``max |cone| + 1`` elements and the search stops there.
    Subsets are tested as bitmasks over the rays.
    """
    n = fan.num_rays
    bits = [1 << i for i in range(n)]
    cones = [_mask(c) for c in fan.max_cones]
    found: list[int] = []
    out = []
    largest = max(map(len, fan.max_cones), default=0)
    for size in range(1, min(n, largest + 1) + 1):
        masks = map(sum, itertools.combinations(bits, size))
        for cand, m in zip(itertools.combinations(range(n), size), masks):
            for cone in cones:
                if m & cone == m:
                    break
            else:
                for prev in found:
                    if m & prev == prev:
                        break
                else:
                    found.append(m)
                    out.append(cand)
    return out


@dataclass(frozen=True)
class ToricAmbient:
    """Toric ambient space with a uniform stratum interface.

    ``fan`` is None for quotient presentations; ``grading`` and
    ``irrelevant`` are always populated.
    """

    num_vars: int
    grading: Grading
    irrelevant: tuple[tuple[int, ...], ...]
    fan: Fan | None = None

    def __post_init__(self):
        comps = tuple(tuple(sorted(set(c))) for c in self.irrelevant)
        for c in comps:
            if c and (c[0] < 0 or c[-1] >= self.num_vars):
                raise ValueError("irrelevant component index out of range")
        for a, b in itertools.permutations(map(_mask, comps), 2):
            if a & b == a:
                raise ValueError("irrelevant components must be irredundant")
        if self.grading.num_vars != self.num_vars:
            raise DimensionMismatch("grading width does not match variable count")
        object.__setattr__(self, "irrelevant", comps)

    @classmethod
    def from_fan(cls, fan: Fan) -> "ToricAmbient":
        return cls(
            num_vars=fan.num_rays,
            grading=class_group(fan),
            irrelevant=tuple(irrelevant_components(fan)),
            fan=fan,
        )

    @classmethod
    def from_quotient(
        cls,
        grading: Grading,
        irrelevant: Iterable[Sequence[int]],
    ) -> "ToricAmbient":
        return cls(
            num_vars=grading.num_vars,
            grading=grading,
            irrelevant=tuple(tuple(c) for c in irrelevant),
            fan=None,
        )

    def is_relevant(self, c: Iterable[int]) -> bool:
        cs = set(c)
        return not any(set(comp) <= cs for comp in self.irrelevant)

    def is_fake_wps(self) -> bool:
        if self.fan is not None:
            return is_fake_wps(self.fan)
        full = tuple(range(self.num_vars))
        return (
            self.grading.free_rank == 1
            and all(w > 0 for w in self.grading.free_part.entries[0])
            and self.irrelevant == (full,)
        )


def relevant_subsets(ambient: ToricAmbient) -> tuple[tuple[int, ...], ...]:
    """Every variable subset whose zero pattern survives in the ambient.

    The set is downward closed and excludes exactly the supersets of the
    irrelevant components; it is ordered by size, then lexicographically.
    """
    return tuple(
        c
        for size in range(ambient.num_vars + 1)
        for c in itertools.combinations(range(ambient.num_vars), size)
        if ambient.is_relevant(c)
    )


def stratum_image_dim(ambient: ToricAmbient, c: Iterable[int], w=None) -> int:
    """Dimension of the degree-w affine slice supported outside C.

    Computed as (r - |C|) - rank of the free grading columns outside C;
    returns -1 when a degree w is supplied and the slice is empty.
    """
    cs = set(c)
    if not ambient.is_relevant(cs):
        raise IrrelevantStratum(f"{tuple(sorted(cs))} contains an irrelevant component")
    cols = [j for j in range(ambient.num_vars) if j not in cs]
    free = ambient.grading.free_part
    mat = [tuple(row[j] for j in cols) for row in free.entries]
    rank = rank_rational(mat) if mat else 0
    if w is not None:
        w_free = _int_vector(w)
        if len(w_free) != free.rows:
            raise DimensionMismatch("degree length does not match the free rank")
        augmented = [row + (val,) for row, val in zip(mat, w_free)]
        if mat and rank_rational(augmented) != rank:
            return -1
    return (ambient.num_vars - len(cs)) - rank


def make_wps(weights: Sequence[int], torsion=()) -> ToricAmbient:
    """Weighted projective ambient in quotient presentation."""
    w = _int_vector(weights)
    if not w or any(x <= 0 for x in w):
        raise ValueError("weights must be positive integers")
    grading = Grading(IntMatrix.from_rows([w]), tuple(torsion))
    return ToricAmbient.from_quotient(grading, [tuple(range(len(w)))])


# ---------------------------------------------------------------------------
# text format


def parse_ambient_text(text: str, path: str = "<string>") -> ToricAmbient:
    sections: dict[str, list[tuple[int, str]]] = {}
    current = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in ("rays", "cones", "grading", "torsion", "irrelevant"):
                raise ParseError(f"unknown section [{current}]", path, line_no)
            sections.setdefault(current, [])
            continue
        if current is None:
            raise ParseError("data before any section header", path, line_no)
        sections[current].append((line_no, line))

    has_fan = "rays" in sections or "cones" in sections
    has_quotient = "grading" in sections or "irrelevant" in sections or "torsion" in sections
    if has_fan == has_quotient:
        raise ParseError(
            "exactly one presentation required: [rays]/[cones] or "
            "[grading]/[torsion]/[irrelevant]",
            path,
        )

    def ints(line_no, line):
        try:
            return tuple(int(tok) for tok in line.split())
        except ValueError as exc:
            raise ParseError(f"expected integers, got {line!r}", path, line_no) from exc

    if has_fan:
        if "rays" not in sections or "cones" not in sections:
            raise ParseError("fan presentation needs both [rays] and [cones]", path)
        rays = [ints(ln, s) for ln, s in sections["rays"]]
        widths = {len(r) for r in rays}
        if len(widths) != 1:
            raise ParseError("rays of unequal length", path)
        cones = []
        for ln, s in sections["cones"]:
            idx = ints(ln, s)
            if any(i < 1 or i > len(rays) for i in idx):
                raise ParseError(f"cone ray index out of range in {s!r}", path, ln)
            cones.append(tuple(i - 1 for i in idx))
        try:
            fan = Fan(lattice_rank=len(rays[0]), rays=tuple(rays), max_cones=tuple(cones))
            return ToricAmbient.from_fan(fan)
        except (ValueError, DimensionMismatch, DegenerateFan) as exc:
            raise ParseError(str(exc), path) from exc

    if "grading" not in sections or "irrelevant" not in sections:
        raise ParseError("quotient presentation needs [grading] and [irrelevant]", path)
    free_rows = [ints(ln, s) for ln, s in sections["grading"]]
    widths = {len(r) for r in free_rows}
    if len(widths) != 1:
        raise ParseError("grading rows of unequal length", path)
    r = len(free_rows[0])
    torsion = []
    for ln, s in sections.get("torsion", []):
        if "|" not in s:
            raise ParseError("torsion line must look like 'q | w_1 ... w_r'", path, ln)
        mod_str, weights_str = s.split("|", 1)
        try:
            q = int(mod_str.strip())
        except ValueError as exc:
            raise ParseError(f"bad torsion modulus {mod_str!r}", path, ln) from exc
        weights = ints(ln, weights_str)
        if len(weights) != r:
            raise ParseError("torsion weights length mismatch", path, ln)
        torsion.append((q, weights))
    components = []
    for ln, s in sections["irrelevant"]:
        idx = ints(ln, s)
        if any(i < 1 or i > r for i in idx):
            raise ParseError(f"variable index out of range in {s!r}", path, ln)
        components.append(tuple(i - 1 for i in idx))
    try:
        grading = Grading(IntMatrix.from_rows(free_rows), tuple(torsion))
        return ToricAmbient.from_quotient(grading, components)
    except (ValueError, DimensionMismatch) as exc:
        raise ParseError(str(exc), path) from exc


def load_ambient(path: str) -> ToricAmbient:
    return parse_ambient_text(read_input(path), path)


def format_ambient(ambient: ToricAmbient) -> str:
    lines = []
    if ambient.fan is not None:
        lines.append("[rays]")
        for ray in ambient.fan.rays:
            lines.append(" ".join(str(x) for x in ray))
        lines.append("[cones]")
        for cone in ambient.fan.max_cones:
            lines.append(" ".join(str(i + 1) for i in cone))
    else:
        lines.append("[grading]")
        for row in ambient.grading.free_part.entries:
            lines.append(" ".join(str(x) for x in row))
        if ambient.grading.torsion:
            lines.append("[torsion]")
            for q, weights in ambient.grading.torsion:
                lines.append(f"{q} | " + " ".join(str(x) for x in weights))
        lines.append("[irrelevant]")
        for comp in ambient.irrelevant:
            lines.append(" ".join(str(i + 1) for i in comp))
    return "\n".join(lines) + "\n"
