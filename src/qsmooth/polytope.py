"""Exact lattice-polytope geometry.

Polytopes are stored with explicit vertex lists, facet inequalities
``<normal, x> >= offset`` and, when the hull is not full-dimensional,
affine-hull equations.  Vertices and facet incidences are found by an
incremental beneath-beyond hull in integer arithmetic on a
full-dimensional projection of the points.  Only the starting simplex
is found by elimination.  After it, each new facet's normal is an
integer combination of the normals of the two old facets that meet in
its ridge (the pencil of their hyperplanes), and whether two facets meet
in a ridge is read off the bitmasks of the points on them.  The facet
inequalities are listed the first time a polytope's ``facets`` is read,
in a fixed order, from the normals the hull found, so the facet list
depends only on the input points and their order; a caller that needs
only the vertices (as ``linsys.monomial_system`` does) never pays for
it.  Lattice points are found fibre by fibre along the last coordinate.

Lower-dimensional polytopes are kept in their ambient coordinates rather
than being projected; the affine hull is recorded as equations.

File format: one vertex per line as space-separated integers (rational
entries written ``p/q``); ``#`` starts a comment.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil, floor, gcd, lcm, prod
from operator import add, mul
from typing import Callable, Iterable, Iterator, Sequence, Union

from .errors import (
    BoxTooLarge,
    DimensionMismatch,
    EmptyInput,
    NotFullDim,
    NotInteriorOrigin,
    NotLatticePolytope,
    ParseError,
    read_input,
)
from .linalg import Echelon, _int_vector, dot, vector_sub

Coord = Union[int, Fraction]
Point = tuple[Coord, ...]


@dataclass(frozen=True)
class Facet:
    """Supporting inequality <normal, x> >= offset with gcd-reduced normal."""

    normal: tuple[int, ...]
    offset: Coord


@dataclass(frozen=True)
class Equation:
    """Affine-hull equation <normal, x> == value."""

    normal: tuple[int, ...]
    value: Coord


class LatticePolytope:
    """Immutable polytope: vertices, facet inequalities and affine-hull equations.

    ``facets`` is either a tuple or a function of no arguments returning
    them; a function is called the first time ``facets`` is read, so a
    caller that needs only the vertices never lists the facets.
    Equality and hashing compare all five fields and so list the facets.
    """

    def __init__(
        self,
        dim_ambient: int,
        dim: int,
        vertices: tuple[Point, ...],
        facets: tuple[Facet, ...] | Callable[[], Iterable[Facet]],
        equations: tuple[Equation, ...],
    ):
        fields = self.__dict__
        fields.update(dim_ambient=dim_ambient, dim=dim, vertices=vertices, equations=equations)
        if callable(facets):
            fields["_list_facets"] = facets
        else:
            fields["facets"] = tuple(facets)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @cached_property
    def facets(self) -> tuple[Facet, ...]:
        facets = tuple(self._list_facets())
        del self.__dict__["_list_facets"]  # release the hull data it closes over
        return facets

    def _key(self):
        return (self.dim_ambient, self.dim, self.vertices, self.facets, self.equations)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (
            f"{type(self).__name__}(dim_ambient={self.dim_ambient!r}, dim={self.dim!r}, "
            f"vertices={self.vertices!r}, facets={self.facets!r}, "
            f"equations={self.equations!r})"
        )

    @property
    def is_full_dim(self) -> bool:
        return self.dim == self.dim_ambient

    def contains(self, point: Sequence[Coord], strict: bool = False) -> bool:
        """Membership test; ``strict`` demands strict facet inequalities."""
        if len(point) != self.dim_ambient:
            raise DimensionMismatch("point dimension does not match polytope")
        for eq in self.equations:
            if dot(eq.normal, point) != eq.value:
                return False
        for f in self.facets:
            val = dot(f.normal, point)
            if val < f.offset or (strict and val == f.offset):
                return False
        return True


class RationalPolytope(LatticePolytope):
    """Polytope with exact rational vertices (same layout as LatticePolytope)."""


def _dedupe(points: Sequence[Sequence[Coord]]) -> list[Point]:
    seen = set()
    out = []
    for p in points:
        t = tuple(p)
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def _scale_to_int(points: Sequence[Point]) -> tuple[list[tuple[int, ...]], int]:
    """Clear denominators; returns integer points and the common scale."""
    scale = lcm(*(x.denominator for p in points for x in p if isinstance(x, Fraction)))
    scaled = [tuple(int(x * scale) for x in p) for p in points]
    return scaled, scale


def _drop_midpoints(pts: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Discard points that are exact averages of two others (never vertices).

    ``p`` is the average of two points exactly when ``2p`` is the sum of
    two different points.  The points must be distinct: then neither of
    those two is ``p``, since ``2p - p`` is ``p`` itself.
    """
    sums = {tuple(map(add, a, b)) for a, b in itertools.combinations(pts, 2)}
    return [p for p in pts if tuple(map(add, p, p)) not in sums]


def _bits(mask: int):
    """Indices of the set bits of ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _affine_basis(pts: Sequence[tuple[int, ...]], size: int) -> list[int]:
    """Indices of the first ``size`` affinely independent points of ``pts``.

    Scans the points in order and keeps each one that is affinely
    independent of those kept, stopping at ``size`` points.
    """
    chosen: list[int] = []
    echelon = Echelon(len(pts[0]))
    for i, p in enumerate(pts):
        if len(chosen) == size:
            break
        if not chosen or echelon.add(vector_sub(p, pts[chosen[0]])):
            chosen.append(i)
    return chosen


def _primitive(v: Sequence[int]) -> tuple[int, ...]:
    g = gcd(*v)
    return tuple(x // g for x in v)


def _simplex_facets(
    pts: list[tuple[int, ...]], simplex: list[int]
) -> dict[tuple[tuple[int, ...], int], int]:
    """Facets of the full-dimensional simplex on ``pts[simplex]`` and their masks.

    Let ``M`` be the matrix of rows ``v_k - v_0``, over the vertices
    ``v_1, ..., v_dim`` after ``v_0``.  The inner normal of the facet
    opposite ``v_k`` is column k of ``M^-1``, and that of the facet
    opposite ``v_0`` is minus the sum of the columns.  One echelon of the
    rows ``[v_k - v_0 | e_k]`` has its pivots in the first ``dim``
    columns, so its kernel vector at column ``dim + k`` is
    ``(-t_k * column k of M^-1, t_k * e_k)`` for some ``t_k > 0``.  The
    facets are listed opposite ``v_0`` first, then opposite each ``v_k``
    in turn.
    """
    dim = len(simplex) - 1
    v0, *others = (pts[i] for i in simplex)
    echelon = Echelon(2 * dim)
    for k, v in enumerate(others):
        unit = [0] * dim
        unit[k] = 1
        echelon.add(vector_sub(v, v0) + tuple(unit))
    kernel = echelon.kernel()
    scale = lcm(*(y[dim + k] for k, y in enumerate(kernel)))
    far = [0] * dim  # scale times minus the sum of the columns of M^-1
    for k, y in enumerate(kernel):
        f = scale // y[dim + k]
        far = [s + f * x for s, x in zip(far, y)]
    full = sum(1 << i for i in simplex)
    normal = _primitive(far)
    facets = {(normal, sum(map(mul, normal, others[0]))): full ^ 1 << simplex[0]}
    for y, i in zip(kernel, simplex[1:]):
        normal = _primitive([-x for x in y[:dim]])
        facets[normal, sum(map(mul, normal, v0))] = full ^ 1 << i
    return facets


def _facet_masks(
    pts: list[tuple[int, ...]], dim: int
) -> dict[tuple[tuple[int, ...], int], int]:
    """Facets of the hull of full-dimensional ``pts`` and their incidence bitmasks.

    Beneath-beyond (Edelsbrunner 1987): start from the simplex on the
    first ``dim + 1`` affinely independent points and add the other
    points one at a time.  Each facet is kept as its primitive inner
    normal and offset, mapped to the mask of the points added so far that
    lie on its hyperplane.  A point ``x`` joins every facet whose
    hyperplane it lies on.  The facets it sees (strictly beyond) are
    replaced by one facet through ``x`` for each horizon ridge, a ridge
    that a seen facet shares with a facet ``x`` is strictly beneath; new
    facets on the same hyperplane merge.

    After the simplex nothing is eliminated.  Two facets meet in a face,
    and the points on it are the common bits of their masks.  A ridge
    holds at least ``dim - 1`` points.  Up to dimension 3 every face with
    that many points is a ridge; from dimension 4 a smaller face can hold
    as many, but it lies in at least three facets, and a ridge in exactly
    two.  So a seen facet and a beneath facet meet in a ridge when their
    common mask has ``dim - 1`` bits and, from dimension 4, no third
    facet's mask contains it.  The new facet through that ridge and ``x``
    lies in the pencil of the two (the rotation step of gift wrapping,
    Chand and Kapur 1970).  With ``(a, b)`` the seen facet,
    ``s_v = <a, x> - b < 0``, and ``(c, d)`` the beneath one,
    ``s_h = <c, x> - d > 0``, the inequality
    ``<s_h a - s_v c, y> >= s_h b - s_v d`` is a positive combination of
    the two, so it holds on the old hull, and it is tight on the ridge and
    at ``x``.  Its normal divided by its gcd is the new facet's primitive
    inner normal, and the offset is that normal's product with ``x``.
    Returns the map from each facet's primitive inner normal and offset
    to its mask.
    """
    need = dim - 1
    third = dim > 3
    simplex = _affine_basis(pts, dim + 1)
    facets = _simplex_facets(pts, simplex)
    for q, x in enumerate(pts):
        if q in simplex:
            continue
        bit = 1 << q
        old = []  # (normal, side, mask) of every facet
        kept = {}
        for key, mask in facets.items():
            normal, offset = key
            side = sum(map(mul, normal, x)) - offset
            old.append((normal, side, mask))
            if side > 0:
                kept[key] = mask
            elif not side:
                kept[key] = mask | bit
        if len(kept) < len(facets):  # x sees a facet
            new: dict[tuple[tuple[int, ...], int], int] = {}
            for a, s_v, vis in old:
                if s_v >= 0:
                    continue
                # the faces vis shares with each facet, vis included, that hold
                # a ridge's worth of points; a facet containing a ridge of vis
                # adds a face that contains the ridge
                near = []
                for c, s_h, other in old:
                    face = vis & other
                    if face.bit_count() >= need:
                        near.append((face, c, s_h))
                faces = [face for face, _, _ in near]
                for ridge, c, s_h in near:
                    if s_h <= 0:
                        continue
                    if third and list(map(ridge.__and__, faces)).count(ridge) > 2:
                        continue
                    normal = _primitive([s_h * y - s_v * z for y, z in zip(a, c)])
                    key = (normal, sum(map(mul, normal, x)))
                    new[key] = new.get(key, 0) | ridge | bit
            kept.update(new)
        facets = kept
    return facets


def _hull_parts(pts: list[tuple[int, ...]]):
    """Dimension, equations, vertex flags and a facet lister for integer points.

    One echelon of the differences ``p - pts[0]`` gives the dimension, the
    equations of the affine hull (its kernel) and ``dim`` pivot coordinates
    on which the hull projects one-to-one.  The facet incidence masks come
    from ``_facet_masks`` on the core points (those that are not midpoints
    of two others) in those coordinates.  A core point is a vertex when the
    facets through it meet in that point alone.  The facets themselves are
    listed only when the returned function is called (see
    ``_list_facets``).
    """
    n = len(pts[0])
    base = pts[0]
    span = Echelon(n)
    for p in pts[1:]:
        span.add(vector_sub(p, base))
    dim = span.rank
    equations = [Equation(nv, dot(nv, base)) for nv in span.kernel()]
    if dim == 0:
        return dim, equations, [True], lambda: []

    core = _drop_midpoints(pts)
    proj = [tuple(p[j] for j in span.pivots) for p in core]
    planes = _facet_masks(proj, dim)

    meet = [(1 << len(core)) - 1] * len(core)
    for m in planes.values():
        for i in _bits(m):
            meet[i] &= m
    vertices = {p for i, p in enumerate(core) if meet[i] == 1 << i}
    flags = [p in vertices for p in pts]
    return dim, equations, flags, lambda: _list_facets(planes, span)


def _list_facets(planes, span: Echelon) -> list[Facet]:
    """Facet inequalities of the hull from the normals the hull found.

    ``planes`` maps each facet's primitive inner normal and offset, in the
    coordinates ``span.pivots`` of the projected core points, to its
    incidence mask.  Each facet's ambient normal is its key's normal at
    the pivot coordinates and zero elsewhere, with the key's offset.  It
    is primitive, and its product with any point equals the key normal's
    product with the point's projection, so it cuts the facet out of the
    hull with the hull on its nonnegative side.  The facets are listed in
    the lexicographic order of the index lists of their masks, which is
    the order of their lexicographically first affinely independent
    ``dim``-subsets: two masks agree up to the first index where those
    subsets differ.
    """
    n = span.width
    pivots = span.pivots
    order = sorted((list(_bits(m)), key) for key, m in planes.items())
    facets: list[Facet] = []
    for _, (normal, offset) in order:
        ambient = [0] * n
        for j, x in zip(pivots, normal):
            ambient[j] = x
        facets.append(Facet(tuple(ambient), offset))
    return facets


def hull(points: Sequence[Sequence[Coord]]) -> LatticePolytope:
    """Convex hull of integer points with exact facet data.

    The returned vertex list is minimal: no vertex lies in the hull of the
    others, and vertices keep the order of the input.  The vertices,
    dimension and equations are computed at once; the facets are listed
    the first time ``facets`` is read.  Facets are listed in the
    lexicographic order of the indices of the points on them, among the
    input points that are not midpoints of two others, so the facet
    order, and with it the ray order of ``normal_fan``, is a function of
    the input.  Works in any ambient dimension;
    lower-dimensional hulls carry their affine-hull equations.  A
    coordinate that is not an integer (a proper fraction, a float with a
    fractional part, a string) raises ``ValueError``.
    """
    try:
        pts = _dedupe([_int_vector(p) for p in points])
    except ValueError as exc:
        raise ValueError(f"hull expects integer points, use rational_hull: {exc}") from exc
    if not pts:
        raise EmptyInput("hull of an empty point set")
    widths = {len(p) for p in pts}
    if len(widths) != 1:
        raise DimensionMismatch("points of unequal dimension")
    n = len(pts[0])
    dim, equations, flags, list_facets = _hull_parts(pts)
    vertices = tuple(p for p, keep in zip(pts, flags) if keep)
    return LatticePolytope(n, dim, vertices, list_facets, tuple(equations))


def rational_hull(points: Sequence[Sequence[Coord]]) -> RationalPolytope:
    """Convex hull of rational points (facet offsets become Fractions).

    As for ``hull``, the facets are listed the first time they are read.
    """
    pts = _dedupe([tuple(Fraction(x) for x in p) for p in points])
    if not pts:
        raise EmptyInput("hull of an empty point set")
    widths = {len(p) for p in pts}
    if len(widths) != 1:
        raise DimensionMismatch("points of unequal dimension")
    n = len(pts[0])
    scaled, scale = _scale_to_int(pts)
    dim, equations, flags, list_facets = _hull_parts(scaled)

    def facets():
        return (Facet(f.normal, Fraction(f.offset, scale)) for f in list_facets())

    equations = tuple(Equation(e.normal, Fraction(e.value, scale)) for e in equations)
    vertices = tuple(p for p, keep in zip(pts, flags) if keep)
    return RationalPolytope(n, dim, vertices, facets, equations)


# Most points a box scan may visit: about 5 s of scanning, and 156 times the
# largest box of the tests and the bench (6,400 points, in 6 dimensions).
MAX_BOX_POINTS = 10**6


def _box_scan(p: LatticePolytope, strict: bool) -> Iterator[tuple[int, ...]]:
    """Integer points of P (relatively interior when ``strict``), in lexicographic order.

    The points are searched for in the bounding box of the vertices.  If
    that box has more than ``MAX_BOX_POINTS`` points, ``BoxTooLarge`` is
    raised before any point is yielded.  The limit is on the whole box,
    not on the box of the first n - 1 coordinates that the scan walks: a
    single fibre can hold any number of points.

    P is scanned by fibres.  Every facet ``<a, x> >= b`` and both sides
    of every affine-hull equation ``<a, x> == b`` give a bound
    ``<a, x> >= b``; over integer points a strict facet inequality is the
    bound with ``b`` replaced by ``floor(b) + 1``, while the equations stay
    exact.  For each point y of the box of the first n - 1 coordinates,
    each bound ``<a, (y, t)> >= b`` bounds the last coordinate t by an
    exact floor or ceiling division (``Fraction // int`` is exact too),
    and the integers between the bounds are yielded.  The lattice of
    rank 0 holds the one point ``()``.
    """
    ranges = []
    for j in range(p.dim_ambient):
        coords = [Fraction(v[j]) for v in p.vertices]
        ranges.append(range(ceil(min(coords)), floor(max(coords)) + 1))
    size = prod(map(len, ranges))
    if size > MAX_BOX_POINTS:
        raise BoxTooLarge(
            f"lattice-point scan of a box with {size} points exceeds the limit of {MAX_BOX_POINTS}"
        )
    if not ranges:
        yield ()
        return
    bounds = [(f.normal, floor(f.offset) + 1 if strict else f.offset) for f in p.facets]
    for e in p.equations:
        bounds += [(e.normal, e.value), (tuple(-x for x in e.normal), -e.value)]
    bounds = [(a[:-1], a[-1], b) for a, b in bounds]
    first, last = ranges[-1].start, ranges[-1].stop - 1
    for head in itertools.product(*ranges[:-1]):
        low, high = first, last
        for a, c, b in bounds:
            rest = b - sum(map(mul, a, head))  # the bound reads c * t >= rest
            if c > 0:
                t = -(-rest // c)
                if t > low:
                    low = t
            elif c < 0:
                t = rest // c
                if t < high:
                    high = t
            elif rest > 0:
                break
        else:
            for t in range(low, high + 1):
                yield head + (t,)


def lattice_points(p: LatticePolytope) -> list[tuple[int, ...]]:
    """All integer points of a (lattice or rational) bounded polytope.

    Found by ``_box_scan``, fibre by fibre along the last coordinate, in
    lexicographic order, so output is deterministic.
    """
    return list(_box_scan(p, strict=False))


def interior_lattice_points(p: LatticePolytope) -> list[tuple[int, ...]]:
    """Integer points strictly inside a full-dimensional polytope."""
    if not p.is_full_dim:
        raise NotFullDim("interior of a lower-dimensional polytope is empty")
    return list(_box_scan(p, strict=True))


def is_canonical(p: LatticePolytope) -> bool:
    """True iff the origin is the unique interior lattice point.

    The scan stops at the first interior point other than the origin.
    """
    if not p.is_full_dim:
        raise NotFullDim("canonicality needs a full-dimensional polytope")
    if not has_integral_vertices(p):
        raise NotLatticePolytope("canonicality is defined for lattice polytopes")
    origin = (0,) * p.dim_ambient
    found = False
    for point in _box_scan(p, strict=True):
        if point != origin:
            return False
        found = True
    return found


def polar_dual(p: LatticePolytope) -> RationalPolytope:
    """Polar {n : <m, n> >= -1 for all m in P}; origin must be interior."""
    if not p.is_full_dim:
        raise NotFullDim("polar dual needs a full-dimensional polytope")
    if any(f.offset >= 0 for f in p.facets):
        raise NotInteriorOrigin("origin is not strictly interior")
    verts = [
        tuple(Fraction(x, 1) / (-f.offset) for x in f.normal) for f in p.facets
    ]
    return rational_hull(verts)


def as_lattice(p: RationalPolytope) -> LatticePolytope:
    """Reinterpret a rational polytope with integral vertices as a lattice one."""
    if any(Fraction(x).denominator != 1 for v in p.vertices for x in v):
        raise ValueError("polytope has non-integral vertices")
    vertices = tuple(tuple(int(x) for x in v) for v in p.vertices)
    facets = tuple(
        Facet(f.normal, int(f.offset)) if Fraction(f.offset).denominator == 1 else f
        for f in p.facets
    )
    equations = tuple(
        Equation(e.normal, int(e.value)) if Fraction(e.value).denominator == 1 else e
        for e in p.equations
    )
    return LatticePolytope(p.dim_ambient, p.dim, vertices, facets, equations)


def has_integral_vertices(p: LatticePolytope) -> bool:
    return all(x.denominator == 1 for v in p.vertices for x in v)  # int or Fraction


def normal_fan(p: LatticePolytope):
    """Complete fan with rays the primitive inner facet normals.

    Maximal cones are indexed by vertices: the cone of a vertex is spanned
    by the normals of the facets through it.
    """
    from .toric import Fan  # local import: toric builds on polytope

    if not p.is_full_dim:
        raise NotFullDim("normal fan needs a full-dimensional polytope")
    rays = [f.normal for f in p.facets]
    cones = []
    for v in p.vertices:
        tight = frozenset(
            i for i, f in enumerate(p.facets) if dot(f.normal, v) == f.offset
        )
        cones.append(tight)
    return Fan(lattice_rank=p.dim_ambient, rays=tuple(rays), max_cones=tuple(cones))


# ---------------------------------------------------------------------------
# text format


def _parse_entry(token: str, path: str, line_no: int) -> Coord:
    try:
        if "/" in token:
            num, den = token.split("/")
            return Fraction(int(num), int(den))
        return int(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad coordinate {token!r}", path, line_no) from exc


def parse_polytope_text(text: str, path: str = "<string>") -> LatticePolytope:
    points: list[Point] = []
    rational = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        entries = tuple(_parse_entry(tok, path, line_no) for tok in line.split())
        if any(isinstance(x, Fraction) for x in entries):
            rational = True
        points.append(entries)
    if not points:
        raise ParseError("no vertices found", path)
    widths = {len(p) for p in points}
    if len(widths) != 1:
        raise ParseError("vertex lines of unequal length", path)
    return rational_hull(points) if rational else hull(points)


def load_polytope(path: str) -> LatticePolytope:
    return parse_polytope_text(read_input(path), path)


def _format_coord(x: Coord) -> str:
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    return str(x)


def format_polytope(p: LatticePolytope) -> str:
    return "\n".join(" ".join(_format_coord(x) for x in v) for v in p.vertices) + "\n"
