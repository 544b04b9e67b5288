"""Exact lattice-polytope geometry.

Polytopes are stored with explicit vertex lists, facet inequalities
``<normal, x> >= offset`` and, when the hull is not full-dimensional,
affine-hull equations.  Vertices and facet incidences are found by an
incremental beneath-beyond hull in integer arithmetic on a
full-dimensional projection of the points.  The facet inequalities are
listed the first time a polytope's ``facets`` is read, in a fixed order,
from the normals the hull found, so the facet list depends only on the
input points and their order; a caller that needs only the vertices (as
``linsys.monomial_system`` does) never pays for it.  Lattice points are
found fibre by fibre along the last coordinate.

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
from math import ceil, floor, gcd, prod
from operator import mul, sub
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
    lcm = 1
    for p in points:
        for x in p:
            if isinstance(x, Fraction):
                lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    scaled = [tuple(int(x * lcm) for x in p) for p in points]
    return scaled, lcm


def _drop_midpoints(pts: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Discard points that are exact averages of two others (never vertices).

    The points must be distinct: then ``2p - a`` equals ``a`` or ``p``
    only when ``a == p``, the one pair skipped.
    """
    index = set(pts)
    core = []
    for p in pts:
        doubled = [2 * x for x in p]
        for a in pts:
            if a != p and tuple(map(sub, doubled, a)) in index:
                break
        else:
            core.append(p)
    return core


def _bits(mask: int):
    """Indices of the set bits of ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _affine_basis(
    pts: Sequence[tuple[int, ...]], mask: int, size: int
) -> tuple[list[int], Echelon]:
    """Greedy affinely independent subset of the points in ``mask``.

    Scans the indices in increasing order and keeps each point that is
    affinely independent of those kept, stopping at ``size`` points.
    Affine independence is a matroid, so when ``size`` is the affine rank
    plus one this is the lexicographically first basis of the set.  Also
    returns the echelon of the differences of the kept points from the
    first one, whose kernel holds the normals of their affine hull.
    """
    chosen: list[int] = []
    echelon = Echelon(len(pts[0]))
    for i in _bits(mask):
        if len(chosen) == size:
            break
        if not chosen or echelon.add(vector_sub(pts[i], pts[chosen[0]])):
            chosen.append(i)
    return chosen, echelon


def _facet_masks(
    pts: list[tuple[int, ...]], dim: int
) -> dict[tuple[tuple[int, ...], int], int]:
    """Facets of the hull of full-dimensional ``pts`` and their incidence bitmasks.

    Beneath-beyond (Edelsbrunner 1987): start from the first ``dim + 1``
    affinely independent points and add the others one at a time.  Each
    facet is kept as its primitive inner normal and offset, mapped to the
    mask of the points added so far that lie on its hyperplane.  A point
    joins every facet whose hyperplane it lies on; the facets it sees
    (strictly beyond) are replaced by one facet through the point for each
    horizon ridge, i.e. each ridge shared with a facet the point is
    strictly beneath.  New facets on the same hyperplane merge.  A new
    facet's normal is read off the echelon that ``_affine_basis`` built to
    test the ridge's rank, after one more row for the new point, so no
    kernel is computed from scratch.  Returns the map from each facet's
    primitive inner normal and offset to its mask.
    """
    simplex, _ = _affine_basis(pts, (1 << len(pts)) - 1, dim + 1)
    # (dim + 1) times the simplex centroid, strictly inside every later hull
    inner = tuple(sum(col) for col in zip(*(pts[i] for i in simplex)))

    def plane(echelon: Echelon, p: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        """Inner normal and offset of the hyperplane through ``p`` along ``echelon``."""
        (normal,) = echelon.kernel()
        offset = dot(normal, p)
        if dot(normal, inner) < (dim + 1) * offset:
            return tuple(-x for x in normal), -offset
        return normal, offset

    facets: dict[tuple[tuple[int, ...], int], int] = {}
    simplex_mask = sum(1 << i for i in simplex)
    for skip in simplex:
        mask = simplex_mask ^ 1 << skip
        ids, echelon = _affine_basis(pts, mask, dim)
        facets[plane(echelon, pts[ids[0]])] = mask
    for q, x in enumerate(pts):
        bit = 1 << q
        if simplex_mask & bit:
            continue
        visible = []
        kept = {}
        for key, mask in facets.items():
            side = dot(key[0], x) - key[1]
            if side < 0:
                visible.append(mask)
            else:
                kept[key] = mask | bit if side == 0 else mask
        if visible:
            horizon = [m for m in kept.values() if not m & bit]
            new: dict[tuple[tuple[int, ...], int], int] = {}
            for vis in visible:
                for other in horizon:
                    ridge = vis & other
                    if ridge.bit_count() < dim - 1:
                        continue
                    ids, echelon = _affine_basis(pts, ridge, dim - 1)
                    if len(ids) == dim - 1:
                        if ids:  # a ridge of a one-dimensional hull is empty
                            echelon.add(vector_sub(x, pts[ids[0]]))
                        key = plane(echelon, x)
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
