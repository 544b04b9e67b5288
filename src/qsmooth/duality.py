"""Good pairs of polytopes and the induced anticanonical systems.

A pair (P1, P2) with P1 inside P2 is good when P1 and the polar of P2 are
canonical.  The lattice points of P1 induce a monomial system on the
normal-fan variety of P2 through the exponent map m -> (<m, ray> + 1);
dualizing swaps the polars.  Variable order of an induced system follows
the facet enumeration order of the normal fan, so runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linsys as _linsys
from . import polytope as _poly
from . import qscheck as _qscheck
from . import toric as _toric
from .errors import DimensionMismatch, NonIntegralDual, NotFullDim, PointOutsideP2
from .linalg import dot


@dataclass(frozen=True)
class GoodPair:
    p1: _poly.LatticePolytope
    p2: _poly.LatticePolytope
    contains: bool
    p1_canonical: bool
    p2star_canonical: bool
    p2star_integral: bool

    @property
    def is_good(self) -> bool:
        return self.contains and self.p1_canonical and self.p2star_canonical


@dataclass(frozen=True)
class InducedSystem:
    ambient: _toric.ToricAmbient
    system: _linsys.MonomialSystem
    points: tuple[tuple[int, ...], ...]


def _same_lattice(p1: _poly.LatticePolytope, p2: _poly.LatticePolytope) -> None:
    if p1.dim_ambient != p2.dim_ambient:
        raise DimensionMismatch("polytopes live in different ambient lattices")


def good_pair_check(
    p1: _poly.LatticePolytope, p2: _poly.LatticePolytope
) -> GoodPair:
    """Compute the three goodness flags for a pair of polytopes.

    A rational polar of P2 is never rounded: non-integral vertices simply
    record the canonicality flag as False, with ``p2star_integral`` telling
    the two apart.
    """
    _same_lattice(p1, p2)
    if not (p1.is_full_dim and p2.is_full_dim):
        raise NotFullDim("good pairs need full-dimensional polytopes")
    contains = all(p2.contains(v) for v in p1.vertices)
    p1_canonical = _poly.is_canonical(p1)
    p2_star = _poly.polar_dual(p2)
    integral = _poly.has_integral_vertices(p2_star)
    p2star_canonical = integral and _poly.is_canonical(p2_star)
    return GoodPair(
        p1=p1,
        p2=p2,
        contains=contains,
        p1_canonical=p1_canonical,
        p2star_canonical=p2star_canonical,
        p2star_integral=integral,
    )


def induced_system(
    p1: _poly.LatticePolytope, p2: _poly.LatticePolytope
) -> InducedSystem:
    """Monomial system of the lattice points of P1 on the normal fan of P2.

    The exponent of a point m at ray v is <m, v> + 1; a negative entry
    means m lies outside the anticanonical polytope of the fan and is
    rejected.  Homogeneity of the result is re-validated on construction.

    The rays of the normal fan of the full-dimensional P2 span the space,
    so the exponent map is affine and one-to-one and maps the vertices of
    the hull of the points onto the Newton vertices.  When P1 has integral
    vertices, that hull is P1, so the vertex rows are the rows of P1's
    vertices and no hull is computed.
    """
    _same_lattice(p1, p2)
    fan = _poly.normal_fan(p2)
    ambient = _toric.ToricAmbient.from_fan(fan)
    points = tuple(_poly.lattice_points(p1))
    rows = []
    for m in points:
        row = tuple(dot(m, ray) + 1 for ray in fan.rays)
        if any(x < 0 for x in row):
            raise PointOutsideP2(f"lattice point {m} maps to a negative exponent")
        rows.append(row)
    vertex_rows = None
    if _poly.has_integral_vertices(p1):
        corners = set(p1.vertices)
        vertex_rows = (i for i, m in enumerate(points) if m in corners)
    system = _linsys.monomial_system(ambient, rows, vertex_rows=vertex_rows)
    return InducedSystem(ambient=ambient, system=system, points=points)


def dual_pair(
    p1: _poly.LatticePolytope, p2: _poly.LatticePolytope
) -> tuple[_poly.LatticePolytope, _poly.LatticePolytope]:
    """The swapped pair of polars (P2*, P1*) as lattice polytopes.

    Raises when either polar has a non-integral vertex; no rounding is
    ever attempted.
    """
    _same_lattice(p1, p2)
    p2_star = _poly.polar_dual(p2)
    p1_star = _poly.polar_dual(p1)
    if not (_poly.has_integral_vertices(p2_star) and _poly.has_integral_vertices(p1_star)):
        raise NonIntegralDual("a polar has non-integral vertices")
    return _poly.as_lattice(p2_star), _poly.as_lattice(p1_star)


def duality_qs_report(
    p1: _poly.LatticePolytope,
    p2: _poly.LatticePolytope,
    method: _qscheck.Method | str = _qscheck.Method.BOTH,
) -> tuple[_qscheck.QSVerdict, _qscheck.QSVerdict]:
    """Verdicts for the system of (P1, P2) and for the dual system.

    No implication between the two is asserted: quasismoothness is not
    preserved by polar duality in general.
    """
    primal = induced_system(p1, p2)
    q1, q2 = dual_pair(p1, p2)
    dual = induced_system(q1, q2)
    return (
        _qscheck.is_quasismooth(primal.system, method),
        _qscheck.is_quasismooth(dual.system, method),
    )


def quasismooth_implies_good(
    p1_candidate: _poly.LatticePolytope, p2: _poly.LatticePolytope
) -> bool:
    """Property hook: a quasismooth induced system forces P1 canonical.

    Returns True when the implication is witnessed (vacuously when the
    system is not quasismooth).
    """
    verdict = _qscheck.is_quasismooth(induced_system(p1_candidate, p2).system)
    if not verdict.quasismooth:
        return True
    return _poly.is_canonical(p1_candidate)
