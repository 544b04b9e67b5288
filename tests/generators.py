"""Seeded random generators and enumerators of ambients, systems and polytopes."""

from __future__ import annotations

import random
from math import atan2, gcd
from pathlib import Path

from qsmooth import Fan, ToricAmbient, hull, is_canonical, load_system, monomial_system
from qsmooth.delsarte import AtomicType, AtomKind
from qsmooth.errors import NotHomogeneous, ParseError, QsmoothError


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def primitive_rays(rng: random.Random, count: int, width: int):
    """``count`` distinct primitive integer vectors with entries in [-3, 3]."""
    rays = []
    while len(rays) < count:
        v = tuple(rng.randint(-3, 3) for _ in range(width))
        if any(v) and _primitive(v) == v and v not in rays:
            rays.append(v)
    return tuple(rays)


def random_complete_fan_2d(rng: random.Random, num_rays: int) -> Fan:
    """Distinct primitive rays sorted by angle; consecutive pairs are cones."""
    while True:
        rays = set()
        while len(rays) < num_rays:
            v = (rng.randint(-3, 3), rng.randint(-3, 3))
            if v != (0, 0):
                rays.add(_primitive(v))
        ordered = sorted(rays, key=lambda r: atan2(r[1], r[0]))
        pairs = list(zip(ordered, ordered[1:] + ordered[:1]))
        if all(a[0] * b[1] - a[1] * b[0] > 0 for a, b in pairs):
            cones = tuple((i, (i + 1) % len(ordered)) for i in range(len(ordered)))
            return Fan(lattice_rank=2, rays=tuple(ordered), max_cones=cones)


_P3 = Fan(
    lattice_rank=3,
    rays=((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)),
    max_cones=((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)),
)
_P1CUBED = Fan(
    lattice_rank=3,
    rays=((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)),
    max_cones=tuple((a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)),
)
_P112 = Fan(
    lattice_rank=3,
    rays=((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -2)),
    max_cones=((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)),
)


def star_subdivide(fan: Fan, rng: random.Random) -> Fan:
    """Subdivide a random simplicial maximal cone at its ray sum."""
    cone = rng.choice(fan.max_cones)
    new_ray = _primitive(tuple(sum(fan.rays[i][j] for i in cone) for j in range(fan.lattice_rank)))
    if new_ray in fan.rays:
        return fan
    rays = fan.rays + (new_ray,)
    new_idx = len(rays) - 1
    cones = [c for c in fan.max_cones if c != cone]
    for drop in cone:
        cones.append(tuple(sorted(set(cone) - {drop} | {new_idx})))
    return Fan(lattice_rank=fan.lattice_rank, rays=rays, max_cones=tuple(cones))


def random_complete_fan_3d(rng: random.Random, max_rays: int = 7) -> Fan:
    fan = rng.choice([_P3, _P1CUBED, _P112])
    while fan.num_rays < max_rays and rng.random() < 0.6:
        fan = star_subdivide(fan, rng)
    return fan


def random_system(
    rng: random.Random,
    ambient: ToricAmbient,
    fan: Fan,
    max_exp: int = 6,
    max_monomials: int = 10,
):
    """Random homogeneous system on a fan ambient, or None on bad luck.

    Starts from a random seed monomial and adds lattice translates of it
    (differences taken from the ray map image, so degrees agree), clipping
    to the exponent budget.  Occasionally shifts every monomial by one
    variable to force that variable into the base locus.
    """
    r = fan.num_rays
    n = fan.lattice_rank
    seed = tuple(rng.randint(0, max_exp) for _ in range(r))
    rows = {seed}
    want = rng.randint(1, max_monomials)
    for _ in range(60):
        if len(rows) >= want:
            break
        shift = tuple(rng.randint(-2, 2) for _ in range(n))
        cand = tuple(
            base + sum(shift[j] * fan.rays[i][j] for j in range(n))
            for i, base in enumerate(seed)
        )
        if all(0 <= x <= max_exp for x in cand):
            rows.add(cand)
    if rng.random() < 0.4:
        j = rng.randrange(r)
        rows = {tuple(x + (1 if i == j else 0) for i, x in enumerate(row)) for row in rows}
    try:
        return monomial_system(ambient, sorted(rows))
    except QsmoothError:
        return None


def random_fan_system(rng: random.Random, dim: int = 0):
    """Random (ambient, system) pair; dim 2 or 3, random when 0."""
    d = dim or rng.choice([2, 3])
    fan = (
        random_complete_fan_2d(rng, rng.randint(3, 7))
        if d == 2
        else random_complete_fan_3d(rng)
    )
    ambient = ToricAmbient.from_fan(fan)
    system = random_system(rng, ambient, fan)
    return (ambient, fan, system) if system is not None else None


def product_ambient(block_sizes) -> ToricAmbient:
    """Product of projective spaces P^(n_1 - 1) x ... in quotient form.

    Each factor contributes one grading row and one irrelevant component,
    its own block of variables.
    """
    from qsmooth.linalg import IntMatrix
    from qsmooth.toric import Grading

    blocks, start = [], 0
    for size in block_sizes:
        blocks.append(tuple(range(start, start + size)))
        start += size
    grading = [tuple(1 if j in block else 0 for j in range(start)) for block in blocks]
    return ToricAmbient.from_quotient(Grading(IntMatrix.from_rows(grading)), blocks)


def random_product_system(rng: random.Random, block_sizes, max_degree: int = 3, max_monomials: int = 8):
    """Random system of one random multidegree on a product of projective spaces."""
    ambient = product_ambient(block_sizes)
    degrees = [rng.randint(1, max_degree) for _ in block_sizes]
    rows = set()
    for _ in range(rng.randint(1, max_monomials)):
        row = []
        for size, d in zip(block_sizes, degrees):
            cuts = sorted(rng.randint(0, d) for _ in range(size - 1))
            row += [b - a for a, b in zip([0] + cuts, cuts + [d])]
        rows.add(tuple(row))
    return monomial_system(ambient, sorted(rows))


def random_canonical_polytope(rng: random.Random, dim: int):
    """Random canonical polytope built over the cross-polytope skeleton."""
    while True:
        points = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
        points += [tuple(-1 if j == i else 0 for j in range(dim)) for i in range(dim)]
        for _ in range(rng.randint(0, 3)):
            points.append(tuple(rng.choice([-1, 0, 1]) for _ in range(dim)))
        p = hull(points)
        if p.is_full_dim and is_canonical(p):
            return p


def enumerate_atomic_sums(max_vars: int, max_exp: int):
    """Every sum of atomic summands on consecutive variable blocks.

    Yields (num_vars, atoms); consecutive blocks cover all sums up to a
    simultaneous variable permutation, which changes no verdict.
    """
    import itertools

    def blocks(start, remaining):
        if remaining == 0:
            yield []
            return
        for size in range(1, remaining + 1):
            var_block = tuple(range(start, start + size))
            for exps in itertools.product(range(2, max_exp + 1), repeat=size):
                kinds = (
                    (AtomKind.FERMAT,) if size == 1 else (AtomKind.CHAIN, AtomKind.LOOP)
                )
                for kind in kinds:
                    head = AtomicType(kind, var_block, exps)
                    for rest in blocks(start + size, remaining - size):
                        yield [head] + rest

    for n in range(1, max_vars + 1):
        for combo in blocks(0, n):
            yield n, combo


def random_atomic_sum(rng: random.Random, num_vars: int, max_exp: int = 6):
    """Random disjoint sum of Fermat/chain/loop summands on num_vars variables."""
    variables = list(range(num_vars))
    rng.shuffle(variables)
    atoms = []
    while variables:
        size = rng.randint(1, min(3, len(variables)))
        block, variables = variables[:size], variables[size:]
        exps = tuple(rng.randint(2, max_exp) for _ in block)
        if size == 1:
            atoms.append(AtomicType(AtomKind.FERMAT, tuple(block), exps))
        elif rng.random() < 0.5:
            atoms.append(AtomicType(AtomKind.CHAIN, tuple(block), exps))
        else:
            atoms.append(AtomicType(AtomKind.LOOP, tuple(block), exps))
    rows = [row for atom in atoms for row in atom.rows(num_vars)]
    rng.shuffle(rows)
    return atoms, rows


def _monomials_of_degree(weights, degree):
    if not weights:
        return [()] if degree == 0 else []
    w, rest = weights[0], weights[1:]
    return [
        (a,) + tail
        for a in range(degree // w + 1)
        for tail in _monomials_of_degree(rest, degree - a * w)
    ]


def random_wps_system(rng: random.Random, max_vars: int = 5, max_weight: int = 3):
    """Random system on a weighted projective space, square or not, or None.

    Picks weights and a degree, sometimes adds the pure powers that the
    degree allows, then a few random monomials of that degree.  Systems
    with a generator row or fewer than two monomials give None.
    """
    from qsmooth.toric import make_wps

    n = rng.randint(2, max_vars)
    weights = tuple(rng.randint(1, max_weight) for _ in range(n))
    degree = rng.randint(max(weights) + 1, 4 * max_weight)
    pool = [m for m in _monomials_of_degree(weights, degree) if sum(m) != 1]
    rows = set()
    if rng.random() < 0.5:
        rows.update(m for m in pool if max(m) == sum(m))
    rows.update(rng.sample(pool, min(len(pool), rng.randint(1, n + 2))))
    if len(rows) < 2:
        return None
    return monomial_system(make_wps(weights), sorted(rows))


def wps_weights_for(rows):
    """Positive integer weights and degree solving A w = d 1, or None."""
    from qsmooth.errors import SingularMatrix
    from qsmooth.linalg import solve_rational

    try:
        x = solve_rational(rows, [1] * len(rows))
    except SingularMatrix:
        return None
    if any(v <= 0 for v in x):
        return None
    lcm = 1
    for v in x:
        lcm = lcm * v.denominator // gcd(lcm, v.denominator)
    weights = [int(v * lcm) for v in x]
    g = lcm
    for w in weights:
        g = gcd(g, w)
    return tuple(w // g for w in weights), lcm // g


def _sorted_partitions(total: int, parts: int, smallest: int = 1):
    """Nondecreasing tuples of ``parts`` integers >= ``smallest`` summing to ``total``."""
    if parts == 1:
        if total >= smallest:
            yield (total,)
        return
    for first in range(smallest, total // parts + 1):
        for rest in _sorted_partitions(total - first, parts - 1, first):
            yield (first,) + rest


def calabi_yau_candidates(n: int, max_degree: int):
    """Weight systems whose general degree-sum member might be quasismooth.

    Yields ``(weights, degree)`` for sorted weights of ``n`` variables with
    gcd 1 and ``degree = sum(weights) <= max_degree``, keeping those where
    every ``w_i`` divides ``d`` or ``d - w_j`` for some ``j``.  That is
    necessary: the coordinate point of ``x_i`` needs a monomial ``x_i^a``
    or ``x_i^a x_j`` of degree ``d``.
    """
    for degree in range(n, max_degree + 1):
        for weights in _sorted_partitions(degree, n):
            g = 0
            for w in weights:
                g = gcd(g, w)
            if g != 1:
                continue
            if all(
                degree % w == 0 or any((degree - v) % w == 0 for v in weights)
                for w in weights
            ):
                yield weights, degree


def complete_wps_system(weights, degree):
    """All monomials of the given degree on P(weights)."""
    from qsmooth.toric import make_wps

    return monomial_system(make_wps(weights), _monomials_of_degree(tuple(weights), degree))


def fixture_systems():
    """Every ambient x monomials pair of the fixture directory that loads."""
    fixtures = Path(__file__).parent / "fixtures"
    systems = []
    for ambient in sorted(fixtures.glob("ambient_*.txt")):
        for monomials in sorted(fixtures.glob("monomials_*.txt")):
            try:
                systems.append(load_system(str(ambient), str(monomials)))
            except (NotHomogeneous, ParseError, ValueError):
                continue
    return systems


def loop_system(r):
    """x_i^3 x_(i+1) (indices mod r) on P^(r-1)."""
    from qsmooth.toric import make_wps

    rows = [tuple(3 if j == i else 1 if j == (i + 1) % r else 0 for j in range(r)) for i in range(r)]
    return monomial_system(make_wps([1] * r), rows)


def segment_system(k, closed):
    """x_i*y_i^2, x_i*y_(i+1)^2 and x_i^3 for i < k, on P^(2k-1) with the y
    indices taken mod k when ``closed`` (the cycle), else on P^(2k) (the path).

    Variables 0..k-1 are the x_i and the y_j follow.  In the stratum of the
    x_i each face is a segment along y_(i+1)^2 - y_i^2.  On the cycle these
    k directions sum to zero and any k - 1 are independent, so the only
    degenerate gamma is the whole stratum; on the path there is none.
    """
    from qsmooth.toric import make_wps

    r = 2 * k if closed else 2 * k + 1
    rows = []
    for i in range(k):
        for y in (i, (i + 1) % k if closed else i + 1):
            rows.append(tuple(1 if j == i else 2 if j == k + y else 0 for j in range(r)))
        rows.append(tuple(3 if j == i else 0 for j in range(r)))
    return monomial_system(make_wps([1] * r), rows)
