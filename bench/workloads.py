"""Seeded input families for the benchmark.

Each builder takes a ``random.Random`` and a directory, writes the input
files there and returns a list of ``Case``s.  A case names the files, the
``qsmooth`` commands run on them (its command sequence) and the data the
reference checker needs, which is kept from generation rather than read
back from the program.  Nothing here imports the package.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, field

import reference as ref

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


@dataclass
class Case:
    name: str
    kind: str  # "check", "wps" or "pair"
    files: dict
    num_vars: int = 0
    rows: list = field(default_factory=list)
    relevant: object = None
    data: dict = field(default_factory=dict)


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _rows_text(rows):
    return "".join(" ".join(str(x) for x in row) + "\n" for row in rows)


def _quotient_text(grading, irrelevant):
    lines = ["[grading]"] + [" ".join(str(x) for x in row) for row in grading]
    lines += ["[irrelevant]"] + [" ".join(str(i + 1) for i in comp) for comp in irrelevant]
    return "\n".join(lines) + "\n"


def _system_case(directory, name, kind, ambient_text, rows, num_vars, relevant, **data):
    files = {
        "ambient": os.path.join(directory, f"{name}.ambient"),
        "monomials": os.path.join(directory, f"{name}.monomials"),
    }
    _write(files["ambient"], ambient_text)
    _write(files["monomials"], _rows_text(rows))
    return Case(name, kind, files, num_vars, [tuple(r) for r in rows], relevant, data)


# the four worked fixtures of acceptance criteria 01-04, with their verdicts
FIXTURE_CASES = (
    ("product", "ambient_p2xp1.txt", "monomials_p2xp1_deg32.txt"),
    ("triple_line", "ambient_p1p1p1.txt", "monomials_p1p1p1_deg222.txt"),
    ("p4", "ambient_p4.txt", "monomials_p4_triple_point.txt"),
    ("blowup", "ambient_blowup_p3_quotient.txt", "monomials_blowup_p3.txt"),
)


def _read_fixture(ambient_name, monomials_name):
    """Rows and relevance predicate read with this file's own small parsers."""
    sections, current = {}, None
    with open(os.path.join(FIXTURES, ambient_name), encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line.startswith("["):
                current = sections.setdefault(line[1:-1], [])
            elif line:
                current.append(tuple(int(x) for x in line.split()))
    if "cones" in sections:
        num_vars = len(sections["rays"])
        relevant = ref.relevant_from_cones([[i - 1 for i in c] for c in sections["cones"]])
    else:
        num_vars = len(sections["grading"][0])
        relevant = ref.relevant_from_irrelevant([[i - 1 for i in c] for c in sections["irrelevant"]])
    rows = []
    with open(os.path.join(FIXTURES, monomials_name), encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            row = [0] * num_vars
            if line[0] in "xy":
                for factor in line.split("*"):
                    var, _, exp = factor.partition("^")
                    row[int(var[1:]) - 1] += int(exp or 1)
            else:
                row = [int(x) for x in line.split()]
            rows.append(tuple(row))
    return num_vars, rows, relevant


def fixture_cases():
    cases = []
    for name, amb, mon in FIXTURE_CASES:
        num_vars, rows, relevant = _read_fixture(amb, mon)
        files = {"ambient": os.path.join(FIXTURES, amb), "monomials": os.path.join(FIXTURES, mon)}
        cases.append(Case(f"fixture_{name}", "check", files, num_vars, rows, relevant, {"fixture": name}))
    return cases


# ---------------------------------------------------------------------------
# wps_wide: Fermat / chain / loop sums on weighted projective spaces


def atomic_shape(rng, num_vars):
    """Block sizes and kinds of a Fermat / chain / loop sum on num_vars variables."""
    shape = []
    while num_vars:
        size = rng.randint(1, min(3, num_vars))
        shape.append((size, "fermat" if size == 1 else rng.choice(("chain", "loop"))))
        num_vars -= size
    return shape


def atomic_sum(rng, shape, max_exp=5):
    """Rows of a sum of the given shape on shuffled variables, rows shuffled."""
    num_vars = sum(size for size, _ in shape)
    variables = list(range(num_vars))
    rng.shuffle(variables)
    rows = []
    for size, kind in shape:
        block, variables = variables[:size], variables[size:]
        for pos, var in enumerate(block):
            row = [0] * num_vars
            row[var] = rng.randint(2, max_exp)
            if kind == "loop":
                row[block[(pos + 1) % size]] += 1
            elif kind == "chain" and pos + 1 < size:
                row[block[pos + 1]] += 1
            rows.append(tuple(row))
    rng.shuffle(rows)
    return rows


# systems per variable count; the 95th percentile of 200 falls inside the r = 14 group
WPS_MIX = {11: 80, 12: 62, 13: 36, 14: 16, 15: 4, 16: 2}


def build_wps_wide(rng, directory, mix=WPS_MIX):
    """Sums of ``mix[r]`` fixed shapes per variable count r.

    The shapes (block sizes and kinds) fix the base strata, so they come
    from a constant seed and every run times the same stratum counts; the
    workload seed draws the exponents, the variable order and the row
    order.
    """
    cases = []
    for r, count in mix.items():
        shapes = random.Random(f"wps-shapes:{r}")
        for _ in range(count):
            rows = atomic_sum(rng, atomic_shape(shapes, r))
            weights, degree = ref.normalized_weights(rows)
            full = [tuple(range(r))]
            cases.append(_system_case(
                directory, f"wps{len(cases):04d}", "wps", _quotient_text([weights], full),
                rows, r, ref.relevant_from_irrelevant(full), weights=weights, degree=degree,
            ))
    return cases


# ---------------------------------------------------------------------------
# dense_newton: many more monomials than variables


def _degree_monomials(grading, degree):
    """Every exponent vector of the given multidegree (weights are positive)."""
    first = grading[0]
    bound = [degree[0] // w for w in first]
    out = []
    for exps in itertools.product(*(range(b + 1) for b in bound)):
        if all(sum(w * e for w, e in zip(row, exps)) == d for row, d in zip(grading, degree)):
            out.append(exps)
    return out


def _product_grading(blocks):
    """Grading and irrelevant components of a product of projective spaces."""
    r = sum(blocks)
    grading, comps, start = [], [], 0
    for size in blocks:
        grading.append(tuple(1 if start <= j < start + size else 0 for j in range(r)))
        comps.append(tuple(range(start, start + size)))
        start += size
    # a total-degree row first, so every weight of row 0 is positive
    total = tuple(sum(col) for col in zip(*grading))
    return [total] + grading[1:], comps


# (grading, irrelevant, degree, largest m); the cap keeps each hull small
DENSE_AMBIENTS = (
    ([(1, 1, 1, 1)], [(0, 1, 2, 3)], (3,), 12),
    ([(1, 1, 1, 2)], [(0, 1, 2, 3)], (4,), 12),
    (*_product_grading([2, 2]), (4, 2), 9),
    ([(1, 1, 1, 1, 1)], [(0, 1, 2, 3, 4)], (3,), 14),
    ([(1, 1, 1, 1, 2)], [(0, 1, 2, 3, 4)], (4,), 12),
    (*_product_grading([2, 3]), (5, 2), 14),
    ([(1,) * 6], [tuple(range(6))], (2,), 11),
    (*_product_grading([3, 3]), (4, 2), 12),
    (*_product_grading([2, 2, 2]), (6, 2, 2), 14),
    ([(1,) * 7], [tuple(range(7))], (2,), 10),
    (*_product_grading([2, 5]), (3, 1), 12),
)


def build_dense_newton(rng, directory, count=400):
    """Random m-subsets of the degree-d monomials, m from r + 2 to the cap.

    Ambient and m cycle, so every seed times the same (r, m) mix; the seed
    draws which monomials.  A subset of all the monomials is a complete
    system.  The four worked fixtures run here too.
    """
    pools = [_degree_monomials(g, d) for g, _, d, _ in DENSE_AMBIENTS]
    cases = fixture_cases()
    for i in range(count):
        k = i % len(DENSE_AMBIENTS)
        grading, comps, degree, cap = DENSE_AMBIENTS[k]
        r = len(grading[0])
        pool = pools[k]
        top = min(cap, len(pool))
        m = r + 2 + (i // len(DENSE_AMBIENTS)) % (top - r - 1)
        rows = sorted(rng.sample(pool, m))
        cases.append(_system_case(
            directory, f"dense{i:04d}", "check", _quotient_text(grading, comps),
            rows, r, ref.relevant_from_irrelevant(comps),
        ))
    return cases


# ---------------------------------------------------------------------------
# goodpair: nested polytopes P1 in P2, mostly reflexive P2


def _reflexive(rng, dim):
    """A reflexive polytope: the polar of a canonical one, when integral.

    The canonical polytope is the hull of the cross-polytope and a few
    random points of {-1, 0, 1}^dim; every lattice point other than the
    origin has a coordinate +-1, so lies on its boundary.
    """
    while True:
        pts = [tuple((1 if j == i else 0) * s for j in range(dim)) for i in range(dim) for s in (1, -1)]
        for _ in range(rng.randint(0, 3)):
            pts.append(tuple(rng.choice((-1, 0, 1)) for _ in range(dim)))
        star = ref.polar(pts)
        if all(x.denominator == 1 for v in star for x in v):
            return sorted({tuple(int(x) for x in v) for v in star})


def _full_dim(points, dim):
    base = points[0]
    return ref.rank([[a - b for a, b in zip(p, base)] for p in points[1:]]) == dim


def build_goodpair(rng, directory, count=240):
    """Pairs in dimension 2 (a third) and 3 (two thirds).

    P1 is the hull of a random set of lattice points of P2 (a full-
    dimensional one), P2 itself in one pair out of eight; a P1 holding the
    origin inside is canonical, since P2 is reflexive.  In one pair out of
    eight P2 is doubled, so its polar is not integral and the pair is not
    good, while the normal fan and the induced system stay the same.
    The pairs come from a constant seed, with the share of P2's lattice
    points drawn into P1 cycling, so every seed times the same work; the
    workload seed draws a signed permutation of the coordinates for each
    pair (a lattice automorphism that keeps every bounding box) and the
    order in which the points are listed.
    """
    shapes = random.Random("goodpair-pairs")
    cases = []
    for i in range(count):
        dim = 2 if i % 3 == 0 else 3  # not half and half: the median then sits inside one group
        p2 = _reflexive(shapes, dim)
        points = ref.lattice_points(p2)
        if i % 8 == 3:
            p1 = p2
        else:
            size = max(dim + 1, len(points) * (1 + (i // 2) % 4) // 4)
            while True:
                p1 = sorted(shapes.sample(points, size))
                if _full_dim(p1, dim):
                    break
        if i % 8 == 5:
            p2 = [tuple(2 * x for x in v) for v in p2]
        perm = rng.sample(range(dim), dim)
        signs = [rng.choice((1, -1)) for _ in range(dim)]
        p1, p2 = ([tuple(signs[j] * v[perm[j]] for j in range(dim)) for v in p] for p in (p1, p2))
        rng.shuffle(p1)
        rng.shuffle(p2)
        name = f"pair{i:04d}"
        files = {key: os.path.join(directory, f"{name}.{key}") for key in
                 ("p1", "p2", "induced_ambient", "induced_monomials")}
        _write(files["p1"], _rows_text(p1))
        _write(files["p2"], _rows_text(p2))
        cases.append(Case(name, "pair", files, data={"p1": p1, "p2": p2}))
    return cases


BUILDERS = {
    "wps_wide": build_wps_wide,
    "dense_newton": build_dense_newton,
    "goodpair": build_goodpair,
}
