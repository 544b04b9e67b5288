"""Independent reference checker for the reports of ``qsmooth``.

Nothing here imports the package.  Ranks, linear solves, convex-hull
membership and low-dimensional facets are recomputed with this file's own
exact integer / ``Fraction`` arithmetic, and every report is compared
against the rank characterisation of quasismoothness taken over *all*
exponent rows.  That is sound: a non-vertex row of a face is a convex
combination of the vertex rows of the same face, so it changes neither
the base locus nor any span the rank test looks at.

Every check raises ``Mismatch`` with a message naming what disagreed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from functools import lru_cache
from math import gcd


class Mismatch(AssertionError):
    """A report disagrees with the reference."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


# ---------------------------------------------------------------------------
# exact linear algebra


def rank(rows) -> int:
    """Rank over the rationals by integer row reduction with gcd cleanup."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return 0
    width = len(work[0])
    rk = 0
    for col in range(width):
        pivot = next((i for i in range(rk, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rk], work[pivot] = work[pivot], work[rk]
        p = work[rk]
        for i in range(rk + 1, len(work)):
            a = work[i][col]
            if a:
                row = [x * p[col] - y * a for x, y in zip(work[i], p)]
                g = 0
                for x in row:
                    g = gcd(g, x)
                work[i] = [x // g for x in row] if g > 1 else row
        rk += 1
        if rk == len(work):
            break
    return rk


def solve(matrix, rhs):
    """Unique solution of a square system over the rationals, or None."""
    n = len(matrix)
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if aug[i][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [row[n] for row in aug]


def in_hull(point, others) -> bool:
    """Exact test: is ``point`` a convex combination of ``others``?

    Phase one of the simplex method on ``sum l_i q_i = p, sum l_i = 1,
    l >= 0`` with one artificial variable per equation and Bland's rule.
    """
    if not others:
        return False
    k = len(others)
    eqs = [[Fraction(q[j]) for q in others] + [Fraction(point[j])] for j in range(len(point))]
    eqs.append([Fraction(1)] * k + [Fraction(1)])
    m = len(eqs)
    for row in eqs:
        if row[-1] < 0:
            row[:] = [-x for x in row]
    # columns: k lambdas, m artificials, rhs
    tab = [row[:k] + [Fraction(int(i == j)) for j in range(m)] + [row[-1]] for i, row in enumerate(eqs)]
    basis = [k + i for i in range(m)]
    cost = [-sum(row[j] for row in tab) for j in range(k)] + [Fraction(0)] * m
    cost.append(-sum(row[-1] for row in tab))
    while True:
        entering = next((j for j in range(k + m) if cost[j] < 0), None)
        if entering is None:
            break
        leaving, best = None, None
        for i, row in enumerate(tab):
            if row[entering] > 0:
                ratio = row[-1] / row[entering]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    leaving, best = i, ratio
        piv = tab[leaving][entering]
        tab[leaving] = [x / piv for x in tab[leaving]]
        for i, row in enumerate(tab):
            if i != leaving and row[entering]:
                f = row[entering]
                tab[i] = [x - f * y for x, y in zip(row, tab[leaving])]
        f = cost[entering]
        cost = [x - f * y for x, y in zip(cost, tab[leaving])]
        basis[leaving] = entering
    return cost[-1] == 0


def hull_vertices(points) -> list[int]:
    """1-based indices of the points that lie outside the hull of the rest."""
    if rank([[a - b for a, b in zip(p, points[0])] for p in points[1:]]) == len(points) - 1:
        return list(range(1, len(points) + 1))  # affinely independent
    out = []
    for i, p in enumerate(points):
        if not in_hull(p, [q for j, q in enumerate(points) if j != i]):
            out.append(i + 1)
    return out


# ---------------------------------------------------------------------------
# the rank characterisation, brute force over variable subsets


def relevant_from_cones(cones):
    """Predicate: a subset is relevant when some maximal cone contains it."""
    faces = {sub for cone in cones for k in range(len(cone) + 1)
             for sub in combinations(sorted(cone), k)}
    return lambda c: tuple(sorted(c)) in faces


def relevant_from_irrelevant(components):
    """Predicate: a subset is relevant when it contains no irrelevant component."""
    comps = [frozenset(c) for c in components]
    return lambda c: not any(comp <= set(c) for comp in comps)


def hits(row, c) -> bool:
    return any(row[j] for j in c)


def base_strata(rows, num_vars, relevant):
    """Every nonempty relevant subset hit by every row, in (size, lex) order.

    Subsets are bitmasks: each row keeps only the subsets that meet its
    support, and the relevance predicate runs on the few that are left.
    """
    found = range(1, 1 << num_vars)
    for row in rows:
        support = sum(1 << j for j, e in enumerate(row) if e)
        found = [c for c in found if c & support]
    subsets = (tuple(j for j in range(num_vars) if c >> j & 1) for c in found)
    return sorted((c for c in subsets if relevant(c)), key=lambda c: (len(c), c))


def m_gamma(rows, stratum, gamma):
    rest = [j for j in stratum if j not in gamma]
    return [
        row for row in rows
        if sum(row[j] for j in gamma) == 1 and not any(row[j] for j in rest)
    ]


def gamma_ranks(rows, stratum, gamma):
    sel = m_gamma(rows, stratum, gamma)
    return rank([[row[j] for j in gamma] for row in sel]), rank(sel)


def stratum_result(rows, stratum):
    """First passing gamma with its ranks, or the failure reason."""
    candidates = [rho for rho in stratum if m_gamma(rows, stratum, (rho,))]
    if not candidates:
        return ("fail", "all_faces_empty")
    for size in range(1, len(candidates) + 1):
        for gamma in combinations(candidates, size):
            if not m_gamma(rows, stratum, gamma):
                continue
            small, big = gamma_ranks(rows, stratum, gamma)
            if 2 * small > big:
                return ("pass", gamma, small, big)
    return ("fail", "no_degenerate_subcollection")


# ---------------------------------------------------------------------------
# report parsing


def sections(report: str):
    """``[name]`` blocks of ``key = value`` lines, in order."""
    out = []
    for line in report.splitlines():
        if line.startswith("[") and line.endswith("]"):
            out.append((line[1:-1], {}))
        elif " = " in line and out:
            key, value = line.split(" = ", 1)
            out[-1][1][key] = value
    return out


def variables(text: str) -> tuple[int, ...]:
    return tuple(int(tok[1:]) - 1 for tok in text.split())


def section(secs, name):
    found = [body for n, body in secs if n == name]
    expect(len(found) == 1, f"expected one [{name}] section, found {len(found)}")
    return found[0]


def witness_sections(secs):
    return [body for n, body in secs if n.startswith("stratum ")]


def check_system_header(secs, rows, num_vars, vertices=None):
    """``vertices``: the expected 1-based Newton vertex rows, or None to skip."""
    head = section(secs, "system")
    expect(head["variables"] == str(num_vars), "wrong variable count")
    expect(head["monomials"] == str(len(rows)), "wrong monomial count")
    if vertices is not None:
        want = " ".join(str(i) for i in vertices)
        expect(head["newton_vertices"] == want,
               f"newton_vertices {head['newton_vertices']!r}, reference {want!r}")


def check_witness(rows, w):
    """Re-rank one printed witness; returns its stratum and gamma."""
    stratum, gamma = variables(w["vars"]), variables(w["gamma"])
    expect(bool(gamma) and set(gamma) <= set(stratum), f"gamma {gamma} not inside {stratum}")
    expect(all(hits(row, stratum) for row in rows), f"stratum {stratum} missed by a row")
    small, big = gamma_ranks(rows, stratum, gamma)
    expect(w["k"] == str(len(gamma)), f"k of {stratum} is not |gamma|")
    expect((w["rank_small"], w["rank_big"]) == (str(small), str(big)),
           f"ranks of {stratum}: printed {w['rank_small']}/{w['rank_big']}, reference {small}/{big}")
    expect(2 * small > big, f"witness of {stratum} does not pass 2*rank_small > rank_big")
    return stratum, gamma


def check_report(report, rows, num_vars, relevant, vertices=None):
    """Full brute-force check of ``check --output machine --witness``.

    Returns the verdict as ``True`` / ``False``.
    """
    secs = sections(report)
    check_system_header(secs, rows, num_vars, vertices)
    verdict = section(secs, "verdict")
    witnesses = witness_sections(secs)
    if any(sum(row) == 1 for row in rows):
        expect(verdict["status"] == "quasismooth", "generator row but not quasismooth")
        expect(verdict.get("shortcut") == "generator_in_basis", "generator shortcut not reported")
        expect(not witnesses, "witnesses printed for a generator shortcut")
        return True
    expect("shortcut" not in verdict, "unexpected shortcut")
    results = []
    for st in base_strata(rows, num_vars, relevant):
        res = stratum_result(rows, st)
        results.append((st, res))
        if res[0] == "fail":
            expect(verdict["status"] == "not_quasismooth", f"stratum {st} fails, status {verdict['status']}")
            fail = section(secs, "failing_stratum")
            expect(variables(fail["vars"]) == st,
                   f"failing stratum {fail['vars']!r}, reference first failure {st}")
            expect(fail["reason"] == res[1], f"reason {fail['reason']}, reference {res[1]}")
            expect(not witnesses, "witnesses printed for a failing system")
            return False
    expect(verdict["status"] == "quasismooth", "every stratum passes, status disagrees")
    expect(not any(n == "failing_stratum" for n, _ in secs), "failing stratum on a pass")
    expect(len(witnesses) == len(results),
           f"{len(witnesses)} witnesses for {len(results)} base strata")
    for w, (st, res) in zip(witnesses, results):
        stratum, gamma = check_witness(rows, w)
        expect(stratum == st, f"witness stratum {stratum}, reference {st}")
        expect(gamma == res[1], f"gamma {gamma} of {st}, reference first gamma {res[1]}")
    return True


# ---------------------------------------------------------------------------
# weighted projective spaces: Delsarte decomposition and transposition


def replay_decomposition(text: str, num_vars: int):
    """Rows of a printed ``fermat(..) + chain(..) + loop(..)`` sum."""
    out = []
    for part in text.split(" + "):
        kind, inner = part[:-1].split("(", 1)
        terms = inner.split("->")
        if kind == "loop":
            expect(terms[-1] == terms[0].split("^")[0], f"loop {part} does not close")
            terms = terms[:-1]
        atoms = [(int(t.split("^")[0][1:]) - 1, int(t.split("^")[1])) for t in terms]
        for pos, (var, exp) in enumerate(atoms):
            row = [0] * num_vars
            row[var] = exp
            if kind == "loop":
                row[atoms[(pos + 1) % len(atoms)][0]] += 1
            elif kind == "chain" and pos + 1 < len(atoms):
                row[atoms[pos + 1][0]] += 1
            out.append(tuple(row))
    return out


def check_delsarte(report, rows):
    body = section(sections(report), "delsarte")
    expect(body["decomposable"] == "true", "atomic sum reported not decomposable")
    n = len(rows)
    expect(sorted(replay_decomposition(body["decomposition"], n)) == sorted(rows),
           "decomposition does not replay the input rows")
    perm = [int(x) - 1 for x in body["row_permutation"].split()]
    expect(sorted(perm) == list(range(n)), "row_permutation is not a permutation")
    expect(all(rows[perm[j]][j] > 1 for j in range(n)), "row_permutation misplaces a diagonal")


def normalized_weights(rows):
    """Positive primitive (weights, degree) with ``rows . w = degree``."""
    sol = solve(rows, [1] * len(rows))
    expect(sol is not None and all(x > 0 for x in sol), "no positive weights")
    lcm = 1
    for x in sol:
        lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    raw = [int(x * lcm) for x in sol]
    g = lcm
    for v in raw:
        g = gcd(g, v)
    return tuple(v // g for v in raw), lcm // g


def check_transpose(report, rows, weights, degree):
    body = dict(section(sections(report), "transpose"))
    dual_rows = [tuple(int(x) for x in line.split(" = ", 1)[1].split())
                 for line in report.splitlines() if line.startswith("monomial = ")]
    n = len(rows)
    expect(dual_rows == [tuple(r[i] for r in rows) for i in range(n)], "dual rows are not the transpose")
    dual_w = tuple(int(x) for x in body["weights"].split())
    dual_d = int(body["degree"])
    expect((dual_w, dual_d) == normalized_weights(dual_rows), "dual weights are not the normalized solution")
    back = [tuple(r[i] for r in dual_rows) for i in range(n)]
    expect(back == [tuple(r) for r in rows], "transposing twice does not return the rows")
    expect(normalized_weights(back) == (tuple(weights), degree),
           "transposing twice does not return the weights and degree")


# ---------------------------------------------------------------------------
# polytopes in dimension 2 and 3: facets by brute force


def _normal(points):
    """Integer normal of the affine hull of 2 (d=2) or 3 (d=3) points."""
    base = points[0]
    diffs = [[p[j] - base[j] for j in range(len(base))] for p in points[1:]]
    if len(base) == 2:
        (a, b), = diffs
        return (-b, a)
    (a1, a2, a3), (b1, b2, b3) = diffs
    return (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)


def facets(points):
    """Inner facet inequalities ``<n, x> >= c`` with primitive ``n``."""
    return _facets(tuple(sorted(tuple(int(x) for x in p) for p in points)))


@lru_cache(maxsize=None)
def _facets(pts):
    d = len(pts[0])
    out = set()
    for sub in combinations(pts, d):
        n = _normal(sub)
        if not any(n):
            continue
        vals = [sum(a * b for a, b in zip(n, p)) for p in pts]
        c = sum(a * b for a, b in zip(n, sub[0]))
        if all(v >= c for v in vals):
            pass
        elif all(v <= c for v in vals):
            n, c = tuple(-a for a in n), -c
        else:
            continue
        g = 0
        for a in n:
            g = gcd(g, a)
        out.add((tuple(a // g for a in n), c // g))
    return sorted(out)


def lattice_points(vertices, strict=False):
    fs = facets(vertices)
    d = len(vertices[0])
    box = [range(min(v[j] for v in vertices), max(v[j] for v in vertices) + 1) for j in range(d)]
    out = []
    for p in product(*box):
        vals = [sum(a * b for a, b in zip(n, p)) - c for n, c in fs]
        if all(v > 0 for v in vals) if strict else all(v >= 0 for v in vals):
            out.append(p)
    return out


def contains(vertices, point) -> bool:
    return all(sum(a * b for a, b in zip(n, point)) >= c for n, c in facets(vertices))


def vertex_set(points):
    """Points of a full-dimensional 2- or 3-polytope on d independent facets."""
    fs = facets(points)
    d = len(points[0])
    pts = sorted({tuple(int(x) for x in p) for p in points})
    return [p for p in pts
            if rank([n for n, c in fs if sum(a * b for a, b in zip(n, p)) == c]) == d]


def polar(vertices):
    """Vertices of the polar, one per facet, as Fractions (origin interior)."""
    return [tuple(Fraction(a, -c) for a in n) for n, c in facets(vertices)]


def dualizable(p1, p2) -> bool:
    """Both polars exist (the origin is interior) and are integral."""
    return all(
        all(c < 0 for _, c in facets(p)) and all(x.denominator == 1 for v in polar(p) for x in v)
        for p in (p1, p2)
    )


def is_canonical(vertices) -> bool:
    return lattice_points(vertices, strict=True) == [tuple(0 for _ in vertices[0])]


def good_pair(p1, p2):
    """(contains, p1_canonical, p2star_canonical, p2star_integral, good)."""
    inside = all(contains(p2, v) for v in p1)
    can1 = is_canonical(p1)
    star = polar(p2)
    integral = all(x.denominator == 1 for v in star for x in v)
    can2 = integral and is_canonical([tuple(int(x) for x in v) for v in star])
    return inside, can1, can2, integral, inside and can1 and can2


def check_goodpair(report, p1, p2):
    body = section(sections(report), "goodpair")
    want = good_pair(p1, p2)
    got = tuple(body[k] == "true" for k in
                ("contains", "p1_canonical", "p2star_canonical", "p2star_integral", "good"))
    expect(got == want, f"goodpair flags {got}, reference {want}")
    return want[-1]


def check_induced(ambient_text, monomials_text, p1, p2):
    """Each induced row is ``<m, ray> + 1`` for the lattice points m of P1.

    The rays must be the primitive inner facet normals of P2 and each cone
    the facets through one vertex of P2; the points m are recovered from
    the rows and must be exactly the lattice points of P1.  Returns the
    rows, the cones as 0-based ray indices and the 1-based Newton vertex
    rows: the map m -> row is affine and injective, so those are the rows
    of the vertices of P1.
    """
    secs = {}
    current = None
    for line in ambient_text.splitlines():
        if line.startswith("["):
            current = secs.setdefault(line, [])
        elif line.strip():
            current.append(tuple(int(x) for x in line.split()))
    rays = secs.get("[rays]", [])
    cones = [tuple(i - 1 for i in c) for c in secs.get("[cones]", [])]
    fs = facets(p2)
    expect(sorted(rays) == [n for n, _ in fs], "rays are not the facet normals of P2")
    want = sorted(
        sorted(n for n, c in fs if sum(a * b for a, b in zip(n, v)) == c) for v in vertex_set(p2)
    )
    expect(sorted(sorted(rays[i] for i in cone) for cone in cones) == want,
           "cones are not the facets through the vertices of P2")
    rows = [tuple(int(x) for x in line.split()) for line in monomials_text.splitlines() if line.strip()]
    d = len(p1[0])
    basis = next(sub for sub in combinations(range(len(rays)), d)
                 if rank([rays[i] for i in sub]) == d)
    points = []
    for row in rows:
        m = solve([rays[i] for i in basis], [row[i] - 1 for i in basis])
        expect(all(x.denominator == 1 for x in m), f"row {row} has no integral preimage")
        m = tuple(int(x) for x in m)
        expect(all(sum(a * b for a, b in zip(m, ray)) + 1 == e for ray, e in zip(rays, row)),
               f"row {row} is not <m, ray> + 1")
        points.append(m)
    expect(sorted(points) == lattice_points(p1), "induced points are not the lattice points of P1")
    corners = set(vertex_set(p1))
    return rows, cones, [i + 1 for i, m in enumerate(points) if m in corners]


def check_dualize(report_primal, report_back, p1, p2):
    """``dualize`` twice returns the pair; once gives the polars swapped."""
    def parse(report):
        blocks, cur = [], None
        for line in report.splitlines():
            if line.startswith("#"):
                cur = []
                blocks.append(cur)
            elif line.strip():
                cur.append(tuple(int(x) for x in line.split()))
        expect(len(blocks) == 2, "dualize did not print two polytopes")
        return blocks
    q1, q2 = parse(report_primal)
    expect(sorted(q1) == sorted(tuple(int(x) for x in v) for v in polar(p2)), "first dual is not P2*")
    expect(sorted(q2) == sorted(tuple(int(x) for x in v) for v in polar(p1)), "second dual is not P1*")
    b1, b2 = parse(report_back)
    expect(sorted(b1) == sorted(vertex_set(p1)) and sorted(b2) == sorted(vertex_set(p2)),
           "dualize is not an involution")

