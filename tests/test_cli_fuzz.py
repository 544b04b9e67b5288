"""Seeded fuzz of the parsers and the CLI: any input ends in exit 0, 1 or 2.

Each example writes small ambient, monomial and polytope files, drawn to
include rational coordinates, unknown sections, out-of-range indices and
zero or negative weights, and runs one of the eight commands on them.  A
run may succeed or report an error, but it never ends in an internal error.
"""

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qsmooth.cli import RunConfig, run

COMMANDS = (
    "check", "strata", "validate", "delsarte", "transpose",
    "goodpair", "dualize", "induce",
)
ints = st.integers(-2, 3)


def _lines(rows):
    return "".join(" ".join(str(x) for x in row) + "\n" for row in rows)


def _rows(r, max_rows=5):
    return st.lists(st.lists(ints, min_size=r, max_size=r), min_size=1, max_size=max_rows)


@st.composite
def ambient_text(draw, r):
    """Mostly weighted projective spaces, some of them with a zero or
    negative weight, else random quotients and fans."""
    index = st.integers(0, r + 1)
    kind = draw(st.sampled_from(["wps", "wps", "quotient", "fan"]))
    if kind == "wps":
        weights = [1] * r if draw(st.booleans()) else draw(st.lists(ints, min_size=r, max_size=r))
        text = "[grading]\n" + _lines([weights])
        text += "[irrelevant]\n" + _lines([range(1, r + 1)])
    elif kind == "quotient":
        text = "[grading]\n" + _lines(draw(_rows(r, max_rows=2)))
        if draw(st.booleans()):
            q = draw(st.integers(0, 3))
            text += f"[torsion]\n{q} | " + _lines([draw(st.lists(ints, min_size=r, max_size=r))])
        components = st.lists(index, min_size=1, max_size=r)
        text += "[irrelevant]\n" + _lines(draw(st.lists(components, min_size=1, max_size=2)))
    else:
        n = draw(st.integers(1, 3))
        text = "[rays]\n" + _lines(draw(_rows(n, max_rows=r)))
        cones = st.lists(index, min_size=1, max_size=n)
        text += "[cones]\n" + _lines(draw(st.lists(cones, min_size=1, max_size=5)))
    return draw(st.sampled_from([text] * 4 + [text + "[bogus]\n", "1 2\n" + text]))


@st.composite
def monomials_text(draw, r):
    """Rows of one total degree (homogeneous on P^(r-1)), random rows, or
    symbolic products with out-of-range variables and negative entries."""
    kind = draw(st.sampled_from(["degree", "degree", "random", "symbolic"]))
    if kind == "degree":
        d = draw(st.integers(1, 4))
        rows = set()
        for _ in range(draw(st.integers(1, r + 2))):
            cuts = sorted(draw(st.lists(st.integers(0, d), min_size=r - 1, max_size=r - 1)))
            rows.add(tuple(b - a for a, b in zip([0] + cuts, cuts + [d])))
        return _lines(sorted(rows))
    if kind == "random":
        width = draw(st.sampled_from([r, r, r + 1]))
        return _lines(draw(_rows(width)))
    factor = st.tuples(st.integers(0, r + 1), st.integers(1, 3))
    products = draw(st.lists(st.lists(factor, min_size=1, max_size=3), max_size=5))
    return "".join("*".join(f"x{i}^{e}" for i, e in factors) + "\n" for factors in products)


coordinate = st.one_of(ints.map(str), st.sampled_from(["1/2", "-1/2", "2/3", "1/0", "a"]))


@st.composite
def polytope_text(draw, dim):
    """Mostly a cross-polytope, scaled, with extra points, some rational;
    else random points."""
    if draw(st.booleans()):
        scale = draw(st.integers(1, 2))
        points = [
            [scale * (j == i) * sign for j in range(dim)] for i in range(dim) for sign in (1, -1)
        ]
        points += draw(st.lists(st.lists(coordinate, min_size=dim, max_size=dim), max_size=2))
        return _lines(points)
    point = st.lists(coordinate, min_size=dim, max_size=dim)
    return _lines(draw(st.lists(point, min_size=1, max_size=6)))


@st.composite
def cli_case(draw):
    r = draw(st.integers(1, 5))
    dim = draw(st.integers(1, 3))
    return {
        "command": draw(st.sampled_from(COMMANDS)),
        "ambient": draw(ambient_text(r)),
        "monomials": draw(monomials_text(draw(st.sampled_from([r, r, r - 1 or 1])))),
        "p1": draw(polytope_text(dim)),
        "p2": draw(polytope_text(draw(st.sampled_from([dim, dim, dim + 1])))),
        "method": draw(st.sampled_from(["rank", "polytope", "both"])),
        "output": draw(st.sampled_from(["text", "machine"])),
        "witness": draw(st.booleans()),
    }


GOODPAIR_RATIONAL_P1 = {
    "command": "goodpair",
    "ambient": "",
    "monomials": "",
    "p1": "1/2 0\n0 1\n-1 -1\n",
    "p2": "2 0\n0 2\n-2 -2\n",
    "method": "both",
    "output": "text",
    "witness": False,
}


@settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=cli_case())
@example(case=GOODPAIR_RATIONAL_P1)
def test_cli_never_fails_internally(case):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name in ("ambient", "monomials", "p1", "p2"):
            paths[name] = str(Path(tmp, f"{name}.txt"))
            Path(paths[name]).write_text(case[name], encoding="utf-8")
        cfg = RunConfig(
            command=case["command"],
            ambient_path=paths["ambient"],
            monomials_path=paths["monomials"],
            p1_path=paths["p1"],
            p2_path=paths["p2"],
            method=case["method"],
            output=case["output"],
            witness=case["witness"],
        )
        code, report = run(cfg)
    assert code in (0, 1, 2)
    assert "internal error" not in report, report
