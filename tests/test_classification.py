"""Published counts of quasismooth Calabi-Yau weighted hypersurfaces.

A weight system w (sorted, gcd 1) counts when the general member of
degree ``d = sum(w)`` in P(w) is quasismooth.  There are 3 for curves
(n = 3) and 95 for K3 surfaces (n = 4: Reid 1979, Yonemura 1990,
Iano-Fletcher 2000); the largest K3 degree is 66, at P(5, 6, 22, 33).
Each candidate's complete system of degree-d monomials is decided by
``wps_check`` and by ``is_quasismooth`` under ``both`` and ``polytope``,
and the three must agree.  These systems have many more monomials than
variables, so they run the Newton hull and the face table on inputs that
the atomic sums do not reach.

Not every K3 entry is a Delsarte sum: four have no square subsystem of
pointer rows x_i^a or x_i^a * x_j (a >= 2) that ``classify_atomic``
decomposes, since in each two variables point at the same third one.
"""

import itertools

from generators import calabi_yau_candidates, complete_wps_system
from qsmooth.cli import RunConfig, run
from qsmooth.delsarte import classify_atomic, wps_check
from qsmooth.linsys import format_monomials
from qsmooth.qscheck import Method, is_quasismooth
from qsmooth.toric import format_ambient, make_wps


def _quasismooth_weights(n, max_degree):
    found, candidates = [], 0
    for weights, degree in calabi_yau_candidates(n, max_degree):
        candidates += 1
        sys_ = complete_wps_system(weights, degree)
        verdicts = {
            wps_check(sys_).quasismooth,
            is_quasismooth(sys_, Method.BOTH).quasismooth,
            is_quasismooth(sys_, Method.POLYTOPE).quasismooth,
        }
        assert len(verdicts) == 1, f"methods disagree on {weights}"
        if verdicts.pop():
            found.append((weights, degree))
    return found, candidates


def test_curves():
    found, candidates = _quasismooth_weights(3, 60)
    assert candidates == 45
    assert found == [((1, 1, 1), 3), ((1, 1, 2), 4), ((1, 2, 3), 6)]


def test_k3_surfaces():
    found, candidates = _quasismooth_weights(4, 66)
    assert candidates == 208
    assert len(found) == 95
    assert max(degree for _, degree in found) == 66
    assert ((5, 6, 22, 33), 66) in found
    assert ((1, 1, 1, 1), 4) in found and ((1, 6, 14, 21), 42) in found


def _has_atomic_subsystem(sys_, weights):
    """Some choice of one pointer row per variable decomposes into atomic types."""
    pointers = [
        [row for row in sys_.exponents if row[i] >= 2 and sum(row) - row[i] <= 1]
        for i in range(sys_.num_vars)
    ]
    return any(classify_atomic(rows, weights) for rows in itertools.product(*pointers))


def test_k3_surfaces_without_an_atomic_sum(tmp_path):
    found, _ = _quasismooth_weights(4, 66)
    missing = [
        (weights, degree)
        for weights, degree in found
        if not _has_atomic_subsystem(complete_wps_system(weights, degree), weights)
    ]
    assert len(found) - len(missing) == 91
    assert missing == [
        ((2, 4, 5, 11), 22), ((3, 4, 10, 17), 34), ((4, 6, 7, 17), 34), ((5, 6, 8, 19), 38),
    ]
    ambient, monomials = tmp_path / "ambient.txt", tmp_path / "monomials.txt"
    for weights, degree in missing:
        ambient.write_text(format_ambient(make_wps(weights)), encoding="utf-8")
        rows = complete_wps_system(weights, degree).exponents
        monomials.write_text(format_monomials(rows), encoding="utf-8")
        code, report = run(RunConfig("check", str(ambient), str(monomials), output="machine"))
        assert code == 0 and "status = quasismooth" in report, weights
