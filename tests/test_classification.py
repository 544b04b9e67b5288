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
"""

from generators import calabi_yau_candidates, complete_wps_system
from qsmooth.delsarte import wps_check
from qsmooth.qscheck import Method, is_quasismooth


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
