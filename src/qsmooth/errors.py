"""Exception hierarchy shared across the package.

Every error raised on a user-facing path derives from :class:`QsmoothError`,
so the CLI can map any of them to exit code 2.  ``read_input`` turns a
missing, unreadable or undecodable input file into a :class:`ParseError`.
"""

from __future__ import annotations


class QsmoothError(Exception):
    """Base class for all package errors."""


class InvariantViolation(QsmoothError):
    """An exact re-check of a computed result failed; signals a bug, not bad input."""


class ParseError(QsmoothError):
    """Malformed input file; carries the file path and 1-based line number."""

    def __init__(self, message: str, path: str = "<string>", line: int | None = None):
        self.path = path
        self.line = line
        where = path if line is None else f"{path}:{line}"
        super().__init__(f"{where}: {message}")


def read_input(path: str) -> str:
    """The text of an input file; a file that cannot be read as UTF-8 raises ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read: {exc.strerror or exc}", path) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}", path) from exc


class EmptyInput(QsmoothError):
    """An operation received an empty point or row list."""


class DimensionMismatch(QsmoothError):
    """Vectors or polytopes of incompatible ambient dimension."""


class NotFullDim(QsmoothError):
    """Operation requires a full-dimensional polytope."""


class NotInteriorOrigin(QsmoothError):
    """Polar dual requires the origin strictly inside the polytope."""


class DegenerateFan(QsmoothError):
    """Fan rays do not span the ambient lattice over the rationals."""


class IrrelevantStratum(QsmoothError):
    """Variable subset contains an irrelevant component."""


class NotBaseStratum(QsmoothError):
    """Variable subset is not a stratum of the base locus."""


class NotHomogeneous(QsmoothError):
    """Monomials do not share a common degree; carries the offending pair."""

    def __init__(self, row_a: int, row_b: int, difference):
        self.row_a = row_a
        self.row_b = row_b
        self.difference = tuple(difference)
        super().__init__(
            f"monomials {row_a + 1} and {row_b + 1} differ in degree "
            f"(graded difference {self.difference})"
        )


class DuplicateMonomial(QsmoothError):
    """The exponent matrix contains two identical rows."""


class MethodDisagreement(QsmoothError):
    """The two decision procedures disagreed on a stratum.

    This signals an implementation bug or a genuine reading discrepancy;
    it is never resolved silently.
    """

    def __init__(self, stratum, rank_result, polytope_result):
        self.stratum = tuple(stratum)
        self.rank_result = rank_result
        self.polytope_result = polytope_result
        super().__init__(
            f"rank and polytope checks disagree on stratum {self.stratum}: "
            f"rank={rank_result!r}, polytope={polytope_result!r}"
        )


class NotFakeWPS(QsmoothError):
    """Ambient is not a fake weighted projective space."""


class GeneratorInBasis(QsmoothError):
    """The monomial basis contains a coordinate variable."""


class NotSquare(QsmoothError):
    """Exponent matrix must be square."""


class DegreeTooSmall(QsmoothError):
    """System degree does not exceed every variable degree."""


class SingularMatrix(QsmoothError):
    """Exponent matrix is not invertible over the rationals."""


class NoPositiveSolution(QsmoothError):
    """Transposed system admits no positive weight vector."""


class PointOutsideP2(QsmoothError):
    """A lattice point maps to a negative exponent."""


class BoxTooLarge(QsmoothError):
    """A lattice-point scan would visit more points than the package allows."""


class NotLatticePolytope(QsmoothError):
    """A lattice polytope was required but a vertex is not integral."""


class NonIntegralDual(QsmoothError):
    """A polar dual has non-integral vertices."""
