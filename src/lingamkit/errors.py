"""Exception hierarchy shared by every estimator and the CLI.

Each class doubles as a machine-parseable error code: the CLI prints
``ClassName: message`` on failure, so class names are part of the
public surface and must stay stable.
"""


class LingamError(Exception):
    """Base class for all errors raised by this package."""

    @property
    def code(self) -> str:
        return type(self).__name__


class DimensionError(LingamError):
    """Input has an unusable shape (e.g. fewer than two observations)."""


class DimensionMismatch(DimensionError):
    """Two inputs that must share dimensions do not."""


class ZeroVariance(LingamError):
    """A vector that must vary is constant."""


class ZeroVarianceRow(ZeroVariance):
    """A data row is constant; carries the 1-based row subscript."""

    def __init__(self, subscript: int, message: str):
        self.subscript = subscript
        super().__init__(message)


class NonFiniteValue(LingamError):
    """Input data or a score holds NaN or an infinity."""


class SingularDesign(LingamError):
    """Regression Gram matrix is numerically singular."""


class TooFewObservations(LingamError):
    """A regression has at least as many predictors as observations."""


class InvalidPermutation(LingamError):
    """A subscript sequence is not a permutation of 1..p."""


class NotInActiveSet(LingamError):
    """Requested variable subscript is outside the active set."""


class RankDeficient(LingamError):
    """Sample covariance is singular; ICA whitening is impossible."""


class NoFeasibleAssignment(LingamError):
    """Every row permutation leaves a zero on the unmixing diagonal."""


class ZeroDiagonal(LingamError):
    """A matrix that must have a nonzero diagonal does not."""


class TooManySingularResamples(LingamError):
    """Bootstrap retry budget exhausted on degenerate resamples."""


class ParseError(LingamError):
    """CSV structure could not be parsed; carries 1-based location."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__(message)


class RaggedRows(ParseError):
    """CSV rows have inconsistent lengths."""

    def __init__(self, line: int, expected: int, got: int):
        self.expected = expected
        self.got = got
        super().__init__(line, got, f"line {line} has {got} cells, expected {expected}")


class NonNumericCell(ParseError):
    """A CSV cell could not be read as a number."""

    def __init__(self, line: int, column: int, cell: str):
        self.cell = cell
        super().__init__(line, column, f"non-numeric cell {cell!r} at line {line}, column {column}")


class SchemaVersionError(LingamError):
    """A JSON document declares an unsupported major schema version."""
