"""Domain errors with stable machine-readable codes."""


class DqmatError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"


class DimensionMismatch(DqmatError):
    code = "dimension-mismatch"


class Singular(DqmatError):
    code = "singular"


class NotInAlgebra(DqmatError):
    code = "not-in-algebra"


class UnsupportedCharacteristic(DqmatError):
    code = "unsupported-characteristic"


class NotNilpotent(DqmatError):
    code = "not-nilpotent"


class NotAnIdeal(DqmatError):
    code = "not-an-ideal"


class ZeroIdeal(DqmatError):
    code = "zero-ideal"


class InadmissibleId(DqmatError):
    code = "inadmissible-id"


class ShapeMismatch(DqmatError):
    code = "shape-mismatch"


class InvalidQ(DqmatError):
    code = "invalid-q"


class InvalidInput(DqmatError):
    code = "invalid-input"


class BudgetExceeded(DqmatError):
    code = "budget-exceeded"


class NotBlockTypeMaxDim(DqmatError):
    code = "not-block-type-max-dim"


class NotCanonical(DqmatError):
    code = "not-canonical"


class ClosureViolation(DqmatError):
    code = "closure-violation"


class ResultCheckFailed(DqmatError):
    code = "result-check-failed"
