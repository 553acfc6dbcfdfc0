"""Exception hierarchy shared by all modules.

Mathematical falsity (a condition that simply does not hold) is returned as
report data, never raised; the UAError classes cover malformed input and
broken preconditions, and InternalInconsistency a failed cross-check.
"""

from __future__ import annotations


class UAError(Exception):
    """Base class for all errors raised by this package."""


class SignatureMismatch(UAError):
    pass


class SizeMismatch(UAError):
    pass


class SizeLimitExceeded(UAError):
    pass


class TermSyntaxError(UAError):
    """Unparseable term text; `position` is the 1-based offset of the failure."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnknownSymbol(UAError):
    pass


class ArityMismatch(UAError):
    pass


class MissingAssignment(UAError):
    pass


class NotAHomomorphism(UAError):
    pass


class NotACongruence(UAError):
    pass


class NotASubalgebra(UAError):
    pass


class NotIdempotent(UAError):
    pass


class TableRangeError(UAError):
    pass


class ParseError(UAError):
    """Bad workspace file; carries source name, line and column (1-based)."""

    def __init__(self, message: str, source: str = "<input>", line: int = 0, column: int = 0):
        super().__init__(f"{source}:{line}:{column}: {message}")
        self.source = source
        self.line = line
        self.column = column


class DuplicateName(UAError):
    pass


class PointednessViolation(UAError):
    pass


class IdentityFailure(UAError):
    """A constructed algebra fails its variety; carries the first witness."""

    def __init__(self, message: str, identity=None, assignment=None):
        super().__init__(message)
        self.identity = identity
        self.assignment = assignment


class ShapeMismatch(UAError):
    pass


class SectionViolation(UAError):
    pass


class EndpointMismatch(UAError):
    pass


class NotAutomorphism(UAError):
    pass


class NotAnAction(UAError):
    pass


class ConditionViolation(UAError):
    """A numbered compatibility condition failed; carries which and a witness."""

    def __init__(self, message: str, condition: str = "", witness=None):
        super().__init__(message)
        self.condition = condition
        self.witness = witness


class CompatibilityViolation(ConditionViolation):
    pass


class NotNormal(UAError):
    pass


class NotSubgroup(UAError):
    pass


class NotSubdigroup(UAError):
    pass


class NotIdeal(UAError):
    pass


class HypothesisViolation(UAError):
    pass


class AxiomFailure(UAError):
    pass


class DecompositionInvalid(UAError):
    pass


class NotASubheap(UAError):
    pass


class EmptySet(UAError):
    pass


class InternalInconsistency(Exception):
    """Two computations that must agree did not; deliberately not a UAError."""


def crosscheck(holds: bool, message: str) -> None:
    """Raise InternalInconsistency(message) unless `holds`. Unlike `assert`,
    it runs under `python -O` too, so that mode returns the same answers."""
    if not holds:
        raise InternalInconsistency(message)
