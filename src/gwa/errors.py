"""Exception types shared across the package."""


class GwaError(Exception):
    """Base class for all errors raised by this package."""


class FieldMismatch(GwaError):
    pass


class DivisionByZero(GwaError):
    pass


class NoSuchRoot(GwaError):
    pass


class ZeroElement(GwaError):
    pass


class RingMismatch(GwaError):
    pass


class NonCommutingAutomorphisms(GwaError):
    pass


class NonInvertibleMap(GwaError):
    pass


class UnsupportedFamily(GwaError):
    pass


class PresentationMismatch(GwaError):
    pass


class UnsupportedRing(GwaError):
    pass


class ClosureBudgetExceeded(GwaError):
    pass


class NotPhiStable(GwaError):
    pass


class NotAWhittakerPair(GwaError):
    pass


class TruncationTooSmall(GwaError):
    pass


class InvalidParameters(GwaError):
    pass


class ScalarTooLarge(GwaError):
    """A scalar with more digits than Python will print as decimal text."""


class TelescopingUnsolvable(GwaError):
    pass


class HypothesisViolated(GwaError):
    pass


class InternalConsistencyError(GwaError):
    """A fact the underlying theory guarantees failed to verify; this is a bug."""


class ExprSyntaxError(GwaError):
    """Parse failure, carrying the 0-based offset of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbol(ExprSyntaxError):
    pass
