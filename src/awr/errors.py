"""Exception types shared across the package."""


class AwrError(Exception):
    """Base class for all library errors."""


class DomainViolation(AwrError):
    """Evaluation point lies outside the open unit disk."""


class PoleAtPoint(AwrError):
    """A map denominator vanishes, or rounds to 0, at the requested point."""


class PoleInDomain(AwrError):
    """A Mobius renormalization would introduce a pole inside the disk."""


class BasePointMismatch(AwrError):
    """Jet composition was attempted with misaligned base points."""


class CriticalPoint(AwrError):
    """First derivative vanishes where a nonzero derivative is required."""


class CoincidentPoints(AwrError):
    """Two points that must be distinct coincide to working precision."""


class DegenerateDomain(AwrError):
    """A scan produced no usable geometry (e.g. every reflection infinite)."""


class OutOfDoubleRange(AwrError):
    """A jet or a value built from it left double range at a point of the open disk."""


class ParamOutOfRange(AwrError):
    """A map parameter violates its documented range."""


class ConsistencyError(AwrError):
    """Two independent computations of the same quantity disagree."""


class MapSyntaxError(AwrError):
    """Malformed map expression text.

    Carries the byte offset of the first offending character.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownName(AwrError):
    """Map expression names an unknown constructor."""


class BadParam(AwrError):
    """Map expression passes a wrong, missing, or out-of-range parameter."""
