"""Exception types shared across the package."""


class LFramesError(Exception):
    """Base class for all package-specific errors."""


class NotAnchored(LFramesError):
    """Object does not meet the diagonal in the anchored configuration."""


class NotDisjoint(LFramesError):
    """The two solution sets overlap; caller must disjointify first."""


class DegeneratePosition(LFramesError):
    """Two arc endpoints share an x-coordinate on the diagonal."""


class NotTwoLineCrossing(LFramesError):
    """Frame misses one of the two reference lines or has the wrong shape."""


class DegenerateOrder(LFramesError):
    """Tied crossing coordinates; the line orders are ill-defined."""


class InvalidDrawing(LFramesError):
    """Formula drawing violates the layout rules or cannot be embedded."""


class TooLarge(LFramesError):
    """Instance exceeds the exact solver's size cap."""


class SourceTooLarge(LFramesError):
    """Reduction source is too big for brute-force verification."""


class ParseError(LFramesError):
    """Syntactic error in an instance file."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class ValidationError(LFramesError):
    """Well-formed file describing an invalid instance."""
