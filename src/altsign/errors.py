"""Exceptions and the domain check shared across the package."""


class NonDivisibleError(ArithmeticError):
    """Exact polynomial division failed; carries the offending remainder."""

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class InvalidShapeError(ValueError):
    """Truncation vectors describe no admissible tree shape."""


class NotInImageError(ValueError):
    """The object is not in the image of the bijection being inverted."""


class OutOfRangeError(ValueError):
    """A statistic parameter lies outside its admissible range."""


class ShapeMismatchError(ValueError):
    """Vector lengths passed to an operator formula are inconsistent."""


def check_domain(n: int = 0, l: int = 1, d: int | None = None) -> None:
    """ValueError for n < 0, then for l < 1, then OutOfRangeError for a d
    outside 0..l-1: every route's domain."""
    if n < 0:
        raise ValueError(f"need n >= 0, got n = {n}")
    if l < 1:
        raise ValueError(f"need l >= 1, got l = {l}")
    if d is not None and not 0 <= d <= l - 1:
        raise OutOfRangeError(f"d = {d} not in 0..{l - 1}")
