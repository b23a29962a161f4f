"""Exception types shared across the package."""


class DepthRegError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDimension(DepthRegError):
    """A grid or seed-range dimension is too small to operate on."""


class ShapeError(DepthRegError):
    """Operands disagree in height/width/channels."""


class InvalidConfig(DepthRegError):
    """A threshold, range, margin or schedule value violates its constraints."""


class DomainError(DepthRegError):
    """A numeric input sits outside the mathematical domain of the operation."""


class EmptyEvaluation(DepthRegError):
    """No valid pixel survived the evaluation mask."""
