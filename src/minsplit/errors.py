"""Exception types shared across the package, and the one check of a count."""

import numbers


class MinsplitError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(MinsplitError, ValueError):
    """Dimensions of the supplied arrays are inconsistent."""


class ParameterError(MinsplitError, ValueError):
    """A numeric parameter is outside its admissible range."""


class DecompositionError(MinsplitError, ArithmeticError):
    """A matrix decomposition failed to converge."""


class ProtocolError(MinsplitError, RuntimeError):
    """A network node was driven outside the legal protocol state."""


class NotAFixedPointError(MinsplitError, ValueError):
    """A check that requires a fixed point was handed a non-fixed point."""


class SubproblemError(MinsplitError, RuntimeError):
    """A block subproblem solver failed."""

    def __init__(self, block_index, message):
        super().__init__(f"block {block_index}: {message}")
        self.block_index = block_index


class SchemeParseError(MinsplitError, ValueError):
    """A scheme file could not be parsed."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def check_budget(value, name, least=1):
    """Raise :class:`ParameterError` naming ``name`` unless ``value`` is an integer >= ``least``."""
    if not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ParameterError(f"{name} must be >= {least}, got {value}")
