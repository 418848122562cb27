"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DomainError(ValueError):
    """An argument is outside the domain an operation accepts."""


class TapeError(RuntimeError):
    """A differentiation request violates the tape contract."""


class NumericalError(RuntimeError):
    """A computation on finite inputs produced NaN or Inf: the one
    overflow error, raised by every op result and Adam update."""


class GenerationError(RuntimeError):
    """Random graph generation failed to produce a valid sample."""


class DataFormatError(ValueError):
    """A dataset file is missing, malformed, or self-inconsistent."""

    def __init__(self, message: str, path=None, line: int | None = None):
        loc = ""
        if path is not None:
            loc = f" [{path}" + (f":{line}" if line is not None else "") + "]"
        super().__init__(message + loc)
        self.path = path
        self.line = line
