"""Exception types shared across the package."""


class RclabError(Exception):
    """Base class for all errors raised by this package."""


class AssumptionViolation(RclabError):
    """Model data violates one of the standing structural assumptions."""


class DimensionMismatch(RclabError):
    """Array shapes are inconsistent with the declared trait count."""


class UndefinedEntropy(RclabError):
    """Relative entropy is undefined: a reference-supported species is extinct."""


class NegativeInput(RclabError):
    """A species vector with negative entries was passed where f >= 0 is required."""


class StepRejected(RclabError):
    """A time step failed: a nonpositive denominator, an invalid state or no convergence."""

    step_index: int | None = None  # simulate sets the index of the failing step


class FixedPointDiverged(StepRejected):
    """The implicit-step fixed-point iteration exhausted its iteration budget."""


class Mu0Violation(RclabError):
    """Strict step-size guard is on and dt exceeds the guaranteed-stable bound."""


class NotConverged(RclabError):
    """Iterative solver stopped before reaching its tolerance."""

    def __init__(self, maxit: int, residual: float):
        super().__init__(f"not converged after {maxit} iterations (residual {residual:.3e})")
        self.maxit = maxit
        self.residual = residual


class NotApplicable(RclabError):
    """Requested construction does not exist for the given data."""


class NewtonFailed(RclabError):
    """A projected Newton solve on a fixed support failed to converge."""


class ParseError(RclabError):
    """Malformed scenario or CSV text."""

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if field is not None:
            loc.append(f"field '{field}'")
        suffix = f" ({', '.join(loc)})" if loc else ""
        super().__init__(message + suffix)
        self.line = line
        self.field = field


class ValidationError(RclabError):
    """A scenario or configuration field has an out-of-range or inconsistent value."""

    def __init__(self, field: str, message: str = ""):
        super().__init__(f"invalid value for '{field}'" + (f": {message}" if message else ""))
        self.field = field


class UnknownKind(RclabError):
    """Unrecognized plot kind."""
