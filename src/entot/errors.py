"""Exception hierarchy for the entot library."""


class EntotError(Exception):
    """Base class for all entot-specific errors."""


class MalformedFile(EntotError):
    """Measure file has a bad header, bad row arity, or unparseable numbers."""


class NonSimplexWeights(EntotError):
    """Weights are negative or their sum is too far from one to renormalize."""


class EmptySupport(EntotError):
    """Measure file contains no atoms."""


class NonPositiveEps(EntotError, ValueError):
    """A regularization parameter must be strictly positive and finite."""


class DimensionMismatch(EntotError):
    """Inputs disagree on the ambient dimension or support sizes."""


class NotConverged(EntotError):
    """Iteration budget exhausted before the residual target was met.

    Carries the diagnostic report (and, when available, the best potential
    pair found) so callers can inspect or resume.
    """

    def __init__(self, message: str, report=None, pair=None):
        super().__init__(message)
        self.report = report
        self.pair = pair


class NotOptimal(EntotError):
    """A potential pair violates the optimality conditions beyond tolerance."""


class NegativeEntry(EntotError):
    """A transport plan contains a negative entry."""


class UnsupportedOrder(EntotError):
    """Requested derivative or moment order is outside the supported range."""


class WrongNormalization(EntotError):
    """Operation requires a specific potential normalization convention."""


class OutOfRange(EntotError):
    """A numeric argument is outside its admissible open interval."""


class ConfigError(EntotError):
    """Experiment configuration text is invalid or inconsistent."""
