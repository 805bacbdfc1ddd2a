"""Exception types shared across the package."""


class TriqentError(Exception):
    """Base class for every error raised by this package."""


class NotSquareError(TriqentError):
    """Matrix is not square."""


class WrongDimensionError(TriqentError):
    """Matrix or state has an unsupported dimension."""


class NotHermitianError(TriqentError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NoConvergenceError(TriqentError):
    """LAPACK eigensolver failed."""


class NonFiniteError(TriqentError):
    """Input holds a NaN or infinite entry."""


class NotPSDError(TriqentError):
    """Matrix has an eigenvalue below the positive-semidefinite floor."""


class NotNormalizedError(TriqentError):
    """State vector norm differs from 1 beyond tolerance."""


class QubitNotPresentError(TriqentError):
    """Requested qubit label is not part of the state's subsystem layout."""


class NotUnitaryError(TriqentError):
    """Matrix fails the unitarity check."""


class MixedStateUnsupportedError(TriqentError):
    """Measure is defined for pure states only."""


class AmbiguousNearThresholdError(TriqentError):
    """A decision quantity sits too close to the zero threshold to call."""


class NumericalDegeneracyError(TriqentError):
    """Canonical-form reduction failed a consistency check; output withheld."""


class ParamOutOfDomainError(TriqentError):
    """Family parameter lies outside its documented domain."""


class NoOracleError(TriqentError):
    """No closed-form reference value is registered for the request."""


class StateFileError(TriqentError):
    """State file could not be parsed into a valid state."""
