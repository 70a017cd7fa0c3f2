"""Exception types shared across the package."""


class CavqfiError(Exception):
    """Base class for all package errors."""


class ConfigError(CavqfiError):
    """Invalid run configuration (bad field, missing key, out-of-range value)."""


class NumericError(CavqfiError):
    """A numerical procedure failed (no plateau, conditioning, no information)."""


class NoPlateauError(NumericError):
    """Finite-difference QFI ladder did not converge.

    Carries the raw ladder estimates so callers can inspect what happened.
    """

    def __init__(self, message, ladder, extrapolants):
        super().__init__(message)
        self.ladder = list(ladder)
        self.extrapolants = list(extrapolants)


class NoInformationError(NumericError):
    """QFI is zero or negative; no Cramer-Rao bound exists."""


class ConditioningError(NumericError):
    """Determinant combinations fell outside their numerically trusted range."""
