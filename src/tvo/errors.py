"""Exception types shared across the package."""


class TvoError(Exception):
    """Base class for all package errors."""


class ShapeError(TvoError):
    """Structural mismatch (array shapes, table/schedule knots, lengths)."""


class DomainError(TvoError):
    """Argument outside its mathematical domain (beta outside [0,1], K=0, ...)."""


class UsageError(TvoError):
    """API misuse (backward before forward, double backward, ...)."""


class UnsupportedEstimatorError(TvoError):
    """Estimator requested outside its validity region (reparam on discrete q, ...)."""


class NumericalError(TvoError):
    """Non-finite value where a finite one is required."""


class DegenerateWeightsError(NumericalError):
    """All importance weights are zero; the proposal does not cover the target."""


class ConfigError(TvoError):
    """Inconsistent or out-of-range run configuration."""


class FormatError(TvoError):
    """Malformed binary file (IDX dataset, checkpoint)."""


class DegenerateWeightsWarning(UserWarning):
    """Self-normalized weights are close to degenerate (effective sample size < 2)."""
