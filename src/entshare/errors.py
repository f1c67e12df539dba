"""Exception and warning types shared across the toolkit."""


class EntshareError(Exception):
    """Base class for all toolkit errors."""


class InvalidStateError(EntshareError):
    """State fails a structural invariant (norm, Hermiticity, positivity)."""


class InvalidPartitionError(EntshareError):
    """A bipartition or keep-set does not fit the state's parties."""


class InvalidParameterError(EntshareError):
    """Family or measure parameters are out of their valid range."""


class DimensionError(EntshareError):
    """An operation received a state of unsupported local dimensions."""


class OptimizerConfigError(EntshareError):
    """Optimizer configuration is inconsistent (e.g. ensemble smaller than rank)."""


class EvaluationError(EntshareError):
    """A scanned function returned a non-finite value."""

    def __init__(self, message, at=None):
        super().__init__(message)
        self.at = at


class ExponentRangeWarning(UserWarning):
    """Exponent outside the configured validity range; value computed anyway."""


class DegenerateExponentWarning(UserWarning):
    """0**0 encountered; the enclosing report is flagged degenerate."""
