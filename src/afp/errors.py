"""Exception types shared across the package.

The CLI maps these onto process exit codes; library users catch them directly.
"""


class AfpError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(AfpError):
    """Operand shapes or lengths are incompatible."""


class NumericError(AfpError):
    """A computation produced or received non-finite values."""


class DataError(AfpError):
    """Input data violates a corpus or masking contract."""


class UsageError(AfpError):
    """An operation was called in a way its contract forbids."""


class ConfigError(AfpError):
    """Invalid or inconsistent configuration."""


class TrainingError(AfpError):
    """Training hit a fatal numeric condition (NaN gradient or loss)."""

    def __init__(self, message, last_good_params=None, last_good_step=None):
        super().__init__(message)
        self.last_good_params = last_good_params
        self.last_good_step = last_good_step


class CheckpointError(AfpError):
    """A checkpoint file is corrupt or unreadable."""
