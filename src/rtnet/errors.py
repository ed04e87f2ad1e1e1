"""Exception types shared across the package."""


class RTNetError(Exception):
    """Base class for all rtnet errors."""


class DimensionError(RTNetError):
    """Tensor shapes are incompatible with the requested operation."""


class ConfigError(RTNetError):
    """A configuration value violates an operation's preconditions."""


class DataError(RTNetError):
    """Input data is malformed (bad CSV rows, zero-norm variates, ...)."""


class NumericalError(RTNetError):
    """A computation hit a numerically invalid state (zero norms, NaN grads)."""


class SamplerError(RTNetError):
    """A batch sampler cannot satisfy its constraints."""
