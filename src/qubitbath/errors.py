"""Exception types shared across the package."""


class IntegrationError(RuntimeError):
    """Raised when a trajectory violates its trace/positivity diagnostics.

    Usually means the step size is too large for the requested rates.
    """


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the field path."""
