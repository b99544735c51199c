"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Raised when an input value violates a documented invariant."""


class ConfigError(ValidationError):
    """Raised for malformed or inconsistent scenario configuration."""


class IngestionError(ValidationError):
    """Raised when an input file cannot be read, parsed or cross-referenced."""


class SizingError(ValidationError):
    """Raised when the analytical fleet estimator gets degenerate input."""


class MetricsError(ValueError):
    """Raised when a metric is requested for an empty population."""
