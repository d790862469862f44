"""Exception types shared across the package."""


class DeepAutoError(Exception):
    """Base class for package errors."""


class ShapeError(DeepAutoError):
    """Array arguments have inconsistent shapes."""


class ConfigError(DeepAutoError):
    """Invalid configuration value."""


class DataError(DeepAutoError):
    """Malformed or insufficient input data."""


class OutOfRangeError(DataError):
    """A well-formed record whose value lies outside its topic's range."""


class ModelFormatError(DeepAutoError):
    """Model file is corrupt, truncated, or has an unknown version."""


class TrainingDiverged(DeepAutoError):
    """Loss became non-finite during training."""
