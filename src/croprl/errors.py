"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Raised for invalid scenario, reward, or experiment configuration."""


class ShapeError(ValueError):
    """Raised when array shapes do not match a network specification."""


class EpisodeFinishedError(RuntimeError):
    """Raised when step() is called on an environment whose episode is done."""
