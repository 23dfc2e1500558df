"""Exception types, and the field check the config dataclasses share."""

import math
from dataclasses import fields


class ConfigError(ValueError):
    """Raised for invalid scenario, reward, or experiment configuration."""


class ShapeError(ValueError):
    """Raised when array shapes do not match a network specification."""


class EpisodeFinishedError(RuntimeError):
    """Raised when step() is called on an environment whose episode is done."""


def check_fields(obj, fractions=()) -> None:
    """Refuse a non-finite float in any field of the dataclass ``obj``, or
    in one of its tuple fields, and a value of a field named in
    ``fractions`` outside [0, 1]. It reads each field by name: touching
    ``obj.__dict__`` would slow every later attribute read of ``obj``."""
    for f in fields(obj):
        name, value = f.name, getattr(obj, f.name)
        values = value if isinstance(value, tuple) else (value,)
        if any(isinstance(v, float) and not math.isfinite(v) for v in values):
            raise ConfigError(f"{name} must be finite: {value}")
        if name in fractions and not all(0.0 <= v <= 1.0 for v in values):
            raise ConfigError(f"{name} must lie in [0, 1]: {value}")
