"""Exception types, and the checks that configs and entry points share."""

import math
from dataclasses import fields
from numbers import Integral, Real

#: annotations, kept as strings, of the fields that must hold integers or
#: real numbers
_INTEGER_TYPES = ("int", "int | None", "tuple[int, ...]")
_REAL_TYPES = ("float", "tuple[float, ...]")


class ConfigError(ValueError):
    """Raised for invalid scenario, reward, or experiment configuration."""


class ShapeError(ValueError):
    """Raised when array shapes do not match a network specification."""


class EpisodeFinishedError(RuntimeError):
    """Raised when step() is called on an environment whose episode is done."""


def is_integer(value) -> bool:
    """An integer, numpy ones included; a bool is not one."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real number, numpy ones and integers included; a bool is not one.
    A float, what policies return, is the quickest to test, so it is first."""
    return type(value) is float or (isinstance(value, Real)
                                    and not isinstance(value, bool))


def check_integer(value, name: str, low: int = 0, high: float = math.inf):
    """``value`` if it is an integer in [low, high], else a ConfigError."""
    if not (is_integer(value) and low <= value <= high):
        raise ConfigError(f"{name} must be an integer in [{low}, {high}]: "
                          f"{value!r}")
    return value


def check_real(value, name: str, low: float, high: float) -> float:
    """As ``check_integer``, for a real number, which it returns as a float."""
    if not (is_real(value) and low <= value <= high):
        raise ConfigError(f"{name} must be a number in [{low:g}, {high:g}]: "
                          f"{value!r}")
    return float(value)


def check_finite(total, what: str) -> None:
    """Refuse a non-finite ``total`` by the error that fails a trial. One
    ``x @ x`` per vector ``x`` in a sum makes any NaN or inf in it count."""
    if not math.isfinite(total):
        raise FloatingPointError(f"non-finite {what}")


def check_fields(obj, **bounds: str) -> None:
    """Refuse a field of the dataclass ``obj`` outside its interval, as
    ``"{name} must lie in {interval}: {value}"``. ``bounds`` maps a field
    name to an interval in the usual notation: ``"[0, 1]"``, ``"(0, inf)"``,
    ``"[0, inf]"``. An unlisted float field gets ``"(-inf, inf)"``, and an
    unlisted int field is not checked. NaN lies in no interval, each entry
    of a tuple field is checked, and only an ``int | None`` field may hold
    None, which skips its checks. A field annotated ``int``, ``int | None``
    or ``tuple[int, ...]`` must hold integers, as ``"{name} must be
    integral: {value}"`` (see ``is_integer``), and one annotated ``float``
    or ``tuple[float, ...]`` real numbers, as ``"{name} must be a number:
    {value}"`` (see ``is_real``). Fields are read by name: reading
    ``obj.__dict__`` would slow later attribute reads."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        interval = bounds.pop(
            f.name, "(-inf, inf)" if f.type in _REAL_TYPES else None)
        if value is None and f.type == "int | None":
            continue
        values = value if isinstance(value, tuple) else (value,)
        if f.type in _INTEGER_TYPES and not all(map(is_integer, values)):
            raise ConfigError(f"{f.name} must be integral: {value}")
        if f.type in _REAL_TYPES and not all(map(is_real, values)):
            raise ConfigError(f"{f.name} must be a number: {value}")
        if interval is None:  # an unlisted int or non-numeric field
            continue
        lo, hi = (float(end) for end in interval[1:-1].split(","))
        if not all((lo < v if interval[0] == "(" else lo <= v)
                   and (v < hi if interval[-1] == ")" else v <= hi)
                   for v in values):
            raise ConfigError(f"{f.name} must lie in {interval}: {value}")
    if bounds:
        raise TypeError(f"no field {list(bounds)} in {type(obj).__name__}")
