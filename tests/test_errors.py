from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest

from croprl.agents import AgentHyper
from croprl.env import iowa_scenario
from croprl.errors import ConfigError, check_fields
from croprl.harness import ExperimentConfig


@dataclass(frozen=True)
class Probe:
    x: float = 0.5
    n: int = 1
    xs: tuple[float, ...] = (0.5,)
    day: int | None = None
    label: str = "probe"


def refused(probe, **bounds):
    try:
        check_fields(probe, **bounds)
    except ConfigError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("interval,inside,outside", [
    ("[0, 1]", (0.0, 1.0), (-1e-9, 1.0 + 1e-9)),
    ("(0, 1)", (1e-9, 1.0 - 1e-9), (0.0, 1.0)),
    ("(0, 1]", (1e-9, 1.0), (0.0, 1.0 + 1e-9)),
    ("[0, 1)", (0.0, 1.0 - 1e-9), (-1e-9, 1.0)),
    ("[0, inf)", (0.0, 1e308), (-1e-9, math.inf)),
    ("[0, inf]", (0.0, math.inf), (-1e-9, -math.inf)),
    ("[0, 1e+06]", (0.0, 1e6), (-1e-9, 1e6 * 1.0000001)),
])
def test_each_end_is_open_or_closed_as_written(interval, inside, outside):
    for x in inside:
        assert refused(Probe(x=x), x=interval) is None
    for x in (*outside, math.nan):
        assert refused(Probe(x=x), x=interval) == \
            f"x must lie in {interval}: {x}"


def test_an_unlisted_float_must_be_finite():
    for x in (math.nan, math.inf, -math.inf):
        assert refused(Probe(x=x)) == f"x must lie in (-inf, inf): {x}"
        assert refused(Probe(xs=(0.5, x))) == \
            f"xs must lie in (-inf, inf): {(0.5, x)}"
    assert refused(Probe(x=-1e308)) is None
    # numpy's float32 is no Python float, and its NaN is refused too
    assert refused(Probe(xs=(np.float32("nan"),))) == \
        "xs must lie in (-inf, inf): (np.float32(nan),)"


def test_each_tuple_entry_is_checked():
    assert refused(Probe(xs=(0.0, 0.5, 1.0)), xs="[0, 1]") is None
    assert refused(Probe(xs=()), xs="[0, 1]") is None
    for bad in ((2.0, 0.5), (0.5, 2.0), (0.5, math.nan)):
        assert refused(Probe(xs=bad), xs="[0, 1]") == \
            f"xs must lie in [0, 1]: {bad}"


def test_none_is_skipped():
    assert refused(Probe(day=None), day="[1, 366]") is None
    assert refused(Probe(day=0), day="[1, 366]") == \
        "day must lie in [1, 366]: 0"


def test_only_an_optional_int_field_holds_none():
    assert refused(Probe(n=None)) == "n must be integral: None"
    # before, each was accepted and failed at its first use, or raised a
    # TypeError from a comparison
    for name, build in (
            ("action_frequency", lambda: iowa_scenario(action_frequency=None)),
            ("weather_seed", lambda: iowa_scenario(weather_seed=None)),
            ("warmup", lambda: AgentHyper(warmup=None)),
            ("trials", lambda: ExperimentConfig(iowa_scenario(), trials=None))):
        with pytest.raises(ConfigError, match=f"{name} must be integral"):
            build()


def test_an_int_field_is_checked_only_when_listed():
    assert refused(Probe(n=-5)) is None
    assert refused(Probe(n=-5), n="[0, inf)") == "n must lie in [0, inf): -5"
    assert refused(Probe(n=0), n="[1, inf)") == "n must lie in [1, inf): 0"


def test_a_bound_must_name_a_field():
    with pytest.raises(TypeError, match="nx"):
        check_fields(Probe(), nx="[0, 1]")


def test_an_int_field_holds_integers_numpy_ones_included():
    for good in (Probe(n=np.int64(2)), Probe(day=np.int32(5)),
                 Probe(day=None)):
        assert refused(good, n="[1, inf)", day="[1, 366]") is None
    assert refused(Probe(n=2.0)) == "n must be integral: 2.0"
    assert refused(Probe(day=np.float64(5.0))) == "day must be integral: 5.0"
    # a bool is not an integer, Python's or numpy's
    assert refused(Probe(n=True)) == "n must be integral: True"
    assert refused(Probe(day=False)) == "day must be integral: False"
    assert refused(Probe(n=np.True_)) == "n must be integral: True"


def test_a_float_field_holds_numbers_not_bools():
    for good in (Probe(x=2), Probe(x=np.float32(0.5)), Probe(xs=(1, 0.5))):
        assert refused(good, x="[0, inf)") is None
    assert refused(Probe(x=True)) == "x must be a number: True"
    assert refused(Probe(x=np.False_), x="[0, 1]") == \
        "x must be a number: False"
    assert refused(Probe(xs=(0.5, True))) == "xs must be a number: (0.5, True)"
    assert refused(Probe(x="0.5"), x="[0, 1]") == "x must be a number: 0.5"
