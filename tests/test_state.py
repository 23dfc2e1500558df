import pickle

import numpy as np
import pytest

from croprl.state import (FIELD_ORDER, OBSERVATIONS, PARTIAL_FIELDS,
                          STATE_FIELDS, ObservationMask, StateVector,
                          normalize_observation, observe)


def make_state(**overrides):
    values = dict(
        cumsumfert=40.0, dap=10, dtt=12.0, istage=2, vstage=3.0, pltpop=7.6,
        rain=5.0, srad=18.0, tmax=25.0, tmin=12.0, nstres=1.0, pcngrn=0.01,
        swfac=0.9, tleachd=0.2, grnwt=100.0, cleach=1.5, cnox=0.1, tnoxd=0.0,
        trnu=2.0, wtnup=30.0, xlai=1.2, topwt=900.0, es=3.0, runoff=0.0,
        wtdep=151.0, rtdep=40.0, totaml=0.5, sw=(0.3, 0.28, 0.25))
    values.update(overrides)
    return StateVector(**values)


def test_field_order_has_28_entries():
    assert len(FIELD_ORDER) == 28
    assert FIELD_ORDER[0] == "cumsumfert"
    assert FIELD_ORDER[-1] == "sw"


def test_state_vector_is_the_field_table_in_order():
    # the record type and STATE_FIELDS name the same fields in one order
    assert StateVector._fields == FIELD_ORDER
    state = make_state()
    assert tuple(state._asdict()) == FIELD_ORDER
    assert list(state._asdict().values()) == list(state)


def test_partial_mask_is_the_ten_grower_visible_fields():
    assert PARTIAL_FIELDS == ("cumsumfert", "dap", "dtt", "istage", "vstage",
                              "pltpop", "rain", "srad", "tmax", "tmin")
    assert ObservationMask.partial().included == PARTIAL_FIELDS


def test_full_observation_covers_all_fields_with_sw_expanded():
    state = make_state()
    vec = observe(state, ObservationMask.full())
    assert vec.shape == (27 + 3,)
    # sw layers flattened at the end, in layer order
    assert tuple(vec[-3:]) == state.sw
    assert vec[0] == state.cumsumfert


def test_partial_observation_is_length_ten_in_table_order():
    state = make_state()
    vec = observe(state, ObservationMask.partial())
    assert vec.shape == (10,)
    expected = [state.cumsumfert, state.dap, state.dtt, state.istage,
                state.vstage, state.pltpop, state.rain, state.srad,
                state.tmax, state.tmin]
    assert np.allclose(vec, expected)


@pytest.mark.parametrize("kind", OBSERVATIONS)
def test_each_observation_kind_is_the_full_or_partial_mask(kind):
    mask = ObservationMask(kind)
    assert mask is {"full": ObservationMask.full(),
                    "partial": ObservationMask.partial()}[kind]
    assert mask.included == OBSERVATIONS[kind]
    # one member per kind, so an identity test holds after a round trip
    assert pickle.loads(pickle.dumps(mask)) is mask


def test_mask_size_accounts_for_layers():
    assert ObservationMask.full().size(3) == 30
    assert ObservationMask.full().size(5) == 32
    assert ObservationMask.partial().size(3) == 10


def test_normalization_is_affine_fixed_and_clipped():
    state = make_state()
    mask = ObservationMask.partial()
    vec = observe(state, mask)
    norm = normalize_observation(vec, mask)
    assert norm.shape == vec.shape
    assert np.all(norm >= 0.0) and np.all(norm <= 1.0)
    # cumsumfert plausible range is (0, 400)
    assert norm[0] == pytest.approx(40.0 / 400.0)
    # out-of-range values saturate instead of leaking unbounded inputs
    big = observe(make_state(cumsumfert=9999.0), mask)
    assert normalize_observation(big, mask)[0] == 1.0


def reference_observe(state, mask):
    """One getattr per field, ``sw`` expanded in place: the form ``observe``
    must reproduce."""
    out = []
    for name in mask.included:
        value = getattr(state, name)
        if name == "sw":
            out.extend(value)
        else:
            out.append(float(value))
    return np.asarray(out, dtype=np.float64)


@pytest.mark.parametrize("mask", [
    ObservationMask.full(), ObservationMask.partial(),
], ids=lambda m: "+".join(m.included))
def test_observe_and_normalize_match_the_getattr_and_clip_forms(mask):
    nan = float("nan")
    states = [make_state(),
              make_state(cumsumfert=9999.0, tmin=-99.0, dap=0, rain=-0.0,
                         sw=(nan, -0.0, 1.5)),
              make_state(xlai=nan, topwt=-1e-320, dtt=nan, sw=(0.0, 0.6, 0.61))]
    for state in states:
        obs = observe(state, mask)
        want = reference_observe(state, mask)
        assert obs.dtype == np.float64 and obs.tobytes() == want.tobytes()
        norm = normalize_observation(obs, mask)
        bounds = np.array([STATE_FIELDS[name][1] for name in mask.included
                           for _ in range(3 if name == "sw" else 1)])
        lo, hi = bounds.reshape(-1, 2).T
        want_norm = np.clip((want - lo) / (hi - lo), 0.0, 1.0)
        assert norm.tobytes() == want_norm.tobytes()
        assert obs.tobytes() == want.tobytes()  # the input is not clipped
