import numpy as np
import pytest

from croprl.errors import MaskError
from croprl.state import (FIELD_ORDER, PARTIAL_FIELDS, ObservationMask,
                          StateVector, normalize_observation, observe)


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


def test_empty_mask_gives_empty_vector():
    assert observe(make_state(), ObservationMask(())).size == 0


def test_unknown_field_raises_mask_error():
    with pytest.raises(MaskError):
        ObservationMask(("cumsumfert", "no_such_field"))


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
