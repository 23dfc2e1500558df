import json
import pickle

import numpy as np
import pytest

from croprl.errors import ConfigError, ShapeError
from croprl.net import (AdamState, MlpSpec, ParamSet, adam_step, backward,
                        forward, forward_cached, init_params, input_gradient,
                        net_from_dict, net_to_dict)


def fd_gradients(spec, params, x, upstream, h=1e-5):
    """Central finite differences of L = upstream . f(x) in every parameter."""
    def loss(ps):
        return float(np.dot(forward(spec, ps, x), upstream))
    out = []
    for li in range(len(params)):
        layer = []
        for arr_idx in range(2):
            ref = params[li][arr_idx]
            g = np.zeros_like(ref)
            it = np.nditer(ref, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                plus = [(w.copy(), b.copy()) for w, b in params]
                plus[li][arr_idx][idx] += h
                minus = [(w.copy(), b.copy()) for w, b in params]
                minus[li][arr_idx][idx] -= h
                g[idx] = (loss(plus) - loss(minus)) / (2 * h)
            layer.append(g)
        out.append(tuple(layer))
    return out


def relu_preacts_safe(spec, params, x, margin=1e-3):
    """True when no relu pre-activation sits near its kink."""
    h = np.asarray(x)[None, :]
    for i, (w, b) in enumerate(params):
        z = h @ w + b
        if i < len(params) - 1:
            if np.any(np.abs(z) < margin):
                return False
            h = np.maximum(z, 0)
    return True


def test_spec_validation():
    with pytest.raises(ConfigError):
        MlpSpec((4,))
    with pytest.raises(ConfigError):
        MlpSpec((4, 0, 2))
    with pytest.raises(ConfigError):
        MlpSpec((4, 3), hidden_activation="selu")
    data = net_to_dict(MlpSpec((4, 3)), init_params(MlpSpec((4, 3)),
                                                    np.random.default_rng(0)))
    assert data["spec"]["output_activation"] == "linear"
    data["spec"]["output_activation"] = "softmax"
    with pytest.raises(ConfigError):
        net_from_dict(data)


def test_zero_parameters_give_zero_output():
    spec = MlpSpec((3, 4, 2))
    params = [(np.zeros((3, 4)), np.zeros(4)), (np.zeros((4, 2)), np.zeros(2))]
    assert np.all(forward(spec, params, np.array([1.0, -2.0, 3.0])) == 0.0)


def test_scalar_affine_network():
    spec = MlpSpec((1, 1))
    params = [(np.array([[2.0]]), np.array([1.0]))]
    assert forward(spec, params, np.array([3.0]))[0] == 7.0


def test_forward_is_deterministic():
    rng = np.random.default_rng(0)
    spec = MlpSpec((5, 16, 3))
    params = init_params(spec, rng)
    x = rng.normal(size=5)
    assert np.array_equal(forward(spec, params, x), forward(spec, params, x))


def test_shape_mismatch_raises():
    spec = MlpSpec((3, 2))
    params = init_params(spec, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        forward(spec, params, np.zeros(4))
    _, cache = forward_cached(spec, params, np.zeros(3))
    with pytest.raises(ShapeError):
        backward(spec, params, cache, np.zeros(5))
    with pytest.raises(ShapeError):
        input_gradient(spec, params, cache, np.zeros(5))


def test_zero_upstream_gives_zero_gradients():
    rng = np.random.default_rng(1)
    spec = MlpSpec((4, 8, 2))
    params = init_params(spec, rng)
    _, cache = forward_cached(spec, params, rng.normal(size=4))
    grads = backward(spec, params, cache, np.zeros(2))
    assert all(np.all(gw == 0) and np.all(gb == 0) for gw, gb in grads)
    assert np.all(input_gradient(spec, params, cache, np.zeros(2)) == 0)


def test_single_linear_layer_closed_form_gradient():
    # L = y^2 with y = w x: dL/dw = 2 y x
    spec = MlpSpec((1, 1))
    params = [(np.array([[1.5]]), np.array([0.0]))]
    x = np.array([3.0])
    y, cache = forward_cached(spec, params, x)
    grads = backward(spec, params, cache, 2.0 * y)
    assert grads[0][0][0, 0] == pytest.approx(2.0 * 4.5 * 3.0)


def test_gradients_match_finite_differences_sample():
    """Spot check (the 100-configuration sweep runs in the acceptance suite)."""
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 10:
        sizes = tuple(int(rng.integers(1, 6))
                      for _ in range(int(rng.integers(2, 4))))
        act = "relu" if rng.random() < 0.5 else "tanh"
        spec = MlpSpec(sizes, hidden_activation=act)
        params = init_params(spec, rng)
        x = rng.normal(size=spec.n_in)
        if act == "relu" and not relu_preacts_safe(spec, params, x):
            continue
        upstream = rng.normal(size=spec.n_out)
        _, cache = forward_cached(spec, params, x)
        grads = backward(spec, params, cache, upstream)
        fd = fd_gradients(spec, params, x, upstream)
        for (gw, gb), (fw, fb) in zip(grads, fd):
            for a, b in ((gw, fw), (gb, fb)):
                rel = np.abs(a - b) / np.maximum.reduce(
                    [np.abs(a), np.abs(b), np.full_like(a, 1e-2)])
                assert rel.max() < 1e-4
        checked += 1


def reference_backward(spec, params, cache, grad_out):
    """The single reverse pass that gave both results before ``backward``
    and ``input_gradient`` were split: (parameter gradients, dL/dx)."""
    delta = np.atleast_2d(np.asarray(grad_out, dtype=params[0][0].dtype))
    grads = [None] * len(params)
    for i in range(len(params) - 1, -1, -1):
        w, _ = params[i]
        if i != len(params) - 1:
            if spec.hidden_activation == "relu":
                delta = np.multiply(delta, cache[2 * i + 1] > 0.0)
            else:
                delta = np.multiply(delta, 1.0 - np.square(cache[2 * i + 2]))
        grads[i] = (cache[2 * i].T @ delta, delta.sum(axis=0))
        delta = delta @ w.T
    return grads, delta


@pytest.mark.parametrize("act", ["relu", "tanh"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_split_passes_match_the_single_pass_bit_for_bit(act, dtype):
    rng = np.random.default_rng(5)
    spec = MlpSpec((6, 16, 16, 2), hidden_activation=act)
    params = init_params(spec, rng, dtype=dtype)
    _, cache = forward_cached(spec, params, rng.normal(size=(32, 6)))
    upstream = rng.normal(size=(32, 2))
    want_grads, want_gin = reference_backward(spec, params, cache, upstream)
    grads = backward(spec, params, cache, upstream)
    for (gw, gb), (rw, rb) in zip(grads, want_grads):
        assert gw.tobytes() == rw.tobytes() and gb.tobytes() == rb.tobytes()
    gin = input_gradient(spec, params, cache, upstream)
    assert gin.dtype == dtype and gin.tobytes() == want_gin.tobytes()


def test_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    spec = MlpSpec((4, 8, 3), hidden_activation="tanh")
    params = init_params(spec, rng)
    x, upstream = rng.normal(size=4), rng.normal(size=3)
    _, cache = forward_cached(spec, params, x)
    gin = input_gradient(spec, params, cache, upstream)
    assert gin.shape == (1, 4)
    for j in range(4):
        e = np.zeros(4)
        e[j] = 1e-5
        fd = (forward(spec, params, x + e) - forward(spec, params, x - e)) \
            @ upstream / 2e-5
        assert gin[0, j] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_batched_gradient_sums_over_batch():
    rng = np.random.default_rng(3)
    spec = MlpSpec((3, 5, 2), hidden_activation="tanh")
    params = init_params(spec, rng)
    xs = rng.normal(size=(4, 3))
    g = rng.normal(size=(4, 2))
    _, cache = forward_cached(spec, params, xs)
    batched = backward(spec, params, cache, g)
    singles = None
    for i in range(4):
        _, ci = forward_cached(spec, params, xs[i])
        gi = backward(spec, params, ci, g[i])
        if singles is None:
            singles = [[gw.copy(), gb.copy()] for gw, gb in gi]
        else:
            for acc, (gw, gb) in zip(singles, gi):
                acc[0] += gw
                acc[1] += gb
    for (bw, bb), (sw, sb) in zip(batched, singles):
        assert np.allclose(bw, sw, atol=1e-12)
        assert np.allclose(bb, sb, atol=1e-12)


class TestAdam:
    def setup_method(self):
        rng = np.random.default_rng(4)
        self.spec = MlpSpec((2, 3, 1))
        self.params = init_params(self.spec, rng)
        self.state = AdamState.for_params(self.params, lr=1e-3)

    def test_zero_gradient_leaves_params_unchanged(self):
        before = self.params.copy()
        zero = [(np.zeros_like(w), np.zeros_like(b)) for w, b in self.params]
        new_params, new_state = adam_step(self.params, zero, self.state)
        assert new_state.step == 1
        for (w0, b0), (w1, b1) in zip(before, new_params):
            assert np.array_equal(w0, w1)
            assert np.array_equal(b0, b1)

    def test_first_step_moves_by_lr_against_gradient_sign(self):
        before = self.params.copy()
        grads = [(np.sign(np.ones_like(w)) * 0.1, np.full_like(b, -0.5))
                 for w, b in self.params]
        new_params, _ = adam_step(self.params, grads, self.state)
        for (w0, b0), (w1, b1) in zip(before, new_params):
            # bias-corrected first step has magnitude ~lr, direction -sign(g)
            assert np.allclose(w1 - w0, -1e-3, rtol=1e-6)
            assert np.allclose(b1 - b0, +1e-3, rtol=1e-6)

    def test_repeated_identical_gradients_move_monotonically(self):
        grads = [(np.ones_like(w), np.ones_like(b)) for w, b in self.params]
        params, state = self.params, self.state
        prev = params[0][0].copy()
        for _ in range(20):
            params, state = adam_step(params, grads, state)
            assert np.all(params[0][0] < prev)
            prev = params[0][0].copy()

    def test_nonfinite_gradients_raise(self):
        before = self.params.copy()
        grads = [(np.full_like(w, np.nan), np.zeros_like(b))
                 for w, b in self.params]
        with pytest.raises(FloatingPointError):
            adam_step(self.params, grads, self.state)
        # nothing was updated
        assert self.state.step == 0
        assert np.array_equal(self.params.flat, before.flat)
        assert not np.any(self.state.m) and not np.any(self.state.v)

    def test_step_is_in_place_and_returns_its_inputs(self):
        flat, m, v = self.params.flat, self.state.m, self.state.v
        before = flat.copy()
        grads = self.params.like(np.linspace(-1.0, 1.0, flat.size))
        new_params, new_state = adam_step(self.params, grads, self.state)
        assert new_params is self.params and new_state is self.state
        assert new_params.flat is flat
        assert new_state.m is m and new_state.v is v
        for w, b in new_params:
            assert np.shares_memory(w, flat) and np.shares_memory(b, flat)
        assert not np.array_equal(flat, before)


def _reference_update_array(x, g, m, v, lr, b1, b2, eps, c1, c2):
    """Per-array functional Adam, as it was before the flat layout."""
    m_new = np.empty_like(m)
    np.multiply(m, b1, out=m_new)
    m_new += (1 - b1) * g
    v_new = np.empty_like(v)
    np.multiply(v, b2, out=v_new)
    v_new += (1 - b2) * np.square(g)
    denom = np.sqrt(v_new / c2)
    denom += eps
    x_new = m_new / c1
    x_new /= denom
    x_new *= -lr
    x_new += x
    return x_new, m_new, v_new


def _subnormal(a: np.ndarray) -> np.ndarray:
    return (a != 0) & (np.abs(a) < np.finfo(a.dtype).tiny)


def test_flat_adam_matches_per_array_reference_without_subnormals():
    """Coordinates whose gradient is zero after the first step let the
    reference's first moments decay into subnormals; the flat step flushes
    them and still reproduces the reference's parameters bit for bit."""
    rng = np.random.default_rng(8)
    spec = MlpSpec((6, 16, 3))
    params = init_params(spec, rng, dtype=np.float32)
    state = AdamState.for_params(params, lr=1e-3)
    ref_x = [a.copy() for pair in params for a in pair]
    ref_m = [np.zeros_like(a) for a in ref_x]
    ref_v = [np.zeros_like(a) for a in ref_x]
    n = params.flat.size
    scale = 10.0 ** rng.uniform(-3.0, 1.0, size=n)
    dead = rng.random(n) < 0.3
    reference_had_subnormals = False
    for t in range(1, 1501):
        g = (rng.normal(size=n) * scale).astype(np.float32)
        if t > 1:
            g[dead] = 0.0
        grads = params.like(g)
        adam_step(params, grads, state)
        c1, c2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
        g_arrays = [a for pair in grads for a in pair]
        for i in range(len(ref_x)):
            ref_x[i], ref_m[i], ref_v[i] = _reference_update_array(
                ref_x[i], g_arrays[i], ref_m[i], ref_v[i], 1e-3, 0.9, 0.999,
                1e-8, c1, c2)
        expected = np.concatenate([a.ravel() for a in ref_x])
        assert params.flat.tobytes() == expected.tobytes(), f"step {t}"
        assert not np.any(_subnormal(state.m)), f"step {t}"
        reference_had_subnormals |= any(np.any(_subnormal(m)) for m in ref_m)
    assert reference_had_subnormals


def test_param_set_views_share_one_vector():
    params = init_params(MlpSpec((3, 4, 2)), np.random.default_rng(9))
    assert params.flat.size == 3 * 4 + 4 + 4 * 2 + 2
    params.flat[:] = np.arange(params.flat.size)
    (w0, b0), (w1, b1) = params
    assert w0[0, 1] == 1 and b0[0] == 12 and w1[0, 0] == 16 and b1[-1] == 25
    clone = params.copy()
    assert not np.shares_memory(clone.flat, params.flat)
    assert clone.flat.tobytes() == params.flat.tobytes()
    with pytest.raises(ShapeError):
        params.like(np.zeros(params.flat.size + 1))
    # pickling (and so deepcopy) rebuilds the views over the copied vector
    loaded = pickle.loads(pickle.dumps(params))
    assert loaded.flat.tobytes() == params.flat.tobytes()
    assert all(np.shares_memory(w, loaded.flat) for w, _ in loaded)


def json_round_trip(spec, params):
    return net_from_dict(json.loads(json.dumps(net_to_dict(spec, params))))


def test_checkpoint_round_trip_is_bit_identical():
    rng = np.random.default_rng(5)
    spec = MlpSpec((6, 32, 4), hidden_activation="tanh")
    params = init_params(spec, rng)
    grads = [(rng.normal(size=w.shape), rng.normal(size=b.shape))
             for w, b in params]
    adam_step(params, grads, AdamState.for_params(params, lr=2e-4))
    spec2, params2 = json_round_trip(spec, params)
    assert spec2 == spec
    for (w, b), (w2, b2) in zip(params, params2):
        assert w.tobytes() == w2.tobytes()
        assert b.tobytes() == b2.tobytes()
    # the loaded net keeps the flat layout, so it can keep training
    assert isinstance(params2, ParamSet)
    assert all(np.shares_memory(w, params2.flat)
               and np.shares_memory(b, params2.flat) for w, b in params2)
    _, adam2 = adam_step(params2, grads, AdamState.for_params(params2))
    assert adam2.step == 1


def test_float32_checkpoint_round_trip():
    rng = np.random.default_rng(6)
    spec = MlpSpec((3, 8, 2))
    params = init_params(spec, rng, dtype=np.float32)
    _, params2 = json_round_trip(spec, params)
    assert params2[0][0].dtype == np.float32
    for (w, b), (w2, b2) in zip(params, params2):
        assert w.tobytes() == w2.tobytes()


def test_sin_regression_smoke():
    """A 2-layer net fits y=sin(x) to MSE < 1e-2 within 5000 Adam steps."""
    rng = np.random.default_rng(7)
    spec = MlpSpec((1, 32, 1), hidden_activation="tanh")
    params = init_params(spec, rng)
    state = AdamState.for_params(params, lr=1e-2)
    xs = rng.uniform(-np.pi, np.pi, size=(1000, 1))
    ys = np.sin(xs)
    for _ in range(5000):
        idx = rng.integers(0, len(xs), size=100)
        out, cache = forward_cached(spec, params, xs[idx])
        grads = backward(spec, params, cache, 2.0 * (out - ys[idx]) / 100)
        params, state = adam_step(params, grads, state)
    mse = float(np.mean((forward(spec, params, xs) - ys) ** 2))
    assert mse < 1e-2
