import json
import pickle

import numpy as np
import pytest

from croprl.errors import ConfigError, ShapeError
from croprl.net import (AdamState, ParamSet, adam_step, backward, forward,
                        forward_cached, init_params, input_gradient,
                        net_from_dict, net_to_dict)


def net_of(pairs):
    """A float64 ParamSet holding copies of the (W, b) pairs."""
    pairs = list(pairs)
    return ParamSet(np.concatenate([np.ravel(a).astype(float)
                                    for pair in pairs for a in pair]),
                    [np.shape(w) for w, _ in pairs])


def fd_gradients(params, x, upstream, h=1e-5):
    """Central finite differences of L = upstream . f(x) in every parameter,
    in the layout of ``params.flat``."""
    def loss(ps):
        return float(np.sum(forward(ps, x) * upstream))
    g = np.zeros_like(params.flat)
    for j in range(params.flat.size):
        plus, minus = params.copy(), params.copy()
        plus.flat[j] += h
        minus.flat[j] -= h
        g[j] = (loss(plus) - loss(minus)) / (2 * h)
    return g


def relu_preacts_safe(params, x, margin=1e-3):
    """True when no relu pre-activation sits near its kink."""
    h = np.atleast_2d(x)
    for i, (w, b) in enumerate(params):
        z = h @ w + b
        if i < len(params) - 1:
            if np.any(np.abs(z) < margin):
                return False
            h = np.maximum(z, 0)
    return True


def safe_net(rng, sizes, n_batch=1):
    """A net and inputs with every relu pre-activation away from its kink,
    so that finite differences see a smooth map."""
    while True:
        params = init_params(sizes, rng)
        x = rng.normal(size=(n_batch, sizes[0]))
        if relu_preacts_safe(params, x):
            return params, x


def test_spec_validation():
    for sizes in ((4,), (4, 0, 2), ()):
        with pytest.raises(ConfigError):
            init_params(sizes, np.random.default_rng(0))
    params = init_params((4, 3), np.random.default_rng(0))
    data = net_to_dict(params)
    assert data["spec"] == {"sizes": [4, 3], "hidden_activation": "relu",
                            "output_activation": "linear"}
    for key, other in (("output_activation", "softmax"),
                       ("hidden_activation", "tanh"), ("sizes", [4])):
        with pytest.raises(ConfigError):
            net_from_dict({**data, "spec": {**data["spec"], key: other}})


def test_zero_parameters_give_zero_output():
    params = net_of([(np.zeros((3, 4)), np.zeros(4)),
                     (np.zeros((4, 2)), np.zeros(2))])
    assert np.all(forward(params, np.array([1.0, -2.0, 3.0])) == 0.0)


def test_scalar_affine_network():
    params = net_of([([[2.0]], [1.0])])
    assert forward(params, np.array([3.0]))[0] == 7.0


def test_forward_is_deterministic():
    rng = np.random.default_rng(0)
    params = init_params((5, 16, 3), rng)
    x = rng.normal(size=5)
    assert np.array_equal(forward(params, x), forward(params, x))


def test_shape_mismatch_raises():
    params = init_params((3, 2), np.random.default_rng(0))
    with pytest.raises(ShapeError):
        forward(params, np.zeros(4))
    _, cache = forward_cached(params, np.zeros(3))
    # upstream gradients are (batch, n_out), never 1-D
    for upstream in (np.zeros((1, 5)), np.zeros(2)):
        with pytest.raises(ShapeError):
            backward(params, cache, upstream)
        with pytest.raises(ShapeError):
            input_gradient(params, cache, upstream)


def test_zero_upstream_gives_zero_gradients():
    rng = np.random.default_rng(1)
    params = init_params((4, 8, 2), rng)
    _, cache = forward_cached(params, rng.normal(size=4))
    grads = backward(params, cache, np.zeros((1, 2)))
    assert all(np.all(gw == 0) and np.all(gb == 0) for gw, gb in grads)
    assert np.all(input_gradient(params, cache, np.zeros((1, 2))) == 0)


def test_single_linear_layer_closed_form_gradient():
    # L = y^2 with y = w x: dL/dw = 2 y x
    params = net_of([([[1.5]], [0.0])])
    x = np.array([3.0])
    y, cache = forward_cached(params, x)
    grads = backward(params, cache, 2.0 * y)
    assert grads[0][0][0, 0] == pytest.approx(2.0 * 4.5 * 3.0)


def test_gradients_match_finite_differences_sample():
    """Spot check (the 100-configuration sweep runs in the acceptance suite)."""
    rng = np.random.default_rng(2)
    for _ in range(10):
        sizes = tuple(int(rng.integers(1, 6))
                      for _ in range(int(rng.integers(2, 4))))
        params, x = safe_net(rng, sizes)
        upstream = rng.normal(size=(1, sizes[-1]))
        _, cache = forward_cached(params, x)
        grads = backward(params, cache, upstream)
        fd = fd_gradients(params, x, upstream)
        rel = np.abs(grads.flat - fd) / np.maximum.reduce(
            [np.abs(grads.flat), np.abs(fd), np.full_like(fd, 1e-2)])
        assert rel.max() < 1e-4


def reference_backward(params, cache, grad_out):
    """The single reverse pass that gave both results before ``backward``
    and ``input_gradient`` were split: (parameter gradients, dL/dx)."""
    delta = np.asarray(grad_out, dtype=params[0][0].dtype)
    grads = [None] * len(params)
    for i in range(len(params) - 1, -1, -1):
        w, _ = params[i]
        if i != len(params) - 1:
            delta = np.multiply(delta, cache[2 * i + 1] > 0.0)
        grads[i] = (cache[2 * i].T @ delta, delta.sum(axis=0))
        delta = delta @ w.T
    return grads, delta


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_split_passes_match_the_single_pass_bit_for_bit(dtype):
    rng = np.random.default_rng(5)
    params = init_params((6, 16, 16, 2), rng, dtype=dtype)
    _, cache = forward_cached(params, rng.normal(size=(32, 6)))
    upstream = rng.normal(size=(32, 2))
    want_grads, want_gin = reference_backward(params, cache, upstream)
    grads = backward(params, cache, upstream)
    for (gw, gb), (rw, rb) in zip(grads, want_grads):
        assert gw.tobytes() == rw.tobytes() and gb.tobytes() == rb.tobytes()
    gin = input_gradient(params, cache, upstream)
    assert gin.dtype == dtype and gin.tobytes() == want_gin.tobytes()


def test_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    params, x = safe_net(rng, (4, 8, 3))
    upstream = rng.normal(size=(1, 3))
    _, cache = forward_cached(params, x)
    gin = input_gradient(params, cache, upstream)
    assert gin.shape == (1, 4)
    for j in range(4):
        e = np.zeros((1, 4))
        e[0, j] = 1e-5
        fd = np.sum((forward(params, x + e) - forward(params, x - e))
                    * upstream) / 2e-5
        assert gin[0, j] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_batched_gradient_sums_over_batch():
    rng = np.random.default_rng(3)
    params = init_params((3, 5, 2), rng)
    xs = rng.normal(size=(4, 3))
    g = rng.normal(size=(4, 2))
    _, cache = forward_cached(params, xs)
    batched = backward(params, cache, g)
    singles = np.zeros_like(params.flat)
    for i in range(4):
        _, ci = forward_cached(params, xs[i])
        singles += backward(params, ci, g[i:i + 1]).flat
    assert np.allclose(batched.flat, singles, atol=1e-12)


class TestAdam:
    def setup_method(self):
        rng = np.random.default_rng(4)
        self.params = init_params((2, 3, 1), rng)
        self.state = AdamState.for_params(self.params, lr=1e-3)

    def test_zero_gradient_leaves_params_unchanged(self):
        before = self.params.copy()
        zero = self.params.like(np.zeros_like(self.params.flat))
        new_params, new_state = adam_step(self.params, zero, self.state)
        assert new_state.step == 1
        for (w0, b0), (w1, b1) in zip(before, new_params):
            assert np.array_equal(w0, w1)
            assert np.array_equal(b0, b1)

    def test_first_step_moves_by_lr_against_gradient_sign(self):
        before = self.params.copy()
        grads = net_of([(np.full_like(w, 0.1), np.full_like(b, -0.5))
                        for w, b in self.params])
        new_params, _ = adam_step(self.params, grads, self.state)
        for (w0, b0), (w1, b1) in zip(before, new_params):
            # bias-corrected first step has magnitude ~lr, direction -sign(g)
            assert np.allclose(w1 - w0, -1e-3, rtol=1e-6)
            assert np.allclose(b1 - b0, +1e-3, rtol=1e-6)

    def test_repeated_identical_gradients_move_monotonically(self):
        grads = self.params.like(np.ones_like(self.params.flat))
        params, state = self.params, self.state
        prev = params[0][0].copy()
        for _ in range(20):
            params, state = adam_step(params, grads, state)
            assert np.all(params[0][0] < prev)
            prev = params[0][0].copy()

    def test_nonfinite_gradients_raise(self):
        before = self.params.copy()
        grads = net_of([(np.full_like(w, np.nan), np.zeros_like(b))
                        for w, b in self.params])
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
    params = init_params((6, 16, 3), rng, dtype=np.float32)
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
    params = init_params((3, 4, 2), np.random.default_rng(9))
    assert params.sizes == (3, 4, 2)
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


def json_round_trip(params):
    return net_from_dict(json.loads(json.dumps(net_to_dict(params))))


def test_checkpoint_round_trip_is_bit_identical():
    rng = np.random.default_rng(5)
    params = init_params((6, 32, 4), rng)
    grads = net_of([(rng.normal(size=w.shape), rng.normal(size=b.shape))
                    for w, b in params])
    adam_step(params, grads, AdamState.for_params(params, lr=2e-4))
    params2 = json_round_trip(params)
    assert params2.sizes == (6, 32, 4)
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
    params = init_params((3, 8, 2), rng, dtype=np.float32)
    params2 = json_round_trip(params)
    assert params2[0][0].dtype == np.float32
    for (w, b), (w2, b2) in zip(params, params2):
        assert w.tobytes() == w2.tobytes()


def test_sin_regression_smoke():
    """A 2-layer net fits y=sin(x) to MSE < 1e-2 within 5000 Adam steps."""
    rng = np.random.default_rng(7)
    params = init_params((1, 32, 1), rng)
    state = AdamState.for_params(params, lr=1e-2)
    xs = rng.uniform(-np.pi, np.pi, size=(1000, 1))
    ys = np.sin(xs)
    for _ in range(5000):
        idx = rng.integers(0, len(xs), size=100)
        out, cache = forward_cached(params, xs[idx])
        grads = backward(params, cache, 2.0 * (out - ys[idx]) / 100)
        params, state = adam_step(params, grads, state)
    mse = float(np.mean((forward(params, xs) - ys) ** 2))
    assert mse < 1e-2
