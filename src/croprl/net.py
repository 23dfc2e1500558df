"""Dense feed-forward networks with hand-written reverse-mode gradients.

The agents need only small fully-connected nets with ReLU hidden layers and
a linear output, the networks of the DQN and SAC papers, so this module
implements them directly on numpy arrays instead of pulling in an autodiff
framework. A net is its ``ParamSet``: the layer widths are read from the
weight shapes (``ParamSet.sizes``), and no other object describes it. For a
given upstream gradient of shape (batch, n_out), ``backward`` writes the
exact parameter gradient of the forward map, summed over the batch (callers
divide by the batch size when optimizing a mean loss), into a ``ParamSet``
the caller owns, and ``input_gradient`` returns the gradient in the input
alone.

Layout. A net's parameters are a ``ParamSet``: one contiguous vector
``flat`` holding W0, b0, W1, b1, ... in that order (each W row-major, of
shape (fan_in, fan_out)), and the (W, b) pairs, which are views into it.
``backward`` writes its gradients in the same layout, and Adam's first and
second moments are flat vectors in that layout too. The optimizer, the DQN
target copy and the SAC Polyak average therefore each run a few ufuncs over
one array. A forward pass's cache holds each layer's input only: the batch,
then each hidden layer's ReLU output.

In place. Neither the gradient nor Adam's scratch is allocated per update.
``backward(params, cache, grad_out, out)`` overwrites every value of
``out``, a ``ParamSet`` in the layout of ``params`` that the caller
allocates once, for instance as ``params.like(np.empty_like(params.flat))``,
and returns it. ``adam_step`` writes the new values into ``params.flat``,
``state.m`` and ``state.v``, advances ``state.step`` and returns the same
two objects. Take ``params.copy()`` first to keep the old values. A
non-finite entry, or a squared norm that overflows the dtype, raises
``FloatingPointError`` before anything changes. ``AdamState(params, lr)``
allocates the moments and the step's scratch. Within a pass,
``forward_cached`` adds each bias into the matmul's result, and each ReLU
writes over its pre-activation: ``h > 0`` exactly where ``z > 0``, so the
reverse pass masks with ``h``, applying each mask to the gradient in place.
Neither pass makes a second batch-sized array.

Subnormal flush. On each step that is a multiple of ``FLUSH_EVERY``, first
moments smaller in magnitude than ``np.finfo(dtype).tiny`` become +0.0, so
none stays subnormal for more than FLUSH_EVERY - 1 steps. A dead relu's
gradient is exactly zero, so its moment decays by BETA1 a step and is
subnormal after about 700 steps; on x86 every operation that reads a
subnormal takes a microcode assist. Without the flush, the Adam step of a
20-episode DQN run grew about 3x slower from the first tenth of the run to
the last. It is branch-free, ``m *= |m| >= tiny; m += 0.0`` (+0.0 for -0.0),
since a masked write took 3x as long over the mixed masks that dead units
leave; it is six passes, hence the cadence. Parameter bits hold in practice:
a step that a subnormal moment makes, or that the flush drops, is
lr * |m| / (c1 * denom) with |m| < tiny, c1 >= 1 - BETA1 and denom >= EPS,
so below lr * tiny / ((1 - BETA1) * EPS), about 6e-34 for float32 at the
default lr. That is under half an ulp of any parameter larger in magnitude
than about 1e-26. Second moments below ``tiny`` become +0.0 too (v >= 0, so
``v *= v >= tiny``): such a v adds sqrt(v / c2) < sqrt(tiny / (1 - BETA2)),
3e-18 for float32, to denom, under half an ulp of EPS (4e-16).

Checkpoints: ``net_to_dict`` gives a versioned, JSON-ready dict of a net's
parameters, one list per (W, b) array, and no optimizer state; float
round-tripping through JSON is exact, so ``net_from_dict`` of its JSON
reproduces the parameters bit for bit. The file format keeps its ``spec``
entry: the layer sizes and the activations, always ReLU hidden layers and a
linear output. ``net_from_dict`` refuses any other activation and ignores
any other key, such as the Adam moments that earlier version-1 files carry.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError

CHECKPOINT_VERSION = 1


class ParamSet(tuple):
    """A net's (W, b) pairs, each a view into one contiguous vector ``flat``.

    ``shapes`` gives each W's (fan_in, fan_out); b has fan_out entries.
    """

    def __new__(cls, flat: np.ndarray, shapes):
        if flat.ndim != 1 or not flat.flags.c_contiguous:
            raise ShapeError("a ParamSet needs a contiguous 1-D vector")
        pairs, at = [], 0
        for n_in, n_out in shapes:
            w = flat[at:at + n_in * n_out].reshape(n_in, n_out)
            at += n_in * n_out
            pairs.append((w, flat[at:at + n_out]))
            at += n_out
        if at != flat.size:
            raise ShapeError(f"{flat.size} values do not fit layers {shapes}")
        self = super().__new__(cls, pairs)
        self.flat = flat
        return self

    @property
    def sizes(self) -> tuple[int, ...]:
        """Layer widths, input first: (n_in, hidden..., n_out)."""
        return (self[0][0].shape[0], *(b.size for _, b in self))

    def like(self, flat: np.ndarray) -> "ParamSet":
        """This layout over another vector."""
        return ParamSet(flat, [w.shape for w, _ in self])

    def copy(self) -> "ParamSet":
        return self.like(self.flat.copy())


def _check_sizes(sizes) -> None:
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ConfigError(f"a net needs >= 2 layers of positive size: {sizes}")


def init_params(sizes, rng: np.random.Generator,
                dtype=np.float64) -> ParamSet:
    """A net of layer widths ``sizes`` (input first): uniform
    fan-in/fan-out scaled weights and zero biases, deterministic for a
    seeded generator."""
    _check_sizes(sizes)
    shapes = list(zip(sizes[:-1], sizes[1:]))
    params = ParamSet(np.zeros(sum(n_in * n_out + n_out
                                   for n_in, n_out in shapes), dtype=dtype),
                      shapes)
    for w, _ in params:
        bound = np.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


def _check_input(params: ParamSet, x: np.ndarray) -> np.ndarray:
    w0 = params[0][0]
    x = np.asarray(x, dtype=w0.dtype)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != w0.shape[0]:
        raise ShapeError(f"input shape {x.shape} does not match "
                         f"n_in={w0.shape[0]}")
    return x


def forward(params: ParamSet, x: np.ndarray) -> np.ndarray:
    """``forward_cached``'s output alone; 1-D inputs give 1-D outputs."""
    out = forward_cached(params, x)[0]
    return out[0] if np.ndim(x) == 1 else out


def forward_cached(params: ParamSet, x: np.ndarray
                   ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward pass keeping each layer's input for backward."""
    z = _check_input(params, x)
    cache = []
    for i, (w, b) in enumerate(params):
        h = np.maximum(z, 0.0, out=z) if i else z
        cache.append(h)
        z = h @ w
        z += b
    return z, cache


def _upstream(params: ParamSet, cache: list[np.ndarray],
              grad_out: np.ndarray) -> np.ndarray:
    g = np.asarray(grad_out, dtype=params[0][0].dtype)
    if g.shape != (cache[0].shape[0], params[-1][1].size):
        raise ShapeError(f"upstream gradient shape {g.shape} mismatch")
    return g


def _below(params: ParamSet, cache: list[np.ndarray], delta: np.ndarray,
           i: int) -> np.ndarray:
    """dL/d(layer i - 1's pre-activation) from dL/d(layer i's), i > 0."""
    w = params[i][0]
    # matmul is slow on this outer product; + 0.0 gives zeros matmul's sign
    up = delta * w[:, 0] + 0.0 if w.shape[1] == 1 else delta @ w.T
    return np.multiply(up, cache[i] > 0.0, out=up)


def backward(params: ParamSet, cache: list[np.ndarray],
             grad_out: np.ndarray, out: ParamSet) -> ParamSet:
    """Exact reverse-mode parameter gradients for a cached forward pass.

    ``grad_out`` is dL/d(output), shape (batch, n_out). Writes the
    gradients, summed over the batch, into ``out``, a ``ParamSet`` in the
    layout of ``params``, and returns ``out``; every value of ``out`` is
    overwritten.
    """
    delta = _upstream(params, cache, grad_out)
    for i in range(len(params) - 1, -1, -1):
        gw, gb = out[i]
        np.matmul(cache[i].T, delta, out=gw)
        delta.sum(axis=0, out=gb)
        if i > 0:
            delta = _below(params, cache, delta, i)
    return out


def input_gradient(params: ParamSet, cache: list[np.ndarray],
                   grad_out: np.ndarray) -> np.ndarray:
    """dL/d(input), shape (batch, n_in), for a cached forward pass; the
    same arithmetic as ``backward`` without the parameter gradients."""
    delta = _upstream(params, cache, grad_out)
    for i in range(len(params) - 1, 0, -1):
        delta = _below(params, cache, delta, i)
    return delta @ params[0][0].T


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

#: Adam's moment decay rates and denominator floor
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
#: Adam flushes subnormal moments on the steps that are multiples of this
FLUSH_EVERY = 8


class AdamState:
    """Adam's learning rate, step count, and flat moments in the params'
    layout, with the scratch vectors each step overwrites."""

    def __init__(self, params: ParamSet, lr: float):
        x = params.flat
        self.lr, self.step = lr, 0
        self.m, self.v = np.zeros_like(x), np.zeros_like(x)
        self.tmp, self.denom = np.empty_like(x), np.empty_like(x)
        self.mask = np.empty(x.shape, dtype=bool)


def adam_step(params: ParamSet, grads: ParamSet, state: AdamState
              ) -> tuple[ParamSet, AdamState]:
    """One bias-corrected Adam update of ``params`` and ``state``, in place.

    ``grads`` is a ``ParamSet`` in the layout of ``params``, as ``backward``
    writes it. Returns the same ``params`` and ``state`` objects.
    """
    if not (isinstance(params, ParamSet) and isinstance(grads, ParamSet)):
        raise TypeError("adam_step updates a ParamSet by a ParamSet of "
                        "gradients")
    g, x, m, v = grads.flat, params.flat, state.m, state.v
    if g.shape != x.shape:
        raise ShapeError(f"gradient of {g.size} values for {x.size} params")
    # one dot: a NaN or inf anywhere, or a sum of squares past the dtype
    if not np.isfinite(g @ g):
        raise FloatingPointError("non-finite gradient in adam_step")
    state.step += 1
    b1, b2 = BETA1, BETA2
    c1, c2 = 1.0 - b1 ** state.step, 1.0 - b2 ** state.step
    tmp, denom, mask = state.tmp, state.denom, state.mask
    # m*b1 + (1-b1)*g; v*b2 + (1-b2)*g^2; x + (-lr)*(m/c1)/(sqrt(v/c2) + eps)
    m *= b1
    m += np.multiply(g, 1 - b1, out=tmp)
    v *= b2
    np.square(g, out=tmp)
    tmp *= 1 - b2
    v += tmp
    np.divide(v, c2, out=denom)
    np.sqrt(denom, out=denom)
    denom += EPS
    np.divide(m, c1, out=tmp)
    tmp /= denom
    tmp *= -state.lr
    x += tmp
    if state.step % FLUSH_EVERY == 0:  # see the module docstring
        tiny = np.finfo(m.dtype).tiny
        m *= np.greater_equal(np.abs(m, out=tmp), tiny, out=mask)
        m += 0.0
        v *= np.greater_equal(v, tiny, out=mask)
    return params, state


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------

def net_to_dict(params: ParamSet) -> dict:
    return {
        "version": CHECKPOINT_VERSION,
        "dtype": params[0][0].dtype.name,
        "spec": {"sizes": list(params.sizes), "hidden_activation": "relu",
                 "output_activation": "linear"},
        "params": [{"w": w.ravel().tolist(), "b": b.tolist(),
                    "shape": list(w.shape)} for w, b in params],
    }


def net_from_dict(data: dict) -> ParamSet:
    if data.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {data.get('version')}")
    spec = data["spec"]
    if spec["hidden_activation"] != "relu":
        raise ConfigError(f"unsupported hidden activation "
                          f"{spec['hidden_activation']!r}")
    if spec["output_activation"] != "linear":
        raise ConfigError("only linear outputs are supported")
    sizes = tuple(spec["sizes"])
    _check_sizes(sizes)
    shapes = [tuple(e["shape"]) for e in data["params"]]
    if shapes != list(zip(sizes[:-1], sizes[1:])):
        raise ConfigError(f"weight shapes {shapes} do not match {sizes}")
    # checked before converting: an integer dtype would truncate the weights
    dtype = data.get("dtype", "float64")
    if dtype not in ("float32", "float64"):
        raise ConfigError(f"unsupported checkpoint dtype {dtype!r}")
    with np.errstate(over="ignore"):  # beyond the dtype's range is inf
        flat = np.concatenate([np.asarray(e[k], dtype=dtype)
                               for e in data["params"] for k in ("w", "b")])
    if not np.isfinite(flat).all():
        raise ConfigError(f"checkpoint weights must be finite {dtype}")
    return ParamSet(flat, shapes)
