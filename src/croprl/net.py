"""Dense feed-forward networks with hand-written reverse-mode gradients.

Small fully-connected nets (relu or tanh hidden layers, linear output) are
all the agents need, so this module implements them directly on numpy arrays
instead of pulling in an autodiff framework. For a given upstream gradient,
``backward`` returns the exact parameter gradient of the forward map, summed
over the batch (callers divide by the batch size when optimizing a mean
loss), and ``input_gradient`` returns the gradient in the input alone.

Layout. A net's parameters are a ``ParamSet``: one contiguous vector
``flat`` holding W0, b0, W1, b1, ... in that order (each W row-major, of
shape (fan_in, fan_out)), and the (W, b) pairs, which are views into it.
``backward`` returns its gradients in the same layout, and Adam's first and
second moments are flat vectors in that layout too. The optimizer, the DQN
target copy and the SAC Polyak average therefore each run a few ufuncs over
one array. ``forward`` and ``backward`` read any sequence of (W, b) pairs.

In place. ``adam_step`` writes the new values into ``params.flat``,
``state.m`` and ``state.v``, advances ``state.step`` and returns the same
two objects. Take ``params.copy()`` first to keep the old values. A
non-finite gradient raises ``FloatingPointError`` before anything changes.

Subnormal flush. After each step, every first moment smaller in magnitude
than ``np.finfo(dtype).tiny`` is set to 0. A unit whose gradient is exactly
zero (a dead relu) sees its moment decay by BETA1 a step; after roughly 700
steps it is subnormal, and on x86 every operation that reads a subnormal
takes a microcode assist. Without the flush, the Adam step of a 20-episode
DQN run grew about 3x slower from the first tenth of the run to the last.
The flush leaves parameter bits unchanged in practice: the step it drops is
lr * |m| / (c1 * denom) with |m| < tiny, c1 >= 1 - BETA1 and denom >= EPS,
so below lr * tiny / ((1 - BETA1) * EPS), about 6e-34 for float32 at the
default lr. That is under half an ulp of any parameter larger in magnitude
than about 1e-26.

Checkpoints: ``net_to_dict`` gives a versioned, JSON-ready dict of a net's
spec and parameters, one list per (W, b) array, and no optimizer state; float
round-tripping through JSON is exact, so ``net_from_dict`` of its JSON
reproduces the parameters bit for bit. It ignores any other key, such as the
Adam moments that earlier version-1 files carry.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    @classmethod
    def of(cls, pairs) -> "ParamSet":
        """Copy (W, b) pairs into a new flat vector."""
        pairs = list(pairs)
        return cls(np.concatenate([np.ravel(a) for pair in pairs for a in pair]),
                   [np.shape(w) for w, _ in pairs])

    def like(self, flat: np.ndarray) -> "ParamSet":
        """This layout over another vector."""
        return ParamSet(flat, [w.shape for w, _ in self])

    def copy(self) -> "ParamSet":
        return self.like(self.flat.copy())

    def __getnewargs__(self):  # lets pickle and deepcopy rebuild the views
        return self.flat, [w.shape for w, _ in self]


@dataclass(frozen=True)
class MlpSpec:
    sizes: tuple[int, ...]
    hidden_activation: str = "relu"

    def __post_init__(self):
        if len(self.sizes) < 2 or any(s < 1 for s in self.sizes):
            raise ConfigError("MlpSpec needs >= 2 layers of positive size")
        if self.hidden_activation not in ("relu", "tanh"):
            raise ConfigError(f"unsupported activation {self.hidden_activation!r}")

    @property
    def n_in(self) -> int:
        return self.sizes[0]

    @property
    def n_out(self) -> int:
        return self.sizes[-1]


def init_params(spec: MlpSpec, rng: np.random.Generator,
                dtype=np.float64) -> ParamSet:
    """Uniform fan-in/fan-out scaling, deterministic for a seeded generator."""
    pairs = []
    for n_in, n_out in zip(spec.sizes[:-1], spec.sizes[1:]):
        bound = np.sqrt(6.0 / (n_in + n_out))
        w = rng.uniform(-bound, bound, size=(n_in, n_out)).astype(dtype)
        b = np.zeros(n_out, dtype=dtype)
        pairs.append((w, b))
    return ParamSet.of(pairs)


def _check_input(spec: MlpSpec, x: np.ndarray, dtype) -> np.ndarray:
    x = np.asarray(x, dtype=dtype)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != spec.n_in:
        raise ShapeError(f"input shape {x.shape} does not match n_in={spec.n_in}")
    return x


def _activate(spec: MlpSpec, z: np.ndarray) -> np.ndarray:
    if spec.hidden_activation == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def forward(spec: MlpSpec, params: ParamSet, x: np.ndarray) -> np.ndarray:
    """Plain forward pass; 1-D inputs give 1-D outputs."""
    squeeze = np.ndim(x) == 1
    h = _check_input(spec, x, params[0][0].dtype)
    last = len(params) - 1
    for i, (w, b) in enumerate(params):
        z = h @ w + b
        h = z if i == last else _activate(spec, z)
    return h[0] if squeeze else h


def forward_cached(spec: MlpSpec, params: ParamSet, x: np.ndarray
                   ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward pass keeping layer inputs and pre-activations for backward."""
    h = _check_input(spec, x, params[0][0].dtype)
    cache = [h]
    last = len(params) - 1
    for i, (w, b) in enumerate(params):
        z = h @ w + b
        cache.append(z)
        h = z if i == last else _activate(spec, z)
        if i != last:
            cache.append(h)
    return h, cache


def _upstream(spec: MlpSpec, params, cache: list[np.ndarray],
              grad_out: np.ndarray) -> np.ndarray:
    g = np.asarray(grad_out, dtype=params[0][0].dtype)
    if g.ndim == 1:
        g = g[None, :]
    if g.shape != (cache[0].shape[0], spec.n_out):
        raise ShapeError(f"upstream gradient shape {g.shape} mismatch")
    return g


def _below(spec: MlpSpec, params, cache: list[np.ndarray],
           delta: np.ndarray, i: int) -> np.ndarray:
    """dL/d(layer i - 1's pre-activation) from dL/d(layer i's), i > 0."""
    delta = delta @ params[i][0].T
    if spec.hidden_activation == "relu":
        return np.multiply(delta, cache[2 * i - 1] > 0.0)
    return np.multiply(delta, 1.0 - np.square(cache[2 * i]))


def backward(spec: MlpSpec, params: ParamSet, cache: list[np.ndarray],
             grad_out: np.ndarray) -> ParamSet:
    """Exact reverse-mode parameter gradients for a cached forward pass.

    ``grad_out`` is dL/d(output), shape (batch, n_out). Returns the
    gradients, summed over the batch, as a new ``ParamSet``.
    """
    delta = _upstream(spec, params, cache, grad_out)
    shapes = [w.shape for w, _ in params]
    grads = ParamSet(np.empty(sum(n_in * n_out + n_out
                                  for n_in, n_out in shapes),
                              dtype=delta.dtype), shapes)
    for i in range(len(params) - 1, -1, -1):
        gw, gb = grads[i]
        np.matmul(cache[2 * i].T, delta, out=gw)
        delta.sum(axis=0, out=gb)
        if i > 0:
            delta = _below(spec, params, cache, delta, i)
    return grads


def input_gradient(spec: MlpSpec, params: ParamSet, cache: list[np.ndarray],
                   grad_out: np.ndarray) -> np.ndarray:
    """dL/d(input), shape (batch, n_in), for a cached forward pass; the
    same arithmetic as ``backward`` without the parameter gradients."""
    delta = _upstream(spec, params, cache, grad_out)
    for i in range(len(params) - 1, 0, -1):
        delta = _below(spec, params, cache, delta, i)
    return delta @ params[0][0].T


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

#: Adam's moment decay rates and denominator floor
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam's learning rate, step count, and flat moments in the params'
    layout."""
    lr: float = 5e-5
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None

    @classmethod
    def for_params(cls, params: ParamSet, lr: float = 5e-5) -> "AdamState":
        return cls(lr=lr, step=0, m=np.zeros_like(params.flat),
                   v=np.zeros_like(params.flat))


def adam_step(params: ParamSet, grads, state: AdamState
              ) -> tuple[ParamSet, AdamState]:
    """One bias-corrected Adam update of ``params`` and ``state``, in place.

    ``grads`` are (W, b) pairs in the layout of ``params``; a ``ParamSet``
    (what ``backward`` returns) is read without a copy. Returns the same
    ``params`` and ``state`` objects.
    """
    if not isinstance(params, ParamSet):
        raise TypeError("adam_step updates a ParamSet in place")
    g = (grads if isinstance(grads, ParamSet) else ParamSet.of(grads)).flat
    x, m, v = params.flat, state.m, state.v
    if g.shape != x.shape:
        raise ShapeError(f"gradient of {g.size} values for {x.size} params")
    # a NaN or paired-infinity anywhere poisons the sum
    if not np.isfinite(g.sum()):
        raise FloatingPointError("non-finite gradient in adam_step")
    state.step += 1
    b1, b2 = BETA1, BETA2
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    tmp = np.empty_like(x)
    denom = np.empty_like(x)
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
    # flush subnormal first moments (see the module docstring)
    np.copyto(m, 0.0, where=np.abs(m, out=tmp) < np.finfo(m.dtype).tiny)
    return params, state


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------

def net_to_dict(spec: MlpSpec, params: ParamSet) -> dict:
    return {
        "version": CHECKPOINT_VERSION,
        "dtype": params[0][0].dtype.name,
        "spec": {"sizes": list(spec.sizes),
                 "hidden_activation": spec.hidden_activation,
                 "output_activation": "linear"},
        "params": [{"w": w.ravel().tolist(), "b": b.tolist(),
                    "shape": list(w.shape)} for w, b in params],
    }


def net_from_dict(data: dict) -> tuple[MlpSpec, ParamSet]:
    if data.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {data.get('version')}")
    if data["spec"]["output_activation"] != "linear":
        raise ConfigError("only linear outputs are supported")
    spec = MlpSpec(sizes=tuple(data["spec"]["sizes"]),
                   hidden_activation=data["spec"]["hidden_activation"])
    shapes = [tuple(e["shape"]) for e in data["params"]]
    if shapes != list(zip(spec.sizes[:-1], spec.sizes[1:])):
        raise ConfigError(f"weight shapes {shapes} do not match {spec.sizes}")
    dtype = np.dtype(data.get("dtype", "float64"))
    flat = np.concatenate([np.asarray(e[k], dtype=dtype)
                           for e in data["params"] for k in ("w", "b")])
    return spec, ParamSet(flat, shapes)
