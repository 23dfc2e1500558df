"""Learning agents for the fertilizer environment.

Two trainable agents:

* ``DqnAgent`` learns action values for the five discrete amounts with a
  target network, uniform replay, and an epsilon-greedy exploration schedule
  that decays geometrically per episode. Its Q-net has one output per dose.
* ``SacAgent`` learns a squashed-Gaussian policy over a continuous amount in
  the configured bounds plus twin soft critics with Polyak-averaged targets.
  The actor's log-std is clamped to [LOG_STD_MIN, LOG_STD_MAX]. The
  continuous action is snapped to the discrete set at the environment
  boundary only; the stored and regressed action stays continuous.

Every net is a ReLU MLP held as a ``net.ParamSet``, its widths read from
its weights. Both agents store normalized observations. ``policy_from_dict``
turns the greedy policy that either ``to_dict`` writes back into plain
functions, without building a learner. The fixed single-dose reference
policy is ``harness.baseline_policy``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .env import DISCRETE_ACTIONS_KG
from .errors import ConfigError, ShapeError
from .net import (AdamState, ParamSet, adam_step, backward, forward,
                  forward_cached, init_params, input_gradient, net_from_dict,
                  net_to_dict)
from .replay import ReplayBuffer


def epsilon_schedule(episode: int, decay: float) -> float:
    """Exploration rate decay^episode; starts at 1 and decays geometrically."""
    if episode < 0:
        raise ConfigError("episode index must be >= 0")
    if not 0.0 < decay <= 1.0:
        raise ConfigError("decay must lie in (0, 1]")
    return decay ** episode


def discretize_action(a: float) -> float:
    """Snap a continuous amount to the nearest of ``DISCRETE_ACTIONS_KG``.

    Inputs outside the discrete range are clamped first; exact midpoints
    resolve to the smaller amount.
    """
    a = min(max(float(a), DISCRETE_ACTIONS_KG[0]), DISCRETE_ACTIONS_KG[-1])
    best = DISCRETE_ACTIONS_KG[0]
    best_d = abs(a - best)
    for cand in DISCRETE_ACTIONS_KG[1:]:
        d = abs(a - cand)
        if d < best_d:
            best, best_d = cand, d
    return best


def _check_hyper(h, least: dict[str, int]) -> None:
    """Checks shared by DqnHyper and SacHyper; ``least`` gives the minimums
    of integer fields beyond the shared sizes."""
    for name, value in h.__dict__.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite: {value}")
    # gamma = 0 is allowed: targets then reduce to the immediate rewards
    if not 0.0 <= h.gamma <= 1.0:
        raise ConfigError(f"gamma must lie in [0, 1]: {h.gamma}")
    if h.lr <= 0.0:
        raise ConfigError(f"lr must be positive: {h.lr}")
    for name, low in {"batch_size": 1, "buffer_capacity": 1, "episodes": 0,
                      "warmup": 0, **least}.items():
        if getattr(h, name) < low:
            raise ConfigError(f"{name} must be >= {low}: {getattr(h, name)}")
    if min(h.hidden, default=1) < 1:
        raise ConfigError(f"hidden layer widths must be >= 1: {h.hidden}")
    if h.buffer_capacity < max(h.batch_size, h.warmup):
        raise ConfigError(
            f"buffer_capacity must hold max(batch_size, warmup) = "
            f"{max(h.batch_size, h.warmup)} transitions before the first "
            f"update: {h.buffer_capacity}")


def _hyper_from_dict(cls, data: dict):
    """A checkpoint's ``hyper`` entry; a key ``cls`` lacks is an error."""
    unknown = sorted(data.keys() - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"checkpoint hyper has unknown keys {unknown}")
    return cls(**{**data, "hidden": tuple(data["hidden"])})


# ---------------------------------------------------------------------------
# DQN
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DqnHyper:
    gamma: float = 0.99
    batch_size: int = 64
    lr: float = 5e-5
    episodes: int = 1200
    epsilon_decay: float = 0.994      # 0.992 for the Iowa preset
    buffer_capacity: int = 100_000
    target_update_interval: int = 200  # gradient steps between hard syncs
    grad_steps_per_day: int = 1
    warmup: int = 1000                 # transitions before learning starts
    hidden: tuple[int, ...] = (128, 128)

    def __post_init__(self):
        _check_hyper(self, {"target_update_interval": 1,
                            "grad_steps_per_day": 1})
        if not 0.0 < self.epsilon_decay < 1.0:
            raise ConfigError("epsilon_decay must lie in (0, 1)")


def dqn_select_action(params: ParamSet, obs: np.ndarray, epsilon: float,
                      rng: np.random.Generator) -> int:
    """Epsilon-greedy over the Q-net's outputs, one per action; greedy ties
    break toward the lowest index."""
    n_in = params[0][0].shape[0]
    if np.ndim(obs) != 1 or len(obs) != n_in:
        raise ShapeError(f"observation length {np.shape(obs)} != {n_in}")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(params[-1][1].size))
    q = forward(params, obs)
    return int(np.argmax(q))  # argmax returns the first (lowest) index on ties


def dqn_td_targets(rewards: np.ndarray, next_obs: np.ndarray,
                   dones: np.ndarray, target_params: ParamSet,
                   gamma: float) -> np.ndarray:
    """Bootstrapped targets r + gamma * max_a' Q_target(s', a'); terminal
    transitions never bootstrap."""
    q_next = forward(target_params, next_obs)
    boot = np.where(dones, 0.0, q_next.max(axis=1))
    return rewards + gamma * boot


class DqnAgent:
    # float32 keeps the matmul-heavy update fast; plenty of precision for TD
    dtype = np.float32

    def __init__(self, obs_dim: int, hyper: DqnHyper = DqnHyper(),
                 seed: int = 0):
        self.hyper = hyper
        self.rng = np.random.default_rng(seed)
        self.params = init_params(
            (obs_dim, *hyper.hidden, len(DISCRETE_ACTIONS_KG)), self.rng,
            dtype=self.dtype)
        self.target_params = self.params.copy()
        self.adam = AdamState.for_params(self.params, lr=hyper.lr)
        self.buffer = ReplayBuffer(hyper.buffer_capacity, obs_dim,
                                   dtype=self.dtype)
        self.grad_steps = 0
        self.epsilon = 1.0

    def begin_episode(self, episode: int) -> float:
        self.epsilon = epsilon_schedule(episode, self.hyper.epsilon_decay)
        return self.epsilon

    def act(self, obs: np.ndarray) -> int:
        return dqn_select_action(self.params, obs, self.epsilon, self.rng)

    def greedy_action(self, obs: np.ndarray) -> int:
        return dqn_select_action(self.params, obs, 0.0, self.rng)

    @staticmethod
    def dose(action_index: int) -> float:
        """The amount in kg/ha that an action index applies."""
        return DISCRETE_ACTIONS_KG[action_index]

    def observe(self, obs, action_index, reward, next_obs, done) -> None:
        self.buffer.push(obs, action_index, reward, next_obs, done)
        for _ in range(self.hyper.grad_steps_per_day):
            self.update()

    def update(self):
        """One gradient step on the TD regression; no-op while warming up."""
        h = self.hyper
        if self.buffer.size < max(h.batch_size, h.warmup):
            return None
        obs, actions, rewards, next_obs, dones = self.buffer.sample(
            h.batch_size, self.rng)
        targets = dqn_td_targets(rewards, next_obs, dones,
                                 self.target_params, h.gamma)
        q, cache = forward_cached(self.params, obs)
        idx = actions.astype(np.int64)
        rows = np.arange(len(idx))
        err = q[rows, idx] - targets
        grad_out = np.zeros_like(q)
        grad_out[rows, idx] = 2.0 * err / len(idx)
        grads = backward(self.params, cache, grad_out)
        adam_step(self.params, grads, self.adam)
        self.grad_steps += 1
        if self.grad_steps % h.target_update_interval == 0:
            np.copyto(self.target_params.flat, self.params.flat)
        return float(np.mean(err ** 2))

    # -- persistence --------------------------------------------------------

    def to_dict(self) -> dict:
        """The greedy policy only: the Q-net and its hyper."""
        return {"kind": "dqn",
                "hyper": self.hyper.__dict__.copy() | {"hidden": list(self.hyper.hidden)},
                "qnet": net_to_dict(self.params)}


# ---------------------------------------------------------------------------
# SAC
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SacHyper:
    gamma: float = 0.98
    tau: float = 0.001                # target-network smoothing constant
    lr: float = 5e-5
    batch_size: int = 64
    episodes: int = 1200
    alpha: float | None = None        # None = auto-tune toward target_entropy
    target_entropy: float = -1.0
    reward_scale: float = 1.0         # critic regression scale; argmax-invariant
    action_low: float = 0.0
    action_high: float = 200.0
    buffer_capacity: int = 100_000
    warmup: int = 1000
    hidden: tuple[int, ...] = (128, 128)

    def __post_init__(self):
        _check_hyper(self, {})
        if not 0.0 < self.tau <= 1.0:
            raise ConfigError(f"tau must lie in (0, 1]: {self.tau}")
        if self.alpha is not None and self.alpha < 0:
            raise ConfigError(f"alpha must be nonnegative: {self.alpha}")
        if self.reward_scale <= 0:
            raise ConfigError("reward_scale must be positive")
        if self.action_high <= self.action_low:
            raise ConfigError("action_low and action_high out of order")


#: the clamp on the SAC actor's log-std output
LOG_STD_MIN, LOG_STD_MAX = -5.0, 2.0


def polyak_update(target: ParamSet, online: ParamSet, tau: float) -> ParamSet:
    """target <- (1 - tau) * target + tau * online, in place; returns target."""
    t = target.flat
    t *= 1.0 - tau
    t += tau * online.flat
    return target


def sac_mean_action(actor: ParamSet, obs: np.ndarray,
                    hyper: SacHyper) -> float:
    """The actor's mean action for one observation, raw (not yet snapped to
    a dose): the squashed mean mapped onto the hyper's action bounds."""
    mu = forward(actor, obs)[0]
    mid = 0.5 * (hyper.action_high + hyper.action_low)
    half = 0.5 * (hyper.action_high - hyper.action_low)
    return float(mid + half * math.tanh(mu))


class SacAgent:
    """Soft actor-critic over a single continuous fertilizer amount."""

    _LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
    dtype = np.float32

    def __init__(self, obs_dim: int, hyper: SacHyper = SacHyper(),
                 seed: int = 0):
        self.hyper = hyper
        self.rng = np.random.default_rng(seed)
        h = hyper
        self._mid = 0.5 * (h.action_high + h.action_low)
        self._half = 0.5 * (h.action_high - h.action_low)
        # the actor outputs the Gaussian's mean and log-std
        self.actor = init_params((obs_dim, *h.hidden, 2), self.rng,
                                 dtype=self.dtype)
        # a critic reads the observation and the squashed action
        self.critics = [init_params((obs_dim + 1, *h.hidden, 1), self.rng,
                                    dtype=self.dtype)
                        for _ in range(2)]
        self.targets = [c.copy() for c in self.critics]
        self.actor_adam = AdamState.for_params(self.actor, lr=h.lr)
        self.critic_adams = [AdamState.for_params(c, lr=h.lr)
                             for c in self.critics]
        self.log_alpha = 0.0 if h.alpha is None else math.log(max(h.alpha, 1e-12))
        self._log_alpha_m = 0.0
        self._log_alpha_v = 0.0
        self._alpha_steps = 0
        self.buffer = ReplayBuffer(h.buffer_capacity, obs_dim,
                                   dtype=self.dtype)
        self.updates = 0

    # -- policy --------------------------------------------------------------

    @property
    def alpha(self) -> float:
        return math.exp(self.log_alpha) if self.hyper.alpha is None \
            else self.hyper.alpha

    def greedy_action(self, obs: np.ndarray) -> float:
        return sac_mean_action(self.actor, obs, self.hyper)

    def act(self, obs: np.ndarray) -> float:
        """Draw a raw continuous action from the squashed Gaussian."""
        out = forward(self.actor, obs)
        log_std = np.clip(out[1], LOG_STD_MIN, LOG_STD_MAX)
        xi = self.rng.standard_normal()
        u = out[0] + math.exp(log_std) * xi
        return self._mid + self._half * math.tanh(u)

    @staticmethod
    def dose(raw_action: float) -> float:
        """The amount in kg/ha that a raw action applies: the nearest
        discrete one."""
        return discretize_action(raw_action)

    def observe(self, obs, raw_action, reward, next_obs, done) -> None:
        self.buffer.push(obs, raw_action, reward, next_obs, done)
        self.update()

    # -- learning ------------------------------------------------------------

    def _squashed_sample(self, out: np.ndarray, rng: np.random.Generator):
        """A reparameterized draw for each row of actor outputs ``out``:
        returns the squashed action t = tanh(u), its log-density, and the
        noise xi, std and 1 - t^2 that the actor gradient reads."""
        mu = out[:, 0]
        log_std = np.clip(out[:, 1], LOG_STD_MIN, LOG_STD_MAX)
        std = np.exp(log_std)
        xi = rng.standard_normal(len(mu))
        u = mu + std * xi
        t = np.tanh(u)
        one_m_t2 = 1.0 - t ** 2
        logp = (-0.5 * xi ** 2 - log_std - self._LOG_SQRT_2PI
                - np.log(self._half * one_m_t2 + 1e-6))
        return t, logp, xi, std, one_m_t2

    def _critic_input(self, obs: np.ndarray, t: np.ndarray) -> np.ndarray:
        return np.concatenate([obs, t[:, None]], axis=1)

    def update(self):
        h = self.hyper
        if self.buffer.size < max(h.batch_size, h.warmup):
            return None
        rng = self.rng
        obs, raw_actions, rewards, next_obs, dones = self.buffer.sample(
            h.batch_size, rng)
        t_stored = np.clip((raw_actions - self._mid) / self._half, -1.0, 1.0)
        rewards = rewards * h.reward_scale
        alpha = self.alpha

        # soft targets from fresh next-state actions
        t2, logp2, *_ = self._squashed_sample(
            forward(self.actor, next_obs), rng)
        xin2 = self._critic_input(next_obs, t2)
        q_next = np.minimum(
            forward(self.targets[0], xin2)[:, 0],
            forward(self.targets[1], xin2)[:, 0])
        y = rewards + h.gamma * np.where(dones, 0.0,
                                         q_next - alpha * logp2)

        # critic regression
        xin = self._critic_input(obs, t_stored)
        critic_mse = []
        for i in range(2):
            q, cache = forward_cached(self.critics[i], xin)
            err = q[:, 0] - y
            critic_mse.append(np.mean(err ** 2))
            gout = 2.0 * err[:, None] / len(y)
            grads = backward(self.critics[i], cache, gout)
            adam_step(self.critics[i], grads, self.critic_adams[i])

        # actor: reparameterized gradient of alpha*logpi - min Q
        out, actor_cache = forward_cached(self.actor, obs)
        t, logp, xi, std, one_m_t2 = self._squashed_sample(out, rng)
        clip_mask = ((out[:, 1] > LOG_STD_MIN)
                     & (out[:, 1] < LOG_STD_MAX)).astype(float)

        xin_pi = self._critic_input(obs, t)
        q_pi = []
        caches_pi = []
        for i in range(2):
            q, cache = forward_cached(self.critics[i], xin_pi)
            q_pi.append(q[:, 0])
            caches_pi.append(cache)
        which = np.argmin(np.stack(q_pi, axis=1), axis=1)
        # d(minQ)/d(action input): input-gradient of the smaller critic
        dq_da = np.zeros(len(t))
        for i in range(2):
            sel = which == i
            if not np.any(sel):
                continue
            gout = np.zeros((len(t), 1))
            gout[sel, 0] = 1.0
            gin = input_gradient(self.critics[i], caches_pi[i], gout)
            dq_da[sel] = gin[sel, -1]

        dlogp_du = 2.0 * t * one_m_t2 / (one_m_t2 + 1e-6 / self._half)
        dl_du = (alpha * dlogp_du - dq_da * one_m_t2) / len(t)
        dl_dlogstd = (dl_du * std * xi - alpha / len(t)) * clip_mask
        actor_gout = np.stack([dl_du, dl_dlogstd], axis=1)
        grads = backward(self.actor, actor_cache, actor_gout)
        adam_step(self.actor, grads, self.actor_adam)

        # temperature
        if h.alpha is None:
            g = -float(np.mean(logp + h.target_entropy)) * math.exp(self.log_alpha)
            self._alpha_steps += 1
            self._log_alpha_m = 0.9 * self._log_alpha_m + 0.1 * g
            self._log_alpha_v = 0.999 * self._log_alpha_v + 0.001 * g * g
            mhat = self._log_alpha_m / (1 - 0.9 ** self._alpha_steps)
            vhat = self._log_alpha_v / (1 - 0.999 ** self._alpha_steps)
            self.log_alpha -= 1e-3 * mhat / (math.sqrt(vhat) + 1e-8)

        # Polyak-averaged targets
        for i in range(2):
            polyak_update(self.targets[i], self.critics[i], h.tau)
        self.updates += 1
        # the critics' regression loss, before their step
        return float(np.mean(critic_mse))

    # -- persistence ----------------------------------------------------------

    def to_dict(self) -> dict:
        """The greedy policy only: the actor and its hyper."""
        return {"kind": "sac",
                "hyper": self.hyper.__dict__.copy() | {"hidden": list(self.hyper.hidden)},
                "actor": net_to_dict(self.actor)}


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def policy_from_dict(data: dict):
    """The greedy policy of an ``agent`` entry that ``to_dict`` wrote, as
    ``(obs_dim, choose, dose)``: ``choose(obs)`` is the live agent's
    ``greedy_action`` and ``dose(action)`` its ``dose``. Only the policy net
    is built: no replay buffer, critic, target or optimizer state."""
    kind = data["kind"]
    if kind == "dqn":
        hyper = _hyper_from_dict(DqnHyper, data["hyper"])
        qnet = net_from_dict(data["qnet"])
        # one output per dose
        if qnet.sizes[1:] != (*hyper.hidden, len(DISCRETE_ACTIONS_KG)):
            raise ConfigError(f"Q-net sizes {qnet.sizes} do not match its "
                              f"hyper or doses")
        rng = np.random.default_rng(0)  # never drawn from at epsilon 0

        def choose(obs):
            return dqn_select_action(qnet, obs, 0.0, rng)
        return qnet.sizes[0], choose, DqnAgent.dose
    if kind == "sac":
        # older files also hold the log-std clamp, now LOG_STD_MIN/MAX
        hyper = _hyper_from_dict(SacHyper, {
            k: v for k, v in data["hyper"].items()
            if k not in ("log_std_min", "log_std_max")})
        actor = net_from_dict(data["actor"])
        if actor.sizes[1:] != (*hyper.hidden, 2):
            raise ConfigError(f"actor sizes {actor.sizes} do not match its "
                              f"hyper")
        return (actor.sizes[0], lambda obs: sac_mean_action(actor, obs, hyper),
                SacAgent.dose)
    raise ConfigError(f"unknown agent kind {kind!r}")
