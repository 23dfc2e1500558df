"""Learning agents for the fertilizer environment.

Two trainable agents:

* ``DqnAgent`` learns action values for the five discrete amounts with a
  target network, uniform replay, and an epsilon-greedy exploration schedule
  that decays geometrically per episode.
* ``SacAgent`` learns a squashed-Gaussian policy over a continuous amount in
  the configured bounds plus twin soft critics with Polyak-averaged targets.
  The continuous action is snapped to the discrete set at the environment
  boundary only; the stored and regressed action stays continuous.

Both store normalized observations. The fixed single-dose reference policy
is ``harness.baseline_policy``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .env import DISCRETE_ACTIONS_KG
from .errors import ConfigError, ShapeError
from .net import (AdamState, MlpSpec, ParamSet, adam_step, backward, forward,
                  forward_cached, init_params, net_from_dict, net_to_dict)
from .replay import ReplayBuffer


def epsilon_schedule(episode: int, decay: float) -> float:
    """Exploration rate decay^episode; starts at 1 and decays geometrically."""
    if episode < 0:
        raise ConfigError("episode index must be >= 0")
    if not 0.0 < decay <= 1.0:
        raise ConfigError("decay must lie in (0, 1]")
    return decay ** episode


def discretize_action(a: float,
                      actions: tuple[float, ...] = DISCRETE_ACTIONS_KG) -> float:
    """Snap a continuous amount to the nearest discrete one.

    Inputs outside the discrete range are clamped first; exact midpoints
    resolve to the smaller amount.
    """
    a = min(max(float(a), actions[0]), actions[-1])
    best = actions[0]
    best_d = abs(a - best)
    for cand in actions[1:]:
        d = abs(a - cand)
        if d < best_d:
            best, best_d = cand, d
    return best


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
        # gamma = 0 is allowed: targets then reduce to the immediate rewards
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError("gamma must lie in [0, 1]")
        if not 0.0 < self.epsilon_decay < 1.0:
            raise ConfigError("epsilon decay must lie in (0, 1)")


def dqn_select_action(spec: MlpSpec, params: ParamSet, obs: np.ndarray,
                      epsilon: float, rng: np.random.Generator,
                      n_actions: int) -> int:
    """Epsilon-greedy; greedy ties break toward the lowest index."""
    if np.ndim(obs) != 1 or len(obs) != spec.n_in:
        raise ShapeError(f"observation length {np.shape(obs)} != {spec.n_in}")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(n_actions))
    q = forward(spec, params, obs)
    return int(np.argmax(q))  # argmax returns the first (lowest) index on ties


def dqn_td_targets(rewards: np.ndarray, next_obs: np.ndarray,
                   dones: np.ndarray, spec: MlpSpec,
                   target_params: ParamSet, gamma: float) -> np.ndarray:
    """Bootstrapped targets r + gamma * max_a' Q_target(s', a'); terminal
    transitions never bootstrap."""
    q_next = forward(spec, target_params, next_obs)
    boot = np.where(dones, 0.0, q_next.max(axis=1))
    return rewards + gamma * boot


class DqnAgent:
    # float32 keeps the matmul-heavy update fast; plenty of precision for TD
    dtype = np.float32

    def __init__(self, obs_dim: int, hyper: DqnHyper = DqnHyper(),
                 seed: int = 0, n_actions: int = len(DISCRETE_ACTIONS_KG)):
        self.hyper = hyper
        self.n_actions = n_actions
        self.rng = np.random.default_rng(seed)
        self.spec = MlpSpec((obs_dim, *hyper.hidden, n_actions))
        self.params = init_params(self.spec, self.rng, dtype=self.dtype)
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
        return dqn_select_action(self.spec, self.params, obs, self.epsilon,
                                 self.rng, self.n_actions)

    def greedy_action(self, obs: np.ndarray) -> int:
        return dqn_select_action(self.spec, self.params, obs, 0.0, self.rng,
                                 self.n_actions)

    def dose(self, action_index: int) -> float:
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
        targets = dqn_td_targets(rewards, next_obs, dones, self.spec,
                                 self.target_params, h.gamma)
        q, cache = forward_cached(self.spec, self.params, obs)
        idx = actions.astype(np.int64)
        rows = np.arange(len(idx))
        err = q[rows, idx] - targets
        grad_out = np.zeros_like(q)
        grad_out[rows, idx] = 2.0 * err / len(idx)
        grads, _ = backward(self.spec, self.params, cache, grad_out)
        adam_step(self.params, grads, self.adam)
        self.grad_steps += 1
        if self.grad_steps % h.target_update_interval == 0:
            np.copyto(self.target_params.flat, self.params.flat)
        return float(np.mean(err ** 2))

    # -- persistence --------------------------------------------------------

    def to_dict(self) -> dict:
        return {"kind": "dqn", "n_actions": self.n_actions,
                "hyper": self.hyper.__dict__.copy() | {"hidden": list(self.hyper.hidden)},
                "qnet": net_to_dict(self.spec, self.params, self.adam),
                "target": net_to_dict(self.spec, self.target_params)}

    @classmethod
    def from_dict(cls, data: dict) -> "DqnAgent":
        """Rebuild the networks, target and Adam moments from ``to_dict``.

        Policy-only: the rng is reseeded to 0, and ``grad_steps`` (which
        times the next target sync), epsilon and the replay buffer are not
        restored.
        """
        hyper_kw = dict(data["hyper"])
        hyper_kw["hidden"] = tuple(hyper_kw["hidden"])
        hyper = DqnHyper(**hyper_kw)
        spec, params, adam = net_from_dict(data["qnet"])
        agent = cls(spec.n_in, hyper, seed=0, n_actions=data["n_actions"])
        agent.params = params
        agent.adam = adam if adam is not None else agent.adam
        _, agent.target_params, _ = net_from_dict(data["target"])
        return agent


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
    log_std_min: float = -5.0
    log_std_max: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.tau <= 1.0:
            raise ConfigError("tau must lie in (0, 1]")
        if self.alpha is not None and self.alpha < 0:
            raise ConfigError("alpha must be nonnegative")
        if self.action_high <= self.action_low:
            raise ConfigError("action bounds out of order")


def polyak_update(target: ParamSet, online: ParamSet, tau: float) -> ParamSet:
    """target <- (1 - tau) * target + tau * online, in place; returns target."""
    t = target.flat
    t *= 1.0 - tau
    t += tau * online.flat
    return target


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
        self.actor_spec = MlpSpec((obs_dim, *h.hidden, 2))
        self.actor = init_params(self.actor_spec, self.rng, dtype=self.dtype)
        self.critic_spec = MlpSpec((obs_dim + 1, *h.hidden, 1))
        self.critics = [init_params(self.critic_spec, self.rng,
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

    def _policy_head(self, obs: np.ndarray):
        out = forward(self.actor_spec, self.actor, obs)
        mu = out[..., 0]
        log_std = np.clip(out[..., 1], self.hyper.log_std_min,
                          self.hyper.log_std_max)
        return mu, log_std

    def sample_action(self, obs: np.ndarray, rng: np.random.Generator
                      ) -> tuple[float, float]:
        """Draw a raw continuous action and its log-density."""
        mu, log_std = self._policy_head(obs)
        xi = rng.standard_normal()
        u = mu + math.exp(log_std) * xi
        t = math.tanh(u)
        logp = (-0.5 * xi * xi - log_std - self._LOG_SQRT_2PI
                - math.log(self._half * (1.0 - t * t) + 1e-6))
        return self._mid + self._half * t, float(logp)

    def greedy_action(self, obs: np.ndarray) -> float:
        """The policy's mean action, raw (not yet snapped to a dose)."""
        mu, _ = self._policy_head(obs)
        return float(self._mid + self._half * math.tanh(mu))

    def act(self, obs: np.ndarray) -> float:
        return self.sample_action(obs, self.rng)[0]

    def dose(self, raw_action: float) -> float:
        """The amount in kg/ha that a raw action applies: the nearest
        discrete one."""
        return discretize_action(raw_action)

    def observe(self, obs, raw_action, reward, next_obs, done) -> None:
        self.buffer.push(obs, raw_action, reward, next_obs, done)
        self.update()

    # -- learning ------------------------------------------------------------

    def _sample_batch_actions(self, obs: np.ndarray, rng: np.random.Generator):
        out = forward(self.actor_spec, self.actor, obs)
        mu = out[:, 0]
        log_std = np.clip(out[:, 1], self.hyper.log_std_min,
                          self.hyper.log_std_max)
        std = np.exp(log_std)
        xi = rng.standard_normal(len(mu))
        u = mu + std * xi
        t = np.tanh(u)
        logp = (-0.5 * xi ** 2 - log_std - self._LOG_SQRT_2PI
                - np.log(self._half * (1.0 - t ** 2) + 1e-6))
        return t, logp

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
        t2, logp2 = self._sample_batch_actions(next_obs, rng)
        xin2 = self._critic_input(next_obs, t2)
        q_next = np.minimum(
            forward(self.critic_spec, self.targets[0], xin2)[:, 0],
            forward(self.critic_spec, self.targets[1], xin2)[:, 0])
        y = rewards + h.gamma * np.where(dones, 0.0,
                                         q_next - alpha * logp2)

        # critic regression
        xin = self._critic_input(obs, t_stored)
        critic_mse = []
        for i in range(2):
            q, cache = forward_cached(self.critic_spec, self.critics[i], xin)
            err = q[:, 0] - y
            critic_mse.append(np.mean(err ** 2))
            gout = 2.0 * err[:, None] / len(y)
            grads, _ = backward(self.critic_spec, self.critics[i], cache, gout)
            adam_step(self.critics[i], grads, self.critic_adams[i])

        # actor: reparameterized gradient of alpha*logpi - min Q
        out, actor_cache = forward_cached(self.actor_spec, self.actor, obs)
        mu = out[:, 0]
        log_std_raw = out[:, 1]
        log_std = np.clip(log_std_raw, h.log_std_min, h.log_std_max)
        clip_mask = ((log_std_raw > h.log_std_min)
                     & (log_std_raw < h.log_std_max)).astype(float)
        std = np.exp(log_std)
        xi = rng.standard_normal(len(mu))
        u = mu + std * xi
        t = np.tanh(u)
        one_m_t2 = 1.0 - t ** 2
        logp = (-0.5 * xi ** 2 - log_std - self._LOG_SQRT_2PI
                - np.log(self._half * one_m_t2 + 1e-6))

        xin_pi = self._critic_input(obs, t)
        q_pi = []
        caches_pi = []
        for i in range(2):
            q, cache = forward_cached(self.critic_spec, self.critics[i], xin_pi)
            q_pi.append(q[:, 0])
            caches_pi.append(cache)
        which = np.argmin(np.stack(q_pi, axis=1), axis=1)
        # d(minQ)/d(action input): input-gradient of the smaller critic
        dq_da = np.zeros(len(mu))
        for i in range(2):
            sel = which == i
            if not np.any(sel):
                continue
            gout = np.zeros((len(mu), 1))
            gout[sel, 0] = 1.0
            _, gin = backward(self.critic_spec, self.critics[i], caches_pi[i],
                              gout)
            dq_da[sel] = gin[sel, -1]

        dlogp_du = 2.0 * t * one_m_t2 / (one_m_t2 + 1e-6 / self._half)
        dl_du = (alpha * dlogp_du - dq_da * one_m_t2) / len(mu)
        dl_dmu = dl_du
        dl_dlogstd = (dl_du * std * xi - alpha / len(mu)) * clip_mask
        actor_gout = np.stack([dl_dmu, dl_dlogstd], axis=1)
        grads, _ = backward(self.actor_spec, self.actor, actor_cache,
                            actor_gout)
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
        return {"kind": "sac",
                "hyper": self.hyper.__dict__.copy() | {"hidden": list(self.hyper.hidden)},
                "actor": net_to_dict(self.actor_spec, self.actor,
                                     self.actor_adam),
                "critics": [net_to_dict(self.critic_spec, c, a)
                            for c, a in zip(self.critics, self.critic_adams)],
                "targets": [net_to_dict(self.critic_spec, c)
                            for c in self.targets],
                "log_alpha": self.log_alpha}

    @classmethod
    def from_dict(cls, data: dict) -> "SacAgent":
        """Rebuild the actor, critics, targets, their Adam moments and
        log-alpha from ``to_dict``.

        Policy-only: the rng is reseeded to 0, and ``updates``, the
        temperature's Adam moments and step count, and the replay buffer
        are not restored.
        """
        hyper_kw = dict(data["hyper"])
        hyper_kw["hidden"] = tuple(hyper_kw["hidden"])
        hyper = SacHyper(**hyper_kw)
        spec, actor, actor_adam = net_from_dict(data["actor"])
        agent = cls(spec.n_in, hyper, seed=0)
        agent.actor = actor
        if actor_adam is not None:
            agent.actor_adam = actor_adam
        for i, entry in enumerate(data["critics"]):
            _, agent.critics[i], adam = net_from_dict(entry)
            if adam is not None:
                agent.critic_adams[i] = adam
        for i, entry in enumerate(data["targets"]):
            _, agent.targets[i], _ = net_from_dict(entry)
        agent.log_alpha = data["log_alpha"]
        return agent
