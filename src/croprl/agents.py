"""Learning agents for the fertilizer environment.

Two trainable agents:

* ``DqnAgent`` learns action values for the five discrete amounts with a
  target network, uniform replay, and an epsilon-greedy exploration schedule
  that decays geometrically per episode, at the rate its scenario's preset
  holds (``ScenarioConfig.epsilon_decay``). Its Q-net has one output per dose.
* ``SacAgent`` learns a squashed-Gaussian policy over a continuous amount in
  [0, 200] kg/ha (``SAC_ACTION_RANGE_KG``) plus twin soft critics with
  Polyak-averaged targets. Its temperature alpha is tuned automatically
  toward the entropy ``TARGET_ENTROPY``. The actor's log-std is clamped to
  [LOG_STD_MIN, LOG_STD_MAX]. The continuous action is snapped to the
  discrete set at the environment boundary only; the stored and regressed
  action stays continuous. The two critics are the halves of one vector, as
  are their targets, so one Adam step and one Polyak update move both.

Every net is a ReLU MLP held as a ``net.ParamSet``, its widths read from
its weights. Both agents build their nets with the hidden widths ``HIDDEN``,
step them by Adam at the rate ``LR``, and discount by ``DQN_GAMMA`` or
``SAC_GAMMA``. Both store normalized observations, and count gradient steps
in an Adam state's ``step``. Each agent's ``act`` is a policy in
``harness.run_episode``'s one shape, ``(dose_kg, action)``.
``policy_from_dict`` builds the greedy policy that ``to_dict`` writes in that
shape, without a learner: a run scores it and a checkpoint loads it. The
fixed single-dose reference policy is ``harness.baseline_policy``.
Before drawing or storing anything, ``act`` refuses an observation with a NaN
or inf, and ``observe`` such an observation or reward, by FloatingPointError
as ``adam_step`` does, and an action outside the agent's range by ConfigError.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .env import DISCRETE_ACTIONS_KG
from .errors import (ConfigError, ShapeError, check_fields, check_finite,
                     check_integer, check_real, is_real)
from .net import (AdamState, ParamSet, adam_step, backward, forward,
                  forward_cached, init_params, input_gradient, net_from_dict,
                  net_to_dict)
from .replay import ReplayBuffer


def epsilon_schedule(episode: int, decay: float) -> float:
    """Exploration rate decay^episode; starts at 1 and decays geometrically."""
    check_integer(episode, "episode index")
    if not (is_real(decay) and 0.0 < decay <= 1.0):
        raise ConfigError(f"decay must lie in (0, 1]: {decay!r}")
    return decay ** episode


def discretize_action(a: float) -> float:
    """Snap a continuous amount to the nearest of ``DISCRETE_ACTIONS_KG``.

    Inputs outside the discrete range, infinities too, are clamped first;
    exact midpoints resolve to the smaller amount; NaN, and anything not a
    real number (a bool or a string too), raises ValueError.
    """
    if not is_real(a) or math.isnan(a := float(a)):
        raise ValueError(f"fertilizer amount must be a number: {a!r}")
    a = min(max(a, DISCRETE_ACTIONS_KG[0]), DISCRETE_ACTIONS_KG[-1])
    # min keeps the first of equals, and the amounts ascend
    return min(DISCRETE_ACTIONS_KG, key=lambda cand: abs(a - cand))


#: the discount factor of DQN's TD targets, and of SAC's soft targets
DQN_GAMMA, SAC_GAMMA = 0.99, 0.98
#: the Adam learning rate of every net
LR = 5e-5
#: the hidden-layer widths of every net
HIDDEN = (128, 128)
#: transitions each agent's replay buffer holds
BUFFER_CAPACITY = 100_000
#: the most episodes that one training run or one evaluation plays
MAX_EPISODES = 1_000_000
#: DQN's gradient steps between hard target syncs
TARGET_UPDATE_INTERVAL = 200
#: SAC's target-network smoothing constant
TAU = 0.001
#: the clamp on the SAC actor's log-std output
LOG_STD_MIN, LOG_STD_MAX = -5.0, 2.0
#: the amounts, kg/ha, that the SAC actor's squashed output spans
SAC_ACTION_RANGE_KG = (0.0, 200.0)
_MID = 0.5 * (SAC_ACTION_RANGE_KG[1] + SAC_ACTION_RANGE_KG[0])
_HALF = 0.5 * (SAC_ACTION_RANGE_KG[1] - SAC_ACTION_RANGE_KG[0])
#: the policy entropy, per action dimension, that the temperature tunes toward
TARGET_ENTROPY = -1.0


@dataclass(frozen=True)
class AgentHyper:
    """Both learners' settings. DQN's exploration decay is its scenario's
    ``epsilon_decay``; SAC's alpha tunes toward TARGET_ENTROPY, its action
    range is always SAC_ACTION_RANGE_KG and its targets move at TAU: none is
    a setting."""

    batch_size: int = 64
    episodes: int = 1200
    warmup: int = 1000                 # transitions before learning starts

    def __post_init__(self):
        # the buffer holds a batch and the warm-up before the first update
        check_fields(self, batch_size=f"[1, {BUFFER_CAPACITY}]",
                     episodes=f"[0, {MAX_EPISODES}]",
                     warmup=f"[0, {BUFFER_CAPACITY}]")


# ---------------------------------------------------------------------------
# DQN
# ---------------------------------------------------------------------------

def dqn_select_action(params: ParamSet, obs: np.ndarray, epsilon: float,
                      rng: np.random.Generator | None) -> int:
    """Epsilon-greedy over the Q-net's outputs, one per action; greedy ties
    break toward the lowest index. At epsilon 0 nothing is drawn from
    ``rng``, which may be None."""
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

    def __init__(self, obs_dim: int, hyper: AgentHyper = AgentHyper(),
                 seed: int = 0):
        self.hyper = hyper
        self.rng = np.random.default_rng(check_integer(seed, "seed"))
        self.params = init_params(
            (obs_dim, *HIDDEN, len(DISCRETE_ACTIONS_KG)), self.rng,
            dtype=self.dtype)
        self.target_params = self.params.copy()
        self.adam = AdamState(self.params, lr=LR)
        self.buffer = ReplayBuffer(BUFFER_CAPACITY, obs_dim, dtype=self.dtype)
        self.epsilon = 1.0
        # what each update overwrites: the gradient, and dL/dQ, which is
        # zero except at each row's taken action
        self._grads = self.params.like(np.empty_like(self.params.flat))
        self._rows = np.arange(hyper.batch_size)
        self._grad_out = np.zeros((hyper.batch_size, len(DISCRETE_ACTIONS_KG)),
                                  dtype=self.dtype)

    def begin_episode(self, episode: int, decay: float) -> float:
        """Set and return the exploration rate of ``episode``, with
        ``decay`` the scenario's ``epsilon_decay``."""
        self.epsilon = epsilon_schedule(episode, decay)
        return self.epsilon

    def act(self, state, obs: np.ndarray) -> tuple[float, int]:
        """The epsilon-greedy policy: the dose of the chosen index, and the
        index."""
        check_finite(obs @ obs, "observation")
        i = dqn_select_action(self.params, obs, self.epsilon, self.rng)
        return DISCRETE_ACTIONS_KG[i], i

    def observe(self, obs, action_index, reward, next_obs, done) -> None:
        check_integer(action_index, "action index", 0,
                      len(DISCRETE_ACTIONS_KG) - 1)
        self.buffer.push(obs, action_index, reward, next_obs, done)
        self.update()

    def update(self):
        """One gradient step on the TD regression; no-op while warming up."""
        h = self.hyper
        if self.buffer.size < max(h.batch_size, h.warmup):
            return None
        obs, actions, rewards, next_obs, dones = self.buffer.sample(
            h.batch_size, self.rng)
        targets = dqn_td_targets(rewards, next_obs, dones,
                                 self.target_params, DQN_GAMMA)
        q, cache = forward_cached(self.params, obs)
        idx = actions.astype(np.int64)
        rows, grad_out, n = self._rows, self._grad_out, len(idx)
        err = q[rows, idx] - targets
        grad_out.fill(0.0)
        grad_out[rows, idx] = 2.0 * err / n
        backward(self.params, cache, grad_out, self._grads)
        adam_step(self.params, self._grads, self.adam)
        if self.adam.step % TARGET_UPDATE_INTERVAL == 0:
            np.copyto(self.target_params.flat, self.params.flat)
        return float(err @ err) / n

    # -- persistence --------------------------------------------------------

    def to_dict(self) -> dict:
        """The greedy policy only: the Q-net and its hyper."""
        return {"kind": "dqn",
                "hyper": asdict(self.hyper),
                "qnet": net_to_dict(self.params)}


# ---------------------------------------------------------------------------
# SAC
# ---------------------------------------------------------------------------

def polyak_update(target: ParamSet, online: ParamSet, tau: float,
                  scratch: np.ndarray) -> ParamSet:
    """target <- (1 - tau) * target + tau * online, in place; returns target.
    ``scratch``, a vector the size of ``online.flat`` that the caller owns,
    takes ``tau * online`` and is overwritten."""
    t = target.flat
    t *= 1.0 - tau
    t += np.multiply(tau, online.flat, out=scratch)
    return target


def sac_mean_action(actor: ParamSet, obs: np.ndarray) -> float:
    """The actor's mean action for one observation, raw (not yet snapped to
    a dose): the squashed mean mapped onto ``SAC_ACTION_RANGE_KG``."""
    mu = forward(actor, obs)[0]
    return float(_MID + _HALF * math.tanh(mu))


class SacAgent:
    """Soft actor-critic over a single continuous fertilizer amount."""

    _LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
    dtype = np.float32

    def __init__(self, obs_dim: int, hyper: AgentHyper = AgentHyper(),
                 seed: int = 0):
        self.hyper = hyper
        self.rng = np.random.default_rng(check_integer(seed, "seed"))
        # the actor outputs the Gaussian's mean and log-std
        self.actor = init_params((obs_dim, *HIDDEN, 2), self.rng,
                                 dtype=self.dtype)
        # a critic reads the observation and the squashed action
        critics = [init_params((obs_dim + 1, *HIDDEN, 1), self.rng,
                               dtype=self.dtype) for _ in range(2)]
        pair = ParamSet(np.concatenate([c.flat for c in critics]),
                        [w.shape for c in critics for w, _ in c])
        self._critic_pair, self._target_pair = pair, pair.copy()
        self._critic_grads = pair.like(np.empty_like(pair.flat))
        self.critics, self.targets, self._critic_grad_halves = (
            [critics[0].like(f) for f in np.split(p.flat, 2)]
            for p in (pair, self._target_pair, self._critic_grads))
        self.actor_adam = AdamState(self.actor, lr=LR)
        self.critic_adam = AdamState(pair, lr=LR)
        self.log_alpha = self._log_alpha_m = self._log_alpha_v = 0.0
        self.buffer = ReplayBuffer(BUFFER_CAPACITY, obs_dim, dtype=self.dtype)
        # what each update overwrites: the actor's gradient, the critics'
        # inputs at the next state and at the batch's state (its action
        # column holds the stored action, then the fresh one), and the
        # upstream gradient of Q's input gradient
        self._actor_grads = self.actor.like(np.empty_like(self.actor.flat))
        self._xin_next, self._xin = (
            np.empty((hyper.batch_size, obs_dim + 1), dtype=self.dtype)
            for _ in range(2))
        self._ones = np.ones((hyper.batch_size, 1), dtype=self.dtype)

    # -- policy --------------------------------------------------------------

    def act(self, state, obs: np.ndarray) -> tuple[float, float]:
        """The stochastic policy: the dose nearest a raw continuous action
        drawn from the squashed Gaussian, and that raw action."""
        check_finite(obs @ obs, "observation")
        out = forward(self.actor, obs)
        log_std = np.clip(out[1], LOG_STD_MIN, LOG_STD_MAX)
        xi = self.rng.standard_normal()
        raw = _MID + _HALF * math.tanh(out[0] + math.exp(log_std) * xi)
        return discretize_action(raw), raw

    def observe(self, obs, raw_action, reward, next_obs, done) -> None:
        check_real(raw_action, "raw action", *SAC_ACTION_RANGE_KG)
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
                - np.log(_HALF * one_m_t2 + 1e-6))
        return t, logp, xi, std, one_m_t2

    def update(self):
        h = self.hyper
        if self.buffer.size < max(h.batch_size, h.warmup):
            return None
        rng = self.rng
        obs, raw_actions, rewards, next_obs, dones = self.buffer.sample(
            h.batch_size, rng)
        t_stored = np.clip((raw_actions - _MID) / _HALF, -1.0, 1.0)
        alpha = math.exp(self.log_alpha)

        # soft targets from fresh next-state actions
        t2, logp2, *_ = self._squashed_sample(
            forward(self.actor, next_obs), rng)
        xin2 = self._xin_next
        xin2[:, :-1] = next_obs
        xin2[:, -1] = t2
        q_next = np.minimum(
            forward(self.targets[0], xin2)[:, 0],
            forward(self.targets[1], xin2)[:, 0])
        y = rewards + SAC_GAMMA * np.where(dones, 0.0,
                                           q_next - alpha * logp2)

        # critic regression: both backward passes, then one step of both
        xin = self._xin
        xin[:, :-1] = obs
        xin[:, -1] = t_stored
        critic_mse = []
        for critic, grads in zip(self.critics, self._critic_grad_halves):
            q, cache = forward_cached(critic, xin)
            err = q[:, 0] - y
            critic_mse.append(float(err @ err) / len(y))
            backward(critic, cache, 2.0 * err[:, None] / len(y), grads)
        adam_step(self._critic_pair, self._critic_grads, self.critic_adam)

        # actor: reparameterized gradient of alpha*logpi - min Q
        out, actor_cache = forward_cached(self.actor, obs)
        t, logp, xi, std, one_m_t2 = self._squashed_sample(out, rng)
        clip_mask = ((out[:, 1] > LOG_STD_MIN)
                     & (out[:, 1] < LOG_STD_MAX)).astype(float)

        # d(minQ)/d(action input) is the smaller critic's, the first on ties;
        # each row's input gradient reads only that row. The critics' caches
        # are spent, so the fresh action overwrites the stored one
        xin[:, -1] = t
        (q0, c0), (q1, c1) = (forward_cached(c, xin) for c in self.critics)
        ones = self._ones
        dq_da = np.where(q0[:, 0] <= q1[:, 0],
                         input_gradient(self.critics[0], c0, ones)[:, -1],
                         input_gradient(self.critics[1], c1, ones)[:, -1])

        dlogp_du = 2.0 * t * one_m_t2 / (one_m_t2 + 1e-6 / _HALF)
        dl_du = (alpha * dlogp_du - dq_da * one_m_t2) / len(t)
        dl_dlogstd = (dl_du * std * xi - alpha / len(t)) * clip_mask
        actor_gout = np.stack([dl_du, dl_dlogstd], axis=1)
        grads = backward(self.actor, actor_cache, actor_gout,
                         self._actor_grads)
        adam_step(self.actor, grads, self.actor_adam)

        # temperature, bias-corrected by the update count: the actor's step
        g = -float(np.mean(logp + TARGET_ENTROPY)) * math.exp(self.log_alpha)
        self._log_alpha_m = 0.9 * self._log_alpha_m + 0.1 * g
        self._log_alpha_v = 0.999 * self._log_alpha_v + 0.001 * g * g
        mhat = self._log_alpha_m / (1 - 0.9 ** self.actor_adam.step)
        vhat = self._log_alpha_v / (1 - 0.999 ** self.actor_adam.step)
        self.log_alpha -= 1e-3 * mhat / (math.sqrt(vhat) + 1e-8)

        # Polyak-averaged targets; the critics' gradient, which their Adam
        # step has read, is the scratch
        polyak_update(self._target_pair, self._critic_pair, TAU,
                      self._critic_grads.flat)
        # the critics' regression loss, before their step
        return float(np.mean(critic_mse))

    # -- persistence ----------------------------------------------------------

    def to_dict(self) -> dict:
        """The greedy policy only: the actor and its hyper."""
        return {"kind": "sac",
                "hyper": asdict(self.hyper),
                "actor": net_to_dict(self.actor)}


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def policy_from_dict(data: dict):
    """The greedy policy of an ``agent`` entry that ``to_dict`` wrote, as
    ``(obs_dim, policy)``, with ``policy`` in ``act``'s shape: the Q-net's
    argmax at epsilon 0, or the actor's mean action. Only the policy net is
    built. Of ``hyper``, only a SAC file's action range is read: it fixes
    which doses the actor's output means."""
    kind = data["kind"]
    if kind == "dqn":
        qnet = net_from_dict(data["qnet"])
        if qnet.sizes[-1] != len(DISCRETE_ACTIONS_KG):
            raise ConfigError(f"Q-net sizes {qnet.sizes} need one output "
                              f"per dose")

        def greedy(state, obs):
            i = dqn_select_action(qnet, obs, 0.0, None)
            return DISCRETE_ACTIONS_KG[i], i
        return qnet.sizes[0], greedy
    if kind == "sac":
        hyper = data.get("hyper", {})
        for key, fixed in zip(("action_low", "action_high"),
                              SAC_ACTION_RANGE_KG):
            if hyper.get(key, fixed) != fixed:
                raise ConfigError(f"checkpoint hyper {key} must be {fixed!r}: "
                                  f"{hyper[key]!r}")
        actor = net_from_dict(data["actor"])
        if actor.sizes[-1] != 2:
            raise ConfigError(f"actor sizes {actor.sizes} need 2 outputs, "
                              f"the mean and log-std")

        def greedy(state, obs):
            raw = sac_mean_action(actor, obs)
            return discretize_action(raw), raw
        return actor.sizes[0], greedy
    raise ConfigError(f"unknown agent kind {kind!r}")
