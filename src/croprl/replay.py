"""FIFO transition storage backed by preallocated numpy arrays.

Layout. A transition's observation and next observation are stored side by
side, as one (2, obs_dim) row of a (capacity, 2, obs_dim) array, so that
``sample`` gathers both with one indexing operation. ``obs`` and
``next_obs`` are views of that array, each of shape (capacity, obs_dim),
and ``sample`` returns views of its one gathered copy in the same way.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


class ReplayBuffer:
    """Ring buffer; once full, each push evicts the oldest transition."""

    def __init__(self, capacity: int, obs_dim: int, dtype=np.float64):
        if capacity < 1 or obs_dim < 1:
            raise ConfigError("replay buffer needs positive capacity and obs_dim")
        self.capacity = capacity
        self._pairs = np.zeros((capacity, 2, obs_dim), dtype=dtype)
        self.obs = self._pairs[:, 0]
        self.next_obs = self._pairs[:, 1]
        self.actions = np.zeros(capacity, dtype=dtype)
        self.rewards = np.zeros(capacity, dtype=dtype)
        self.dones = np.zeros(capacity, dtype=bool)
        self.size = 0
        self._ptr = 0

    def push(self, obs, action, reward, next_obs, done) -> None:
        """``action`` is the action index (DQN) or the raw continuous action
        (SAC)."""
        i = self._ptr
        self.obs[i] = obs
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_obs[i] = next_obs
        self.dones[i] = done
        self._ptr = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator):
        """Uniform batch as (obs, actions, rewards, next_obs, dones) arrays."""
        if batch_size > self.size:
            raise ConfigError("cannot sample more transitions than stored")
        idx = rng.integers(0, self.size, size=batch_size)
        pairs = self._pairs[idx]
        return (pairs[:, 0], self.actions[idx], self.rewards[idx],
                pairs[:, 1], self.dones[idx])
