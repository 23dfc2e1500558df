import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from croprl.errors import ConfigError
from croprl.replay import ReplayBuffer


def test_push_and_length():
    buf = ReplayBuffer(capacity=4, obs_dim=2)
    assert len(buf) == 0
    buf.push(np.zeros(2), 1, 0.5, np.ones(2), False)
    assert len(buf) == 1


def test_sampling_requires_enough_items():
    buf = ReplayBuffer(capacity=4, obs_dim=2)
    buf.push(np.zeros(2), 0, 0.0, np.zeros(2), False)
    with pytest.raises(ConfigError):
        buf.sample(2, np.random.default_rng(0))


def test_sample_shapes():
    buf = ReplayBuffer(capacity=16, obs_dim=3)
    for i in range(10):
        buf.push(np.full(3, i), i % 5, float(i), np.full(3, i + 1), i == 9)
    obs, actions, rewards, next_obs, dones = buf.sample(6, np.random.default_rng(1))
    assert obs.shape == (6, 3)
    assert next_obs.shape == (6, 3)
    assert actions.shape == rewards.shape == dones.shape == (6,)


@given(capacity=st.integers(1, 32), n_pushes=st.integers(1, 120))
@settings(max_examples=60, deadline=None)
def test_fifo_eviction_property(capacity, n_pushes):
    """After n > capacity pushes the newest `capacity` items remain, push i
    in slot i % capacity."""
    buf = ReplayBuffer(capacity=capacity, obs_dim=1)
    for i in range(n_pushes):
        buf.push(np.array([float(i)]), i, float(i), np.array([float(i)]), False)
    assert len(buf) == min(capacity, n_pushes)
    kept = range(max(0, n_pushes - capacity), n_pushes)
    stored = buf.actions[:len(buf)]
    assert sorted(stored) == list(kept)
    assert all(stored[i % capacity] == i for i in kept)
    assert np.array_equal(buf.obs[:len(buf), 0], stored)
