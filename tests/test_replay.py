import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from croprl.errors import ConfigError
from croprl.replay import ReplayBuffer


def test_push_and_length():
    buf = ReplayBuffer(capacity=4, obs_dim=2)
    assert buf.size == 0
    buf.push(np.zeros(2), 1, 0.5, np.ones(2), False)
    assert buf.size == 1


@pytest.mark.parametrize("capacity,obs_dim", [(0, 5), (5, 0)])
def test_capacity_and_observation_size_must_be_positive(capacity, obs_dim):
    with pytest.raises(ConfigError, match="positive capacity and obs_dim"):
        ReplayBuffer(capacity, obs_dim)


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
    assert buf.size == min(capacity, n_pushes)
    kept = range(max(0, n_pushes - capacity), n_pushes)
    stored = buf.actions[:buf.size]
    assert sorted(stored) == list(kept)
    assert all(stored[i % capacity] == i for i in kept)
    assert np.array_equal(buf.obs[:buf.size, 0], stored)


def test_sample_pairs_each_obs_with_its_own_next_obs_after_wrap_around():
    buf = ReplayBuffer(capacity=5, obs_dim=3)
    for i in range(13):  # wraps twice; pushes 8-12 remain
        buf.push(np.full(3, i), i, float(i), np.full(3, 100 + i), False)
    rng, seen = np.random.default_rng(2), set()
    for _ in range(10):
        obs, actions, rewards, next_obs, dones = buf.sample(5, rng)
        seen.update(actions)
        assert np.array_equal(obs, np.repeat(actions[:, None], 3, axis=1))
        assert np.array_equal(next_obs, obs + 100)
    assert seen == set(range(8, 13))
    assert np.array_equal(buf.next_obs, buf.obs + 100)
