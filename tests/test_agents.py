import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from croprl.agents import (DqnAgent, DqnHyper, SacAgent, SacHyper,
                           discretize_action, dqn_select_action,
                           dqn_td_targets, epsilon_schedule, polyak_update)
from croprl.env import DISCRETE_ACTIONS_KG
from croprl.errors import ConfigError, ShapeError
from croprl.harness import baseline_policy
from croprl.net import MlpSpec, ParamSet, forward, init_params

from test_state import make_state


# ---------------------------------------------------------------------------
# epsilon schedule
# ---------------------------------------------------------------------------

def test_epsilon_starts_at_one():
    assert epsilon_schedule(0, 0.994) == 1.0


def test_epsilon_matches_geometric_decay():
    # oracle: repeated multiplication, no pow()
    value = 1.0
    for _ in range(100):
        value *= 0.994
    assert abs(epsilon_schedule(100, 0.994) - value) < 1e-12
    assert epsilon_schedule(100, 0.994) == pytest.approx(0.5478, abs=2e-4)


def test_epsilon_late_training_is_tiny():
    value = 1.0
    for _ in range(1200):
        value *= 0.992
    assert abs(epsilon_schedule(1200, 0.992) - value) < 1e-12
    assert epsilon_schedule(1200, 0.992) == pytest.approx(6.5e-5, abs=1e-6)


def test_epsilon_validation():
    with pytest.raises(ConfigError):
        epsilon_schedule(-1, 0.99)
    with pytest.raises(ConfigError):
        epsilon_schedule(1, 1.5)


# ---------------------------------------------------------------------------
# action selection and TD targets
# ---------------------------------------------------------------------------

def qnet_returning(values):
    """A 1-input network whose outputs are the given constants."""
    spec = MlpSpec((1, len(values)))
    params = [(np.zeros((1, len(values))), np.asarray(values, dtype=float))]
    return spec, params


def test_greedy_picks_argmax():
    spec, params = qnet_returning([1.0, 3.0, 2.0, 0.0, -1.0])
    a = dqn_select_action(spec, params, np.zeros(1), 0.0,
                          np.random.default_rng(0), 5)
    assert a == 1


def test_greedy_ties_break_to_lowest_index():
    spec, params = qnet_returning([2.0, 2.0, 2.0, 2.0, 2.0])
    a = dqn_select_action(spec, params, np.zeros(1), 0.0,
                          np.random.default_rng(0), 5)
    assert a == 0


def test_observation_size_checked():
    spec, params = qnet_returning([0.0, 1.0])
    with pytest.raises(ShapeError):
        dqn_select_action(spec, params, np.zeros(3), 0.0,
                          np.random.default_rng(0), 2)


def test_full_exploration_is_uniform():
    """At epsilon=1 the empirical action frequencies are uniform within 3
    sigma of the multinomial over 10,000 draws."""
    spec, params = qnet_returning([9.0, 0.0, 0.0, 0.0, 0.0])
    rng = np.random.default_rng(123)
    n = 10_000
    counts = np.zeros(5)
    for _ in range(n):
        counts[dqn_select_action(spec, params, np.zeros(1), 1.0, rng, 5)] += 1
    p = 1.0 / 5.0
    sigma = math.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) <= 3 * sigma)


def test_td_targets_terminal_and_bootstrap():
    spec, params = qnet_returning([2.0, 1.0])
    rewards = np.array([1.0, 1.0])
    next_obs = np.zeros((2, 1))
    dones = np.array([True, False])
    targets = dqn_td_targets(rewards, next_obs, dones, spec, params, 0.99)
    assert targets[0] == 1.0                      # done masks the bootstrap
    assert targets[1] == pytest.approx(2.98)      # 1 + 0.99 * 2


def test_td_targets_gamma_zero_equal_rewards():
    spec, params = qnet_returning([5.0, -3.0])
    rewards = np.array([0.5, -2.0, 7.0])
    targets = dqn_td_targets(rewards, np.zeros((3, 1)),
                             np.array([False, False, True]), spec, params, 0.0)
    assert np.allclose(targets, rewards)


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------

def brute_force_nearest(a):
    a = min(max(a, 0.0), 200.0)
    best, best_d = None, None
    for cand in DISCRETE_ACTIONS_KG:  # ascending: first win keeps the smaller
        d = abs(a - cand)
        if best_d is None or d < best_d:
            best, best_d = cand, d
    return best


@pytest.mark.parametrize("raw,expected", [
    (0.0, 0.0), (95.0, 80.0), (200.0, 160.0), (100.0, 80.0),
    (19.9, 0.0), (20.1, 40.0), (60.0, 40.0), (140.0, 120.0), (-5.0, 0.0),
    (250.0, 160.0),
])
def test_discretize_known_points(raw, expected):
    assert discretize_action(raw) == expected


def test_discretize_idempotent_on_the_set():
    for a in DISCRETE_ACTIONS_KG:
        assert discretize_action(a) == a


def test_discretize_agrees_with_brute_force():
    rng = np.random.default_rng(77)
    for a in rng.uniform(0.0, 200.0, size=2000):
        assert discretize_action(float(a)) == brute_force_nearest(float(a))


# ---------------------------------------------------------------------------
# baseline policy
# ---------------------------------------------------------------------------

def test_baseline_waits_for_vstage5():
    pol = baseline_policy(160.0)
    assert pol(make_state(vstage=4.9), None) == (0.0, 0.0)
    assert pol(make_state(vstage=5.0), None) == (160.0, 160.0)
    assert pol(make_state(vstage=6.1), None) == (0.0, 0.0)


def test_vstage_policy_fires_once():
    pol = baseline_policy(120.0)
    assert pol(make_state(vstage=2.0), None) == (0.0, 0.0)
    assert pol(make_state(vstage=5.5), None) == (120.0, 120.0)
    assert pol(make_state(vstage=8.0), None) == (0.0, 0.0)
    pol.reset()
    assert pol(make_state(vstage=5.5), None) == (120.0, 120.0)

# ---------------------------------------------------------------------------
# DQN learning behavior
# ---------------------------------------------------------------------------

def test_single_transition_regression_gamma_zero():
    """With one repeated transition and gamma=0 the Q-value converges to r."""
    hyper = DqnHyper(gamma=0.0, batch_size=8, lr=1e-2, warmup=8,
                     buffer_capacity=64, target_update_interval=50,
                     hidden=(16,))
    agent = DqnAgent(2, hyper, seed=0, n_actions=3)
    obs = np.array([0.3, 0.7])
    for _ in range(5000):
        agent.buffer.push(obs, 1, 2.5, obs, True)
        agent.update()
        q = forward(agent.spec, agent.params, obs)[1]
        if abs(q - 2.5) < 1e-3:
            break
    assert abs(forward(agent.spec, agent.params, obs)[1] - 2.5) < 1e-3


def test_zero_reward_environment_q_values_stay_near_zero():
    hyper = DqnHyper(gamma=0.99, batch_size=8, lr=1e-2, warmup=8,
                     buffer_capacity=64, target_update_interval=20,
                     hidden=(16,))
    agent = DqnAgent(1, hyper, seed=0, n_actions=2)
    rng = np.random.default_rng(0)
    for _ in range(500):
        o = rng.uniform(size=1)
        agent.buffer.push(o, int(rng.integers(2)), 0.0, rng.uniform(size=1),
                          bool(rng.random() < 0.1))
        agent.update()
    q = forward(agent.spec, agent.params, np.array([0.5]))
    assert np.all(np.abs(q) < 0.25)


def test_buffer_underfull_update_is_noop():
    agent = DqnAgent(2, DqnHyper(batch_size=16, warmup=32), seed=0)
    before = [w.copy() for w, _ in agent.params]
    agent.buffer.push(np.zeros(2), 0, 1.0, np.zeros(2), False)
    assert agent.update() is None
    assert all(np.array_equal(b, w) for b, (w, _) in zip(before, agent.params))


def test_target_network_changes_only_at_sync_points():
    hyper = DqnHyper(batch_size=4, warmup=4, target_update_interval=10,
                     hidden=(8,), lr=1e-3)
    agent = DqnAgent(1, hyper, seed=0, n_actions=2)
    rng = np.random.default_rng(1)
    snapshots = [w.copy() for w, _ in agent.target_params]
    for _ in range(30):
        agent.buffer.push(rng.uniform(size=1), int(rng.integers(2)),
                          float(rng.normal()), rng.uniform(size=1), False)
        agent.update()
        changed = not all(
            np.array_equal(s, w) for s, (w, _) in zip(snapshots,
                                                      agent.target_params))
        if agent.grad_steps % 10 == 0 and agent.grad_steps > 0:
            assert changed
            snapshots = [w.copy() for w, _ in agent.target_params]
            assert all(np.array_equal(w, tw) for (w, _), (tw, _) in
                       zip(agent.params, agent.target_params))
        else:
            assert not changed


def test_dqn_checkpoint_reproduces_greedy_policy(tmp_path):
    agent = DqnAgent(4, DqnHyper(hidden=(16,)), seed=3)
    path = tmp_path / "dqn.json"
    with open(path, "w") as fh:
        json.dump(agent.to_dict(), fh)
    with open(path) as fh:
        clone = DqnAgent.from_dict(json.load(fh))
    rng = np.random.default_rng(5)
    for _ in range(50):
        obs = rng.uniform(size=4)
        assert clone.greedy_action(obs) == agent.greedy_action(obs)


# ---------------------------------------------------------------------------
# SAC pieces
# ---------------------------------------------------------------------------

def test_polyak_rule_arithmetic():
    target = ParamSet.of([(np.zeros((1, 1)), np.zeros(1))])
    online = ParamSet.of([(np.ones((1, 1)), np.ones(1))])
    out = polyak_update(target, online, tau=0.001)
    assert out is target
    assert out[0][0][0, 0] == pytest.approx(0.001)
    assert out[0][1][0] == pytest.approx(0.001)


def test_sac_targets_move_only_by_polyak():
    hyper = SacHyper(batch_size=8, warmup=8, hidden=(16,), lr=1e-3, tau=0.01)
    agent = SacAgent(2, hyper, seed=0)
    rng = np.random.default_rng(2)
    before_target = agent.targets[0].copy()
    for _ in range(9):
        agent.buffer.push(rng.uniform(size=2), float(rng.uniform(0, 200)),
                          float(rng.normal()), rng.uniform(size=2), True)
    agent.update()
    # target' = (1 - tau) * target + tau * online', with online' the critic
    # after this update
    expected = polyak_update(before_target, agent.critics[0], 0.01)
    for (ew, eb), (tw, tb) in zip(expected, agent.targets[0]):
        assert np.allclose(ew, tw, atol=1e-12)
        assert np.allclose(eb, tb, atol=1e-12)


def test_target_sync_and_polyak_match_the_per_array_rules():
    """The flat DQN sync and SAC Polyak give the bits of the per-array copy
    and expression, into target buffers that never alias the online ones."""
    rng = np.random.default_rng(7)
    dqn = DqnAgent(2, DqnHyper(batch_size=4, warmup=4, target_update_interval=5,
                               hidden=(8,), lr=1e-3), seed=0, n_actions=3)
    target_buffer = dqn.target_params.flat
    synced = 0
    for _ in range(14):  # 11 gradient steps: syncs after steps 5 and 10
        dqn.buffer.push(rng.uniform(size=2), int(rng.integers(3)),
                        float(rng.normal()), rng.uniform(size=2), False)
        dqn.update()
        assert dqn.target_params.flat is target_buffer
        assert not np.shares_memory(target_buffer, dqn.params.flat)
        if dqn.grad_steps and dqn.grad_steps % 5 == 0:
            expected = [(w.copy(), b.copy()) for w, b in dqn.params]
            for (ew, eb), (tw, tb) in zip(expected, dqn.target_params):
                assert ew.tobytes() == tw.tobytes()
                assert eb.tobytes() == tb.tobytes()
            synced += 1
    assert synced == 2

    tau = 0.01
    sac = SacAgent(2, SacHyper(batch_size=8, warmup=8, hidden=(16,), lr=1e-3,
                               tau=tau), seed=0)
    for _ in range(7):
        sac.buffer.push(rng.uniform(size=2), float(rng.uniform(0, 200)),
                        float(rng.normal()), rng.uniform(size=2), False)
    for _ in range(3):
        sac.buffer.push(rng.uniform(size=2), float(rng.uniform(0, 200)),
                        float(rng.normal()), rng.uniform(size=2), False)
        before = [[(w.copy(), b.copy()) for w, b in t] for t in sac.targets]
        assert sac.update() is not None
        for i in range(2):
            expected = [((1.0 - tau) * tw + tau * w, (1.0 - tau) * tb + tau * b)
                        for (tw, tb), (w, b) in zip(before[i], sac.critics[i])]
            for (ew, eb), (tw, tb) in zip(expected, sac.targets[i]):
                assert ew.tobytes() == tw.tobytes()
                assert eb.tobytes() == tb.tobytes()
            assert not np.shares_memory(sac.targets[i].flat,
                                        sac.critics[i].flat)
        assert not np.shares_memory(sac.targets[0].flat, sac.targets[1].flat)


def test_sac_update_returns_the_critics_regression_loss():
    """With one repeated terminal transition y = r, so the returned loss is
    the mean of the two critics' squared errors before their step."""
    agent = SacAgent(2, SacHyper(batch_size=8, warmup=8, hidden=(16,),
                                 lr=1e-3), seed=0)
    obs = np.array([0.25, 0.75])
    for _ in range(8):
        agent.buffer.push(obs, 150.0, -3.0, obs, True)
    # 150 on the default 0-200 range is 0.5 on the squashed scale
    xin = np.array([[0.25, 0.75, 0.5]])
    before = [float(forward(agent.critic_spec, c, xin)[0, 0])
              for c in agent.critics]
    expected = 0.5 * ((before[0] + 3.0) ** 2 + (before[1] + 3.0) ** 2)
    assert agent.update() == pytest.approx(expected, rel=1e-5)


@pytest.mark.parametrize("kind", ["dqn", "sac"])
def test_checkpoint_round_trip_keeps_the_flat_layout(tmp_path, kind):
    """A loaded agent's nets share one buffer per net, its Adam moments
    match it, and it can keep training."""
    if kind == "dqn":
        agent = DqnAgent(3, DqnHyper(batch_size=4, warmup=4, hidden=(8,)),
                         seed=2)
    else:
        agent = SacAgent(3, SacHyper(batch_size=4, warmup=4, hidden=(8,)),
                         seed=2)
    rng = np.random.default_rng(4)

    def fill(a):
        for _ in range(4):
            a.buffer.push(rng.uniform(size=3), float(rng.integers(2)),
                          float(rng.normal()), rng.uniform(size=3), False)

    fill(agent)
    assert agent.update() is not None
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(agent.to_dict()))
    clone = type(agent).from_dict(json.loads(path.read_text()))
    assert clone.to_dict() == agent.to_dict()
    if kind == "dqn":
        nets = [(clone.params, clone.adam), (clone.target_params, None)]
    else:
        nets = ([(clone.actor, clone.actor_adam)]
                + list(zip(clone.critics, clone.critic_adams))
                + [(t, None) for t in clone.targets])
    for params, adam in nets:
        assert isinstance(params, ParamSet)
        for w, b in params:
            assert np.shares_memory(w, params.flat)
            assert np.shares_memory(b, params.flat)
        if adam is not None:
            assert adam.m.shape == adam.v.shape == params.flat.shape
    flats = [p.flat for p, _ in nets]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(flats)
                   for b in flats[i + 1:])
    fill(clone)
    assert clone.update() is not None


def test_sac_actions_respect_bounds_and_discretization():
    agent = SacAgent(3, SacHyper(hidden=(8,)), seed=1)
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = agent.act(rng.uniform(size=3))
        assert 0.0 <= a <= 200.0
        assert discretize_action(a) in DISCRETE_ACTIONS_KG


def test_sac_alpha_fixed_vs_auto():
    fixed = SacAgent(1, SacHyper(alpha=0.25, hidden=(8,)), seed=0)
    assert fixed.alpha == 0.25
    auto = SacAgent(1, SacHyper(alpha=None, hidden=(8,)), seed=0)
    assert auto.alpha == pytest.approx(1.0)  # exp(0) before any tuning


def test_sac_checkpoint_reproduces_mean_action(tmp_path):
    agent = SacAgent(3, SacHyper(hidden=(12,)), seed=4)
    path = tmp_path / "sac.json"
    with open(path, "w") as fh:
        json.dump(agent.to_dict(), fh)
    with open(path) as fh:
        clone = SacAgent.from_dict(json.load(fh))
    rng = np.random.default_rng(6)
    for _ in range(25):
        obs = rng.uniform(size=3)
        assert clone.greedy_action(obs) == agent.greedy_action(obs)


def test_sac_bandit_learns_the_optimum_single_seed():
    """Scaled-down version of the acceptance bandit: one seed, 1500 updates."""
    hyper = SacHyper(tau=0.005, lr=1e-3, batch_size=64, warmup=64,
                     buffer_capacity=10_000, hidden=(32, 32),
                     reward_scale=0.01)
    agent = SacAgent(1, hyper, seed=0)
    obs = np.zeros(1)
    while agent.updates < 1500:
        a = agent.act(obs)
        agent.observe(obs, a, -((a - 120.0) ** 2), obs, True)
    assert abs(agent.greedy_action(obs) - 120.0) <= 15.0
