import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from croprl import agents
from croprl.agents import (AgentHyper, DqnAgent, SacAgent,
                           discretize_action, dqn_select_action,
                           dqn_td_targets, epsilon_schedule, policy_from_dict,
                           polyak_update, sac_mean_action)
from croprl.env import DISCRETE_ACTIONS_KG
from croprl.errors import ConfigError, ShapeError
from croprl.harness import baseline_policy, load_checkpoint
from croprl.net import AdamState, forward, init_params

from test_net import net_of
from test_state import make_state


def set_constants(monkeypatch, **values):
    """Give ``agents`` module constants other values for one test."""
    for name, value in values.items():
        monkeypatch.setattr(agents, name, value)


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
    for episode in (True, 1.0, "1"):
        with pytest.raises(ConfigError, match="must be an integer"):
            epsilon_schedule(episode, 0.9)
    assert epsilon_schedule(np.int64(2), 0.5) == 0.25


# ---------------------------------------------------------------------------
# action selection and TD targets
# ---------------------------------------------------------------------------

def qnet_returning(values):
    """A 1-input network whose outputs are the given constants."""
    return net_of([(np.zeros((1, len(values))), values)])


def test_greedy_picks_argmax():
    params = qnet_returning([1.0, 3.0, 2.0, 0.0, -1.0])
    a = dqn_select_action(params, np.zeros(1), 0.0, np.random.default_rng(0))
    assert a == 1


def test_greedy_ties_break_to_lowest_index():
    params = qnet_returning([2.0, 2.0, 2.0, 2.0, 2.0])
    a = dqn_select_action(params, np.zeros(1), 0.0, np.random.default_rng(0))
    assert a == 0


def test_observation_size_checked():
    params = qnet_returning([0.0, 1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ShapeError):
        dqn_select_action(params, np.zeros(3), 0.0, np.random.default_rng(0))


def test_full_exploration_is_uniform():
    """At epsilon=1 the empirical action frequencies are uniform over the
    Q-net's outputs within 3 sigma of the multinomial over 10,000 draws."""
    params = qnet_returning([9.0, 0.0, 0.0, 0.0, 0.0])
    rng = np.random.default_rng(123)
    n = 10_000
    counts = np.zeros(5)
    for _ in range(n):
        counts[dqn_select_action(params, np.zeros(1), 1.0, rng)] += 1
    p = 1.0 / 5.0
    sigma = math.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) <= 3 * sigma)


def test_td_targets_terminal_and_bootstrap():
    params = qnet_returning([2.0, 1.0, 0.0, 0.0, 0.0])
    rewards = np.array([1.0, 1.0])
    next_obs = np.zeros((2, 1))
    dones = np.array([True, False])
    targets = dqn_td_targets(rewards, next_obs, dones, params, 0.99)
    assert targets[0] == 1.0                      # done masks the bootstrap
    assert targets[1] == pytest.approx(2.98)      # 1 + 0.99 * 2


def test_td_targets_gamma_zero_equal_rewards():
    params = qnet_returning([5.0, -3.0, 0.0, 0.0, 0.0])
    rewards = np.array([0.5, -2.0, 7.0])
    targets = dqn_td_targets(rewards, np.zeros((3, 1)),
                             np.array([False, False, True]), params, 0.0)
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
    (250.0, 160.0), (math.inf, 160.0), (-math.inf, 0.0),
])
def test_discretize_known_points(raw, expected):
    assert discretize_action(raw) == expected


def test_discretize_refuses_nan():
    for a in (math.nan, True, False, "80", b"80"):
        with pytest.raises(ValueError, match="must be a number"):
            discretize_action(a)


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
    assert pol(make_state(vstage=4.9, cumsumfert=0.0), None) == (0.0, 0.0)
    assert pol(make_state(vstage=5.0, cumsumfert=0.0), None) == (160.0, 160.0)
    # while no N has been applied, every later day asks for the dose
    assert pol(make_state(vstage=6.1, cumsumfert=0.0), None) == (160.0, 160.0)


def test_vstage_policy_fires_once():
    """Silent once any N has been applied; amount 0 gives 0 every day."""
    pol = baseline_policy(120.0)
    assert pol(make_state(vstage=5.5, cumsumfert=0.0), None) == (120.0, 120.0)
    assert pol(make_state(vstage=5.5, cumsumfert=120.0), None) == (0.0, 0.0)
    assert pol(make_state(vstage=8.0, cumsumfert=1e-9), None) == (0.0, 0.0)
    zero = baseline_policy(0.0)
    for vstage in (2.0, 5.0, 8.0):
        assert zero(make_state(vstage=vstage, cumsumfert=0.0), None) \
            == (0.0, 0.0)


# ---------------------------------------------------------------------------
# DQN learning behavior
# ---------------------------------------------------------------------------

def test_single_transition_regression_gamma_zero(monkeypatch):
    """With one repeated transition and gamma=0 the Q-value converges to r."""
    set_constants(monkeypatch, DQN_GAMMA=0.0, LR=1e-2, HIDDEN=(16,))
    agent = DqnAgent(2, AgentHyper(batch_size=8, warmup=8), seed=0)
    obs = np.array([0.3, 0.7])
    for _ in range(5000):
        agent.buffer.push(obs, 1, 2.5, obs, True)
        agent.update()
        q = forward(agent.params, obs)[1]
        if abs(q - 2.5) < 1e-3:
            break
    assert abs(forward(agent.params, obs)[1] - 2.5) < 1e-3


def test_zero_reward_environment_q_values_stay_near_zero(monkeypatch):
    set_constants(monkeypatch, TARGET_UPDATE_INTERVAL=20, LR=1e-2,
                  HIDDEN=(16,))
    agent = DqnAgent(1, AgentHyper(batch_size=8, warmup=8), seed=0)
    rng = np.random.default_rng(0)
    # the max over five noisy outputs biases each bootstrap upward, so the
    # values take a few thousand updates to settle
    for _ in range(3000):
        o = rng.uniform(size=1)
        agent.buffer.push(o, int(rng.integers(5)), 0.0, rng.uniform(size=1),
                          bool(rng.random() < 0.1))
        agent.update()
    q = forward(agent.params, np.array([0.5]))
    assert np.all(np.abs(q) < 0.25)


def test_buffer_underfull_update_is_noop():
    agent = DqnAgent(2, AgentHyper(batch_size=16, warmup=32), seed=0)
    before = [w.copy() for w, _ in agent.params]
    agent.buffer.push(np.zeros(2), 0, 1.0, np.zeros(2), False)
    assert agent.update() is None
    assert all(np.array_equal(b, w) for b, (w, _) in zip(before, agent.params))


def test_target_network_changes_only_at_sync_points(monkeypatch):
    set_constants(monkeypatch, TARGET_UPDATE_INTERVAL=10, LR=1e-3,
                  HIDDEN=(8,))
    agent = DqnAgent(1, AgentHyper(batch_size=4, warmup=4), seed=0)
    rng = np.random.default_rng(1)
    snapshots = [w.copy() for w, _ in agent.target_params]
    for _ in range(30):
        agent.buffer.push(rng.uniform(size=1), int(rng.integers(5)),
                          float(rng.normal()), rng.uniform(size=1), False)
        agent.update()
        changed = not all(
            np.array_equal(s, w) for s, (w, _) in zip(snapshots,
                                                      agent.target_params))
        if agent.adam.step % 10 == 0 and agent.adam.step > 0:
            assert changed
            snapshots = [w.copy() for w, _ in agent.target_params]
            assert all(np.array_equal(w, tw) for (w, _), (tw, _) in
                       zip(agent.params, agent.target_params))
        else:
            assert not changed


def updated_agent(kind):
    """A small agent after one gradient step."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        if kind == "dqn":
            monkeypatch.setattr(agents, "HIDDEN", (16,))
            agent = DqnAgent(4, AgentHyper(batch_size=4, warmup=4), seed=3)
        else:
            monkeypatch.setattr(agents, "HIDDEN", (12,))
            agent = SacAgent(4, AgentHyper(batch_size=4, warmup=4), seed=4)
    rng = np.random.default_rng(5)
    for _ in range(4):
        agent.buffer.push(rng.uniform(size=4), float(rng.integers(2)),
                          float(rng.normal()), rng.uniform(size=4), False)
    assert agent.update() is not None
    return agent


def greedy_of(agent, obs):
    """The live agent's greedy (dose, action): the Q-net's first argmax, or
    the actor's mean action and the dose nearest it."""
    if isinstance(agent, DqnAgent):
        i = int(np.argmax(forward(agent.params, obs)))
        return DISCRETE_ACTIONS_KG[i], i
    raw = sac_mean_action(agent.actor, obs)
    return discretize_action(raw), raw


def assert_loaded_plays_greedy(agent):
    """The checkpoint's loaded policy gives the live agent's greedy
    (dose, action) on 50 observations; at epsilon 0 a DQN agent's ``act``
    gives it too."""
    obs_dim, policy = policy_from_dict(
        json.loads(json.dumps(agent.to_dict())))
    assert obs_dim == 4
    rng = np.random.default_rng(6)
    for _ in range(50):
        obs = rng.uniform(size=4)
        assert policy(None, obs) == greedy_of(agent, obs)
        if isinstance(agent, DqnAgent):
            agent.epsilon = 0.0
            assert agent.act(None, obs) == greedy_of(agent, obs)


def test_dqn_checkpoint_reproduces_greedy_policy():
    assert_loaded_plays_greedy(updated_agent("dqn"))


# ---------------------------------------------------------------------------
# SAC pieces
# ---------------------------------------------------------------------------

def test_polyak_rule_arithmetic():
    target = net_of([(np.zeros((1, 1)), np.zeros(1))])
    online = net_of([(np.ones((1, 1)), np.ones(1))])
    scratch = np.full_like(online.flat, np.nan)
    out = polyak_update(target, online, tau=0.001, scratch=scratch)
    assert out is target
    assert out[0][0][0, 0] == pytest.approx(0.001)
    assert out[0][1][0] == pytest.approx(0.001)


def test_a_polyak_update_allocates_no_critic_sized_temporary():
    """tau * online goes into the caller's scratch: before, one call on a
    default-size critic (81,924 bytes) peaked at 82,120 traced bytes."""
    rng = np.random.default_rng(0)
    online, target = (init_params((29, *agents.HIDDEN, 1), rng,
                                  dtype=np.float32) for _ in range(2))
    scratch = np.empty_like(online.flat)
    expected = (1.0 - 0.001) * target.flat + 0.001 * online.flat
    polyak_update(target.copy(), online, 0.001, scratch)  # warm-up
    tracemalloc.start()
    try:
        polyak_update(target, online, 0.001, scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024, peak
    assert target.flat.tobytes() == expected.tobytes()


def test_sac_targets_move_only_by_polyak(monkeypatch):
    set_constants(monkeypatch, TAU=0.01, LR=1e-3, HIDDEN=(16,))
    agent = SacAgent(2, AgentHyper(batch_size=8, warmup=8), seed=0)
    rng = np.random.default_rng(2)
    before_target = agent.targets[0].copy()
    for _ in range(9):
        agent.buffer.push(rng.uniform(size=2), float(rng.uniform(0, 200)),
                          float(rng.normal()), rng.uniform(size=2), True)
    agent.update()
    # target' = (1 - tau) * target + tau * online', with online' the critic
    # after this update
    expected = polyak_update(before_target, agent.critics[0], 0.01,
                             np.empty_like(before_target.flat))
    for (ew, eb), (tw, tb) in zip(expected, agent.targets[0]):
        assert np.allclose(ew, tw, atol=1e-12)
        assert np.allclose(eb, tb, atol=1e-12)


def test_target_sync_and_polyak_match_the_per_array_rules(monkeypatch):
    """The flat DQN sync and SAC Polyak give the bits of the per-array copy
    and expression, into target buffers that never alias the online ones."""
    tau = 0.01
    set_constants(monkeypatch, TARGET_UPDATE_INTERVAL=5, TAU=tau, LR=1e-3,
                  HIDDEN=(8,))
    rng = np.random.default_rng(7)
    dqn = DqnAgent(2, AgentHyper(batch_size=4, warmup=4), seed=0)
    target_buffer = dqn.target_params.flat
    synced = 0
    for _ in range(14):  # 11 gradient steps: syncs after steps 5 and 10
        dqn.buffer.push(rng.uniform(size=2), int(rng.integers(5)),
                        float(rng.normal()), rng.uniform(size=2), False)
        dqn.update()
        assert dqn.target_params.flat is target_buffer
        assert not np.shares_memory(target_buffer, dqn.params.flat)
        if dqn.adam.step and dqn.adam.step % 5 == 0:
            expected = [(w.copy(), b.copy()) for w, b in dqn.params]
            for (ew, eb), (tw, tb) in zip(expected, dqn.target_params):
                assert ew.tobytes() == tw.tobytes()
                assert eb.tobytes() == tb.tobytes()
            synced += 1
    assert synced == 2

    monkeypatch.setattr(agents, "HIDDEN", (16,))
    sac = SacAgent(2, AgentHyper(batch_size=8, warmup=8), seed=0)
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


def test_sac_update_returns_the_critics_regression_loss(monkeypatch):
    """With one repeated terminal transition y = r, so the returned loss is
    the mean of the two critics' squared errors before their step."""
    set_constants(monkeypatch, LR=1e-3, HIDDEN=(16,))
    agent = SacAgent(2, AgentHyper(batch_size=8, warmup=8), seed=0)
    obs = np.array([0.25, 0.75])
    for _ in range(8):
        agent.buffer.push(obs, 150.0, -3.0, obs, True)
    # 150 on the default 0-200 range is 0.5 on the squashed scale
    xin = np.array([[0.25, 0.75, 0.5]])
    before = [float(forward(c, xin)[0, 0])
              for c in agent.critics]
    expected = 0.5 * ((before[0] + 3.0) ** 2 + (before[1] + 3.0) ** 2)
    assert agent.update() == pytest.approx(expected, rel=1e-5)


@pytest.mark.parametrize("kind", ["dqn", "sac"])
def test_loading_a_checkpoint_builds_no_learner(tmp_path, monkeypatch, kind):
    """With the replay buffer and Adam state unbuildable, a checkpoint still
    loads and plays its greedy policy."""
    agent = updated_agent(kind)
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps({"agent": agent.to_dict()}))

    def refuse(*args, **kwargs):
        raise AssertionError("a learner was built")

    monkeypatch.setattr(agents, "ReplayBuffer", refuse)
    monkeypatch.setattr(AdamState, "for_params", refuse)
    with pytest.raises(AssertionError, match="learner"):
        type(agent)(4, agent.hyper)
    policy, _ = load_checkpoint(path)
    obs = np.full(4, 0.5)
    assert policy(None, obs) == greedy_of(agent, obs)


def test_sac_actions_respect_bounds_and_discretization(monkeypatch):
    monkeypatch.setattr(agents, "HIDDEN", (8,))
    agent = SacAgent(3, AgentHyper(), seed=1)
    rng = np.random.default_rng(3)
    for _ in range(200):
        dose, a = agent.act(None, rng.uniform(size=3))
        assert 0.0 <= a <= 200.0
        assert dose == discretize_action(a) and dose in DISCRETE_ACTIONS_KG


def test_sac_checkpoint_reproduces_mean_action():
    assert_loaded_plays_greedy(updated_agent("sac"))


def test_a_checkpoint_hyper_is_read_only_for_the_sac_action_range():
    """Older files hold hyper keys that are now constants, or that the other
    kind or no kind knows; the net loads whatever they hold, and without a
    hyper at all. A SAC action range other than 0-200 kg/ha is refused,
    since its actor's output means other doses."""
    retired = {"dqn": {"grad_steps_per_day": 2, "buffer_capacity": 100_000,
                       "target_update_interval": 200, "gamma": 0.99,
                       "lr": 5e-5, "hidden": [128, 128]},
               "sac": {"alpha": None, "target_entropy": -0.5,
                       "reward_scale": 0.1, "log_std_min": -5.0,
                       "log_std_max": 2.0, "action_low": 0.0,
                       "action_high": 200, "tau": 0.001,
                       "buffer_capacity": 100_000, "gamma": 0.98,
                       "lr": 5e-5, "hidden": [128, 128]}}

    def with_keys(data, keys):
        return {**data, "hyper": {**data["hyper"], **keys}}

    current = {kind: updated_agent(kind).to_dict() for kind in retired}
    for kind, data in current.items():
        assert not retired[kind].keys() & data["hyper"].keys()
        for keys in (*retired.values(), {"log_std_mid": 0.0},
                     {"hidden": [99], "buffer_capacity": 0}):
            assert policy_from_dict(with_keys(data, keys))[0] == 4
        assert policy_from_dict(
            {k: v for k, v in data.items() if k != "hyper"})[0] == 4
    for key, value in (("action_high", 160.0), ("action_low", -1.0)):
        assert policy_from_dict(with_keys(current["dqn"], {key: value}))[0] == 4
        with pytest.raises(ConfigError, match=key):
            policy_from_dict(with_keys(current["sac"], {key: value}))


def test_sac_bandit_learns_the_optimum_single_seed(monkeypatch):
    """Scaled-down version of the acceptance bandit: one seed, 1500 updates."""
    set_constants(monkeypatch, TAU=0.005, LR=1e-3, HIDDEN=(32, 32))
    agent = SacAgent(1, AgentHyper(batch_size=64, warmup=64), seed=0)
    obs = np.zeros(1)
    while agent.actor_adam.step < 1500:
        _, a = agent.act(None, obs)
        agent.observe(obs, a, -0.01 * (a - 120.0) ** 2, obs, True)
    assert abs(sac_mean_action(agent.actor, obs) - 120.0) <= 15.0


# ---------------------------------------------------------------------------
# per-update allocations
# ---------------------------------------------------------------------------

# Peak traced bytes of one warmed update, over the bytes of the nets it
# steps: a 28-input DQN Q-net (83,476 bytes) peaked at 257,744 (3.09x), and
# a SAC actor and two critics (245,776 bytes) at 669,048 (2.72x). When each
# update allocated a new gradient vector, Adam scratch and batch
# temporaries, the peaks were 458,113 (5.49x) and 916,300 (3.73x).
PEAK_PER_NET_BYTE = {"dqn": 4.0, "sac": 3.25}


@pytest.mark.parametrize("kind", ["dqn", "sac"])
def test_one_update_allocates_no_per_update_temporaries(kind):
    """Default widths and batch: the learner reuses its gradient, Adam and
    batch buffers, so one update's traced peak stays near the activations
    it caches."""
    n, rng = 28, np.random.default_rng(0)
    if kind == "dqn":
        agent = DqnAgent(n, AgentHyper(warmup=64), seed=0)
        nets = [agent.params]
    else:
        agent = SacAgent(n, AgentHyper(warmup=64), seed=0)
        nets = [agent.actor, *agent.critics]
    for _ in range(200):
        action = (int(rng.integers(5)) if kind == "dqn"
                  else float(rng.uniform(0.0, 200.0)))
        agent.buffer.push(rng.uniform(size=n), action, float(rng.normal()),
                          rng.uniform(size=n), False)
    for _ in range(3):
        assert agent.update() is not None
    tracemalloc.start()
    try:
        agent.update()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    net_bytes = sum(p.flat.nbytes for p in nets)
    assert peak <= PEAK_PER_NET_BYTE[kind] * net_bytes, (peak, net_bytes)
