import pytest

from croprl.env import NitrogenEnv, iowa_scenario
from croprl.harness import baseline_policy, run_episode, verify_reward_identity
from croprl.state import ObservationMask


@pytest.mark.parametrize("shift", [1.0, float("nan")])
def test_reward_identity_catches_a_wrong_or_nan_reward(shift):
    env = NitrogenEnv(iowa_scenario())
    _, records = run_episode(env, baseline_policy(160.0), ObservationMask.full())
    day = records[len(records) // 2]
    day.reward += shift
    with pytest.raises(AssertionError, match=f"day {day.dap}"):
        verify_reward_identity(records, env.config.reward)
