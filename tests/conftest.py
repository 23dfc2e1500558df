import numpy as np
import pytest

from croprl.env import NitrogenEnv, florida_scenario, iowa_scenario


@pytest.fixture(scope="session")
def iowa_env():
    return NitrogenEnv(iowa_scenario())


@pytest.fixture(scope="session")
def florida_env():
    return NitrogenEnv(florida_scenario())


@pytest.fixture
def random_action_sequence():
    rng = np.random.default_rng(1234)

    def policy(state):
        return float(rng.choice([0.0, 40.0, 80.0, 120.0, 160.0]))
    return policy
