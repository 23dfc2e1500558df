import pytest

from croprl.env import NitrogenEnv, florida_scenario, iowa_scenario


@pytest.fixture(scope="session")
def iowa_env():
    return NitrogenEnv(iowa_scenario())


@pytest.fixture(scope="session")
def florida_env():
    return NitrogenEnv(florida_scenario())
