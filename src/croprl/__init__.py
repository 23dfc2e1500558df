"""Surrogate crop environment and RL agents for nitrogen management."""

from .agents import (DqnAgent, DqnHyper, SacAgent, SacHyper,
                     discretize_action, epsilon_schedule)
from .env import (DISCRETE_ACTIONS_KG, NitrogenEnv, ScenarioConfig,
                  day_of_year, florida_scenario, iowa_scenario)
from .errors import ConfigError, EpisodeFinishedError, ShapeError
from .harness import (EpisodeSummary, ExperimentConfig, RunReport,
                      baseline_policy, evaluate_policy, run_ablation,
                      run_episode, run_training)
from .reward import RewardBreakdown, daily_reward
from .state import (ObservationMask, StateVector, normalize_observation,
                    observe)
from .weather import DailyWeather, MonthlyClimate, WeatherModel

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DISCRETE_ACTIONS_KG", "DailyWeather",
    "DqnAgent", "DqnHyper", "EpisodeFinishedError", "EpisodeSummary",
    "ExperimentConfig", "MonthlyClimate", "NitrogenEnv",
    "ObservationMask", "RewardBreakdown", "RunReport",
    "SacAgent", "SacHyper", "ScenarioConfig", "ShapeError", "StateVector",
    "WeatherModel", "baseline_policy", "daily_reward",
    "day_of_year", "discretize_action", "epsilon_schedule",
    "evaluate_policy", "florida_scenario", "iowa_scenario",
    "normalize_observation", "observe", "run_ablation", "run_episode",
    "run_training",
]
