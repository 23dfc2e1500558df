"""Surrogate crop environment and RL agents for nitrogen management.

Unless already set, ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` become
1 on import, so that side-by-side runs share the cores instead of
oversubscribing them. If numpy was imported first this does nothing; for
more BLAS threads, set either variable before importing croprl.
"""

import os
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from .agents import (AgentHyper, DqnAgent, SacAgent, discretize_action,
                     epsilon_schedule)
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
    "AgentHyper", "ConfigError", "DISCRETE_ACTIONS_KG", "DailyWeather",
    "DqnAgent", "EpisodeFinishedError", "EpisodeSummary",
    "ExperimentConfig", "MonthlyClimate", "NitrogenEnv",
    "ObservationMask", "RewardBreakdown", "RunReport",
    "SacAgent", "ScenarioConfig", "ShapeError", "StateVector",
    "WeatherModel", "baseline_policy", "daily_reward",
    "day_of_year", "discretize_action", "epsilon_schedule",
    "evaluate_policy", "florida_scenario", "iowa_scenario",
    "normalize_observation", "observe", "run_ablation", "run_episode",
    "run_training",
]
