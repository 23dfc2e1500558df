"""Surrogate crop environment and RL agents for nitrogen management.

Promised, each refusing a bad number with a typed error: ``AgentHyper``,
``DqnAgent``, ``SacAgent``, ``NitrogenEnv``, ``ObservationMask``,
``ExperimentConfig``, ``iowa_scenario``, ``florida_scenario``,
``run_training``, ``run_ablation``, ``evaluate_policy``, ``baseline_policy``
and the errors ``ConfigError``, ``ShapeError``, ``EpisodeFinishedError``.
The submodules' helpers are importable, but neither promised nor checked.

Unless already set, ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` become
1 on import, so that side-by-side runs share the cores instead of
oversubscribing them. If numpy was imported first this does nothing; for
more BLAS threads, set either variable before importing croprl.
"""

import os
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from .agents import AgentHyper, DqnAgent, SacAgent
from .env import NitrogenEnv, florida_scenario, iowa_scenario
from .errors import ConfigError, EpisodeFinishedError, ShapeError
from .harness import (ExperimentConfig, baseline_policy, evaluate_policy,
                      run_ablation, run_training)
from .state import ObservationMask

__version__ = "0.1.0"

__all__ = [
    "AgentHyper", "ConfigError", "DqnAgent", "EpisodeFinishedError",
    "ExperimentConfig", "NitrogenEnv", "ObservationMask", "SacAgent",
    "ShapeError", "baseline_policy", "evaluate_policy", "florida_scenario",
    "iowa_scenario", "run_ablation", "run_training",
]
