"""One table of refusals for the public API.

Every callable in ``croprl.__all__``, and the public methods of its
exported classes that take numbers, refuse each bad value of each numeric
parameter with a typed error and change no state when they do.

* A numeric parameter refuses NaN, +-inf, True, "x" and None, and also the
  negatives, zero or 10**30 that its interval excludes.
* The error is a ConfigError, ValueError or TypeError. A non-finite number
  that reaches a learner raises FloatingPointError instead, the type that
  ``net.adam_step`` raises, so that training fails the trial, not the run.
* A refusal leaves an agent's RNG state, buffer size and exploration rate,
  and an env's records and ``done``, as they were.

Each export has an entry in ``TABLE``, empty if it takes no number; a new
export fails ``test_every_callable_export_has_an_entry`` until it joins.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import croprl
from croprl import (AgentHyper, DqnAgent, ExperimentConfig, NitrogenEnv,
                    ObservationMask, SacAgent, baseline_policy,
                    evaluate_policy, florida_scenario, iowa_scenario)

#: what every numeric parameter refuses
ALWAYS = (math.nan, math.inf, -math.inf, True, "x", None)
#: and what each interval adds to it
NATURAL = (*ALWAYS, -1)                         # [0, inf)
POSITIVE = (*ALWAYS, 0, -1)                     # [1, inf) or (0, inf)
BOUNDED = (*NATURAL, 10**30)                    # [0, a bound]
POSITIVE_BOUNDED = (*POSITIVE, 10**30)          # [1, a bound] or (0, 1)
#: the length of an Iowa or Florida full observation
OBS_DIM = 30
OBS = np.full(OBS_DIM, 0.5)


def obs_with(value):
    """A valid observation holding ``value``, if it is a float, else
    ``value`` itself."""
    if not isinstance(value, float):
        return value
    obs = OBS.copy()
    obs[3] = value
    return obs


def env_mid_episode() -> NitrogenEnv:
    env = NitrogenEnv(iowa_scenario())
    env.reset(seed=0)
    env.step(0.0)
    env.step(40.0)
    return env


def agent_with_one_transition(cls):
    agent = cls(OBS_DIM, seed=0)
    agent.observe(OBS, agent.act(None, OBS)[1], 1.0, OBS, False)
    return agent


def state_of(subject):
    if isinstance(subject, NitrogenEnv):
        return list(subject.records), subject.done
    if isinstance(subject, (DqnAgent, SacAgent)):
        return (subject.rng.bit_generator.state, subject.buffer.size,
                getattr(subject, "epsilon", None))
    return None


def row(param, values, call, subject=lambda: None, learner=False):
    """``call(subject, value)`` passes ``value`` as ``param``; with
    ``learner`` a non-finite value reaches a learner."""
    return param, values, call, subject, learner


def preset_rows(preset):
    """Each numeric field that a preset's ``overrides`` set."""
    return [
        row("start_doy", POSITIVE_BOUNDED,
            lambda _, v: preset(start_doy=v)),
        row("planting_doy", POSITIVE_BOUNDED,
            lambda _, v: preset(planting_doy=v)),
        # None is an open harvest date
        row("latest_harvest_doy",
            tuple(v for v in POSITIVE_BOUNDED if v is not None),
            lambda _, v: preset(latest_harvest_doy=v)),
        row("initial_nitrate", NATURAL,
            lambda _, v: preset(initial_nitrate=(v, v, v))),
        row("initial_organic_n", NATURAL,
            lambda _, v: preset(initial_organic_n=v)),
        row("plant_density", POSITIVE,
            lambda _, v: preset(plant_density=v)),
        # inf is no threshold at all
        row("n_threshold", tuple(v for v in NATURAL if v != math.inf),
            lambda _, v: preset(n_threshold=v)),
        row("epsilon_decay", POSITIVE_BOUNDED,
            lambda _, v: preset(epsilon_decay=v)),
        row("weather_seed", NATURAL, lambda _, v: preset(weather_seed=v)),
        row("action_frequency", POSITIVE,
            lambda _, v: preset(action_frequency=v)),
    ]


def agent_rows(cls, action, bad_actions):
    """The constructor, ``act`` and ``observe`` of ``cls``, whose
    ``observe`` takes the action ``action`` and refuses ``bad_actions``."""
    def subject():
        return agent_with_one_transition(cls)
    return [
        row("obs_dim", POSITIVE, lambda _, v: cls(v)),
        row("seed", NATURAL, lambda _, v: cls(OBS_DIM, seed=v)),
        row("act.obs", ALWAYS, lambda a, v: a.act(None, obs_with(v)),
            subject, learner=True),
        row("observe.obs", ALWAYS,
            lambda a, v: a.observe(obs_with(v), action, 0.0, OBS, False),
            subject, learner=True),
        row("observe.action", bad_actions,
            lambda a, v: a.observe(OBS, v, 0.0, OBS, False), subject),
        row("observe.reward", ALWAYS,
            lambda a, v: a.observe(OBS, action, v, OBS, False),
            subject, learner=True),
        row("observe.next_obs", ALWAYS,
            lambda a, v: a.observe(OBS, action, 0.0, obs_with(v), False),
            subject, learner=True),
    ]


def evaluate(**kwargs):
    return evaluate_policy(baseline_policy(0.0), iowa_scenario(),
                           ObservationMask.full(), **kwargs)


#: export -> rows of (parameter, refused values, call, subject, learner)
TABLE = {
    "AgentHyper": [
        row("batch_size", POSITIVE_BOUNDED,
            lambda _, v: AgentHyper(batch_size=v)),
        row("episodes", BOUNDED, lambda _, v: AgentHyper(episodes=v)),
        row("warmup", BOUNDED, lambda _, v: AgentHyper(warmup=v)),
    ],
    "DqnAgent": [
        *agent_rows(DqnAgent, 1, (*ALWAYS, -1, 7, 1.5)),
        row("begin_episode.episode", NATURAL,
            lambda a, v: a.begin_episode(v, 0.99),
            lambda: agent_with_one_transition(DqnAgent)),
        row("begin_episode.decay", POSITIVE_BOUNDED,
            lambda a, v: a.begin_episode(3, v),
            lambda: agent_with_one_transition(DqnAgent)),
    ],
    "SacAgent": agent_rows(SacAgent, 100.0, (*BOUNDED, -1e-9, 200.5, 1e9)),
    "ExperimentConfig": [
        row("trials", POSITIVE, lambda _, v: ExperimentConfig(
            iowa_scenario(), trials=v, seeds=(1,))),
        row("seeds", NATURAL, lambda _, v: ExperimentConfig(
            iowa_scenario(), trials=1, seeds=(v,))),
        row("baseline_grid", BOUNDED, lambda _, v: ExperimentConfig(
            iowa_scenario(), baseline_grid=(v,))),
    ],
    "NitrogenEnv": [
        row("reset.seed", NATURAL, lambda env, v: env.reset(seed=v),
            env_mid_episode),
        row("step.dose", BOUNDED, lambda env, v: env.step(v),
            env_mid_episode),
    ],
    "baseline_policy": [row("amount", BOUNDED,
                            lambda _, v: baseline_policy(v))],
    "evaluate_policy": [
        row("n_episodes", POSITIVE_BOUNDED,
            lambda _, v: evaluate(n_episodes=v)),
        row("base_seed", NATURAL, lambda _, v: evaluate(base_seed=v)),
    ],
    "iowa_scenario": preset_rows(iowa_scenario),
    "florida_scenario": preset_rows(florida_scenario),
    # these take no number: a mask's one parameter is a kind name, and the
    # others take configs whose own entries are above
    "ObservationMask": [],
    "run_ablation": [],
    "run_training": [],
}

CASES = [pytest.param(call, subject, value,
                      FloatingPointError if learner
                      and isinstance(value, float) and not math.isfinite(value)
                      else (ValueError, TypeError),
                      id=f"{export}.{param}={value!r}")
         for export, rows in TABLE.items()
         for param, values, call, subject, learner in rows
         for value in values]


def test_every_callable_export_has_an_entry():
    """Error classes are exempt; every other export is a callable."""
    exports = {name for name in croprl.__all__
               if not (isinstance(obj := getattr(croprl, name), type)
                       and issubclass(obj, Exception))}
    assert exports == set(TABLE)
    assert all(callable(getattr(croprl, name)) for name in exports)


@pytest.mark.parametrize("call,subject,value,error", CASES)
def test_a_bad_number_is_refused_and_changes_nothing(call, subject, value,
                                                     error):
    target = subject()
    before = state_of(target)
    with pytest.raises(error):
        call(target, value)
    assert state_of(target) == before
