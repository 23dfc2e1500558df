"""Plain-text experiment configuration.

Config files are INI-style: flat ``key = value`` pairs inside ``[scenario]``,
``[agent]``, and ``[run]`` sections. Every key is optional; the scenario
location preset supplies defaults and the other keys override it.
``--set section.key=value`` command-line overrides use the same dotted names.

Each section is read from the fields of the dataclass it builds, named below,
and each value is parsed by its field's annotation: tuples are comma lists.
A key that no field claims is a ``ConfigError``.

Recognized keys (defaults in parentheses):

[scenario] (ScenarioConfig)
    location (iowa | florida)    preset supplying all omitted values
    weather_seed                 in [0, inf)
    weather_mode                 fixed-trace | stochastic
    action_frequency (1)         days between applications, in [1, inf)

[agent] (DqnHyper or SacHyper)
    kind (dqn | sac)
    episodes (1200), warmup      in [0, inf), [0, 100000]
    batch_size (64)              in [1, 100000]
    epsilon_decay                dqn only: in (0, 1)

[run] (ExperimentConfig)
    trials (5, or the number of seeds), seeds (1..trials),
    observation (full | partial),
    baseline_grid (0,40,...,320), out_dir (run_output)

A site's season dates, plant density, N threshold, soil and cultivar belong
to its preset (``env.iowa_scenario``, ``florida_scenario``), not to keys.
Reward weights, discount factors, learning rate, net widths and the crop
and soil coefficients no site sets are module constants, not keys:
``reward.W1``-``W4``, ``agents.DQN_GAMMA``, ``SAC_GAMMA``, ``LR`` and
``HIDDEN``, and ``simulator.T_BASE``, ``GRAIN_N_CONC``, ``Q10``, ... (the
block below its stage codes).
"""

from __future__ import annotations

import configparser
from typing import get_args, get_origin, get_type_hints

from .env import SCENARIO_PRESETS, ScenarioConfig
from .errors import ConfigError
from .harness import HYPERS, ExperimentConfig

# Iowa and Florida trained with different exploration decay rates
PRESET_EPSILON_DECAY = {"iowa": 0.992, "florida": 0.994}


# the annotation of every key, by section; ``location`` names the preset
_SCENARIO = {"location": get_type_hints(ScenarioConfig)["name"],
             **{name: tp for name, tp in get_type_hints(ScenarioConfig).items()
                if name in ("weather_mode", "weather_seed",
                            "action_frequency")}}
_AGENT = {kind: {"kind": get_type_hints(ExperimentConfig)["agent_kind"],
                 **get_type_hints(cls)}
          for kind, cls in HYPERS.items()}
# the other ExperimentConfig fields are built from their own sections
_RUN = {name: tp for name, tp in get_type_hints(ExperimentConfig).items()
        if name not in ("scenario", "agent_kind", "hyper")}


def load_config(path) -> dict[str, str]:
    """Read a UTF-8 INI file into a flat {"section.key": "value"} dict."""
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"config file not found: {path}")
        return {f"{section}.{key}": value for section in parser.sections()
                for key, value in parser.items(section)}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def apply_overrides(cfg: dict[str, str], overrides) -> dict[str, str]:
    """Merge ``section.key=value`` strings into a config dict."""
    out = dict(cfg)
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        if "." not in key:
            raise ConfigError(f"override key needs a section prefix: {key!r}")
        out[key] = value.strip()
    return out


def _parse(tp, raw: str):
    """``raw`` as a value of the annotation ``tp``."""
    word = raw.strip().lower()
    if get_origin(tp) is tuple:                  # tuple[int, ...] and floats
        item = get_args(tp)[0]
        return tuple(item(x) for x in word.replace(" ", "").split(",") if x)
    if not word and tp is not str:  # Path("") is the working directory
        raise ValueError("no value given")
    return word if tp is str else tp(raw)        # int, float, Path


def _read(cfg: dict[str, str], section: str, types: dict) -> dict:
    """The values ``cfg`` gives the keys of ``section``, parsed by
    ``types``; a key of the section that ``types`` lacks is an error."""
    values = {}
    for key, raw in cfg.items():
        head, _, name = key.partition(".")
        if head != section:
            continue
        if name not in types:
            raise ConfigError(f"unknown key {key!r}")
        try:
            values[name] = _parse(types[name], raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    return values


def build_scenario(cfg: dict[str, str]) -> ScenarioConfig:
    """The location preset with the [scenario] keys applied."""
    values = _read(cfg, "scenario", _SCENARIO)
    location = values.pop("location", "iowa")
    if location not in SCENARIO_PRESETS:
        raise ConfigError(f"unknown scenario location {location!r}")
    return SCENARIO_PRESETS[location](**values)


def build_agent_hyper(cfg: dict[str, str], location: str):
    """Return (kind, hyper) from the [agent] section."""
    kind = _parse(str, cfg.get("agent.kind", ExperimentConfig.agent_kind))
    if kind not in HYPERS:
        raise ConfigError(f"unknown agent kind {kind!r}")
    values = _read(cfg, "agent", _AGENT[kind])
    values.pop("kind", None)
    if kind == "dqn" and location in PRESET_EPSILON_DECAY:
        values.setdefault("epsilon_decay", PRESET_EPSILON_DECAY[location])
    return kind, HYPERS[kind](**values)


def build_run_settings(cfg: dict[str, str]) -> dict:
    """Parse the [run] section; ``ExperimentConfig`` validates the values."""
    given = _read(cfg, "run", _RUN)
    if "seeds" in given:
        given.setdefault("trials", len(given["seeds"]))
    run = {name: getattr(ExperimentConfig, name) for name in _RUN}
    run["seeds"] = tuple(range(1, given.get("trials", run["trials"]) + 1))
    return run | given


def build_experiment(cfg: dict[str, str]) -> ExperimentConfig:
    """The ExperimentConfig of a whole config dict, for every subcommand."""
    for key in cfg:
        if key.partition(".")[0] not in ("scenario", "agent", "run"):
            raise ConfigError(f"unknown key {key!r}")
    scenario = build_scenario(cfg)
    kind, hyper = build_agent_hyper(cfg, scenario.name)
    return ExperimentConfig(scenario=scenario, agent_kind=kind, hyper=hyper,
                            **build_run_settings(cfg))
