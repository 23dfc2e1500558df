"""Plain-text experiment configuration.

Config files are INI-style: flat ``key = value`` pairs inside ``[scenario]``,
``[reward]``, ``[agent]``, and ``[run]`` sections. Every key is optional; the
scenario location preset supplies defaults and the other keys override it.
``--set section.key=value`` command-line overrides use the same dotted names.

Recognized keys (defaults in parentheses):

[scenario]
    location (iowa | florida)        preset supplying all omitted values
    start_doy, planting_doy          day-of-year integers in 1..366
    latest_harvest_doy               integer in 1..366 or ``none``
    soil_depth_cm, plant_density, irrigation (0 only)
    weather_mode (fixed-trace | stochastic), weather_seed
    action_frequency (1)             days between permitted applications

[reward]
    w1 w2 w3 (0.1), w4 (1), threshold (preset), clamp_overage (true)

[agent]
    kind (dqn | sac), episodes (1200), gamma, batch_size, lr,
    hidden (e.g. ``128,128``), buffer_capacity, warmup
    dqn: epsilon_decay, target_update_interval, grad_steps_per_day
    sac: tau, alpha (number or ``auto``), target_entropy, reward_scale,
         action_low, action_high

[run]
    trials (5), seeds (1..trials), observation (full | partial),
    baseline_grid (0,40,...,320), out_dir (run_output)
"""

from __future__ import annotations

import configparser
from dataclasses import replace
from pathlib import Path

from .agents import DqnHyper, SacHyper
from .env import SCENARIO_PRESETS, ScenarioConfig
from .errors import ConfigError
from .harness import BASELINE_GRID

# Iowa and Florida trained with different exploration decay rates
PRESET_EPSILON_DECAY = {"iowa": 0.992, "florida": 0.994}


def load_config(path) -> dict[str, str]:
    """Read an INI file into a flat {"section.key": "value"} dict."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    flat: dict[str, str] = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            flat[f"{section}.{key}"] = value
    return flat


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


def _get(cfg, key, cast, default=None):
    if key not in cfg:
        return default
    raw = cfg[key].strip()
    if cast is bool:
        low = raw.lower()
        if low in ("true", "yes", "on", "1"):
            return True
        if low in ("false", "no", "off", "0"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _int_tuple(raw: str) -> tuple[int, ...]:
    return tuple(int(x) for x in raw.replace(" ", "").split(",") if x)


def _float_tuple(raw: str) -> tuple[float, ...]:
    return tuple(float(x) for x in raw.replace(" ", "").split(",") if x)


def build_scenario(cfg: dict[str, str]) -> ScenarioConfig:
    location = cfg.get("scenario.location", "iowa").strip().lower()
    if location not in SCENARIO_PRESETS:
        raise ConfigError(f"unknown scenario location {location!r}")
    scen = SCENARIO_PRESETS[location]()

    kwargs = {}
    for key, attr, cast in (
            ("scenario.start_doy", "start_doy", int),
            ("scenario.planting_doy", "planting_doy", int),
            ("scenario.plant_density", "plant_density", float),
            ("scenario.irrigation", "irrigation", float),
            ("scenario.weather_mode", "weather_mode", str),
            ("scenario.weather_seed", "weather_seed", int),
            ("scenario.action_frequency", "action_frequency", int)):
        value = _get(cfg, key, cast)
        if value is not None:
            kwargs[attr] = value
    if "scenario.latest_harvest_doy" in cfg:
        kwargs["latest_harvest_doy"] = _get(
            cfg, "scenario.latest_harvest_doy",
            lambda raw: None if raw.lower() == "none" else int(raw))
    depth = _get(cfg, "scenario.soil_depth_cm", float)
    if depth is not None:
        kwargs["soil"] = replace(scen.soil, depth_cm=depth)

    reward_kwargs = {}
    for key, attr, cast in (("reward.w1", "w1", float), ("reward.w2", "w2", float),
                            ("reward.w3", "w3", float), ("reward.w4", "w4", float),
                            ("reward.threshold", "threshold", float),
                            ("reward.clamp_overage", "clamp_overage", bool)):
        value = _get(cfg, key, cast)
        if value is not None:
            reward_kwargs[attr] = value
    if reward_kwargs:
        kwargs["reward"] = replace(scen.reward, **reward_kwargs)

    return replace(scen, **kwargs) if kwargs else scen


def build_agent_hyper(cfg: dict[str, str], location: str):
    """Return (kind, hyper) from the [agent] section."""
    kind = cfg.get("agent.kind", "dqn").strip().lower()
    if kind not in ("dqn", "sac"):
        raise ConfigError(f"unknown agent kind {kind!r}")

    common = {}
    for key, attr, cast in (
            ("agent.gamma", "gamma", float),
            ("agent.batch_size", "batch_size", int),
            ("agent.lr", "lr", float),
            ("agent.episodes", "episodes", int),
            ("agent.buffer_capacity", "buffer_capacity", int),
            ("agent.warmup", "warmup", int)):
        value = _get(cfg, key, cast)
        if value is not None:
            common[attr] = value
    if "agent.hidden" in cfg:
        common["hidden"] = _get(cfg, "agent.hidden", _int_tuple)

    if kind == "dqn":
        kwargs = dict(common)
        kwargs["epsilon_decay"] = _get(cfg, "agent.epsilon_decay", float,
                                       PRESET_EPSILON_DECAY.get(location, 0.994))
        for key, attr in (("agent.target_update_interval", "target_update_interval"),
                          ("agent.grad_steps_per_day", "grad_steps_per_day")):
            value = _get(cfg, key, int)
            if value is not None:
                kwargs[attr] = value
        return kind, DqnHyper(**kwargs)

    kwargs = dict(common)
    for key, attr, cast in (("agent.tau", "tau", float),
                            ("agent.target_entropy", "target_entropy", float),
                            ("agent.reward_scale", "reward_scale", float),
                            ("agent.action_low", "action_low", float),
                            ("agent.action_high", "action_high", float)):
        value = _get(cfg, key, cast)
        if value is not None:
            kwargs[attr] = value
    if "agent.alpha" in cfg:
        kwargs["alpha"] = _get(
            cfg, "agent.alpha",
            lambda raw: None if raw.lower() == "auto" else float(raw))
    return kind, SacHyper(**kwargs)


def build_run_settings(cfg: dict[str, str]) -> dict:
    """Parse the [run] section; ``ExperimentConfig`` validates the values."""
    trials = _get(cfg, "run.trials", int, 5)
    return {"trials": trials,
            "seeds": _get(cfg, "run.seeds", _int_tuple,
                          tuple(range(1, trials + 1))),
            "observation": cfg.get("run.observation", "full").strip().lower(),
            "baseline_grid": _get(cfg, "run.baseline_grid", _float_tuple,
                                  BASELINE_GRID),
            "out_dir": Path(cfg.get("run.out_dir", "run_output"))}
