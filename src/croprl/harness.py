"""Experiment runner: multi-seed training, policy evaluation, ablations.

Every policy has the one shape ``run_episode`` defines; learners' ``act`` and
checkpoints' greedy policies (``agents.policy_from_dict``) produce it.
``run_training`` trains one agent per seed on a fresh environment, logs one
curve row per episode, and scores the greedy policy built from the checkpoint
it writes. ``score_episodes`` is the one scoring loop: it scores each trial's
greedy policy, each single-dose reference and each ``evaluate_policy``
episode, and checks the reward identity of every episode it runs.
``mean_summary`` is the one mean of summaries, of an evaluation's episodes
and of an ablation condition's trials, and ``ABLATIONS`` the one list of
ablation conditions. A run writes a report directory:

    trial_<seed>_curve.csv        per-episode metrics for one seed
    trial_<seed>_checkpoint.json  greedy policy: DQN Q-net or SAC actor
    curves.csv                    per-episode mean and variance across seeds
    tables.csv                    reference grid and final policies, one row
                                  per method (N, leaching, uptake, topwt,
                                  cumulative reward)
    episodes.jsonl                day-by-day log of the evaluated episodes
    manifest.json                 config snapshot/hash, trial status,
                                  convergence episodes, summaries

Everything written to the CSV outputs is deterministic for a fixed config and
seed list. Trials that produce non-finite numbers are marked failed and
excluded from aggregates but stay in the manifest.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .agents import (MAX_EPISODES, AgentHyper, DqnAgent, SacAgent,
                     policy_from_dict)
from .env import MAX_DOSE_KG, DayRecord, NitrogenEnv, ScenarioConfig
from .errors import ConfigError, check_fields, check_integer, check_real
from .reward import daily_reward
from .state import OBSERVATIONS, ObservationMask, normalize_observation, observe

CURVE_COLUMNS = ("episode", "epsilon", "cumulative_reward", "total_N",
                 "total_leach", "topwt")
TABLE_COLUMNS = ("method", "n_input", "leaching", "uptake", "topwt",
                 "cumulative_reward")
AGENTS = {"dqn": DqnAgent, "sac": SacAgent}
#: single doses the reference sweep applies at V5, kg/ha
BASELINE_GRID = tuple(float(x) for x in range(0, 321, 40))
#: what reading a damaged checkpoint raises
_UNREADABLE = (OSError, ValueError, KeyError, TypeError, AttributeError)


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: ScenarioConfig
    agent_kind: str = "dqn"
    hyper: AgentHyper = field(default_factory=AgentHyper)
    trials: int = 5
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    observation: str = "full"
    baseline_grid: tuple[float, ...] = BASELINE_GRID
    out_dir: Path = Path("run_output")

    def __post_init__(self):
        check_fields(self, trials="[1, inf)",
                     baseline_grid=f"[0, {MAX_DOSE_KG:g}]")
        if self.trials != len(self.seeds):
            raise ConfigError(
                f"trials={self.trials} but {len(self.seeds)} seeds given")
        # each trial writes trial_<seed>_* files and counts as one seed
        if min(self.seeds) < 0 or len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"run.seeds must be distinct and >= 0: "
                              f"{self.seeds}")
        if self.observation not in OBSERVATIONS:
            raise ConfigError("run.observation must be full or partial")
        # each dose writes one table row and manifest key; 0 and -0 are one
        if not self.baseline_grid or len(set(self.baseline_grid)) != len(
                self.baseline_grid):
            raise ConfigError(f"run.baseline_grid needs one or more doses, "
                              f"each distinct: {self.baseline_grid}")
        if self.agent_kind not in AGENTS:
            raise ConfigError(f"unknown agent kind {self.agent_kind!r}")

    @property
    def mask(self) -> ObservationMask:
        return ObservationMask(self.observation)


@dataclass
class EpisodeSummary:
    total_n: float
    total_leach: float
    total_uptake: float
    topwt: float
    cumulative_reward: float
    terminal_dap: float  # an int per episode; a mean may be fractional
    applications: list  # (dap, applied) for nonzero applications

    def as_dict(self) -> dict:
        return {**asdict(self),
                "applications": [list(a) for a in self.applications]}


@dataclass
class TrialResult:
    seed: int
    failed: bool = False
    error: str = ""
    curve: list = field(default_factory=list)  # CURVE_COLUMNS rows
    convergence_episode: int | None = None
    summary: EpisodeSummary | None = None
    records: list = field(default_factory=list)  # the greedy episode's days


@dataclass
class RunReport:
    trials: list[TrialResult] = field(default_factory=list)
    baselines: dict = field(default_factory=dict)  # amount -> EpisodeSummary
    elapsed_s: float = 0.0

    def successful(self) -> list[TrialResult]:
        return [t for t in self.trials if not t.failed]

    def mean_variance_curves(self) -> list[tuple]:
        """Rows (episode, mean_reward, var_reward, mean_N, mean_leach,
        mean_topwt) across successful trials."""
        good = self.successful()
        if not good:
            return []
        rows = []
        for e in range(min(len(t.curve) for t in good)):
            reward, *rest = ([t.curve[e][c] for t in good]
                             for c in (2, 3, 4, 5))
            rows.append((e, float(np.mean(reward)), float(np.var(reward)),
                         *(float(np.mean(c)) for c in rest)))
        return rows


# ---------------------------------------------------------------------------
# Episode execution
# ---------------------------------------------------------------------------

def run_episode(env: NitrogenEnv, policy, mask: ObservationMask,
                seed: int = 0, on_step=None
                ) -> tuple[EpisodeSummary, list[DayRecord]]:
    """Roll out one episode; every episode in the package runs through here.

    ``policy(state, normalized_obs)`` returns ``(dose_kg, action)``, the one
    policy shape of the package: learners' ``act`` and checkpoints' greedy
    policies have it too. The dose goes to ``env.step`` and the action is
    what a learner stores: the DQN action index, or SAC's raw continuous
    action; fixed policies return the dose twice. ``on_step(obs, action,
    reward, next_obs, done)`` runs after every step; training passes the
    agent's ``observe``. Returns the summary and the episode's day records.
    """
    state = env.reset(seed=seed)
    obs = normalize_observation(observe(state, mask), mask)
    total = 0.0
    while not env.done:
        dose, action = policy(state, obs)
        record = env.step(dose)
        state = record.state
        next_obs = normalize_observation(observe(state, mask), mask)
        if on_step is not None:
            on_step(obs, action, record.reward, next_obs, env.done)
        obs = next_obs
        total += record.reward
    summary = EpisodeSummary(
        total_n=state.cumsumfert, total_leach=state.cleach,
        total_uptake=state.wtnup, topwt=state.topwt,
        cumulative_reward=total, terminal_dap=state.dap,
        applications=[(r.dap, r.action_applied) for r in env.records
                      if r.action_applied > 0])
    return summary, env.records


def verify_reward_identity(records: list[DayRecord], threshold: float,
                           tol: float = 1e-9) -> float:
    """Recompute every day's reward from the logged actions and fluxes, with
    ``threshold`` the scenario's ``n_threshold``.

    Returns the maximum absolute discrepancy; raises if one exceeds ``tol``
    or is NaN. ``score_episodes`` checks every episode it scores with it.
    """
    worst = 0.0
    for i, rec in enumerate(records):
        st = rec.state
        again = daily_reward(rec.action_applied, st.tleachd, st.cumsumfert,
                             i == len(records) - 1, st.topwt, threshold)
        gap = abs(again.total - rec.reward)
        if not gap <= tol:
            raise AssertionError(
                f"reward identity violated by {gap} on day {rec.dap}")
        worst = max(worst, gap)
    return worst


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

def baseline_policy(amount: float):
    """Single-dose reference practice: ``amount`` kg/ha on every day the crop
    has five expanded leaves (V5) and no N has been applied yet, nothing on
    any other day.

    The rule reads only the day's state, so it needs no resetting between
    episodes. With an action frequency above one the dose lands on the first
    permitted day at or after V5; until then the env applies nothing.
    """
    amount = check_real(amount, "baseline amount", 0.0, MAX_DOSE_KG)

    def call(state, obs):
        fires = state.vstage >= 5.0 and state.cumsumfert == 0.0
        dose = amount if fires else 0.0
        return dose, dose
    return call


def load_checkpoint(path, config: ExperimentConfig | None = None) -> tuple:
    """Load a checkpoint's greedy policy; returns (policy, metadata dict).

    No learner is built, only the policy net. With ``config``, refuse a
    policy written for another scenario, action frequency or observation
    kind, or one that reads another number of observation values; a file
    without one of those keys skips that check.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
        obs_dim, policy = policy_from_dict(data["agent"])
    except _UNREADABLE as exc:
        why = exc if isinstance(exc, ConfigError) else repr(exc)
        raise ConfigError(f"cannot load checkpoint {path}: {why}") from exc
    meta = {k: v for k, v in data.items() if k != "agent"}
    if config is not None:
        for key, wanted in (("scenario", config.scenario.name),
                            ("action_frequency",
                             config.scenario.action_frequency),
                            ("observation", config.observation)):
            if meta.get(key, wanted) != wanted:
                raise ConfigError(f"checkpoint expects {key} {meta[key]}, "
                                  f"config requests {wanted}")
        size = config.mask.size(config.scenario.soil.n_layers)
        if obs_dim != size:
            raise ConfigError(f"checkpoint policy reads {obs_dim} "
                              f"observation values, config gives {size}")
    return policy, meta


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def train_trial(config: ExperimentConfig, seed: int
                ) -> tuple[TrialResult, object]:
    """Train one seed; returns the trial record and the trained agent."""
    mask, decay = config.mask, config.scenario.epsilon_decay
    env = NitrogenEnv(config.scenario)
    agent = AGENTS[config.agent_kind](mask.size(env.n_layers), config.hyper,
                                      seed=seed)
    trial = TrialResult(seed=seed)

    # the first overflow or NaN fails the trial, whatever the warning filter
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for ep in range(config.hyper.episodes):
                epsilon = (agent.begin_episode(ep, decay)
                           if config.agent_kind == "dqn" else 0.0)
                summary, _ = run_episode(env, agent.act, mask, seed=ep,
                                         on_step=agent.observe)
                trial.curve.append((ep, epsilon, summary.cumulative_reward,
                                    summary.total_n, summary.total_leach,
                                    summary.topwt))
    except FloatingPointError as exc:
        trial.failed = True
        trial.error = str(exc)
    else:
        trial.convergence_episode = convergence_episode(
            [row[2] for row in trial.curve])
    return trial, agent


def convergence_episode(rewards, window: int = 50, rel_tol: float = 0.01):
    """First episode whose trailing-window mean is within 1% of the final
    trailing mean. This is a reporting metric of this harness, not a quantity
    defined by the training algorithms."""
    if len(rewards) < window:
        return None
    series = np.asarray(rewards, dtype=float)
    trail = np.convolve(series, np.ones(window) / window, mode="valid")
    final = trail[-1]
    denom = max(abs(final), 1e-9)
    for i, value in enumerate(trail):
        if abs(value - final) <= rel_tol * denom:
            return i + window - 1


def sweep_baselines(scenario: ScenarioConfig, grid, mask: ObservationMask
                    ) -> dict[float, EpisodeSummary]:
    return {float(amount): next(score_episodes(
        baseline_policy(amount), scenario, mask))[0] for amount in grid}


def run_training(config: ExperimentConfig) -> RunReport:
    """Train all seeds, sweep baselines, and write the report directory."""
    t0 = time.time()
    report = RunReport()
    out = output_dir(config.out_dir)

    for seed in config.seeds:
        trial, agent = train_trial(config, seed)
        report.trials.append(trial)
        if not trial.failed:
            # the greedy policy scored is the one the checkpoint holds
            entry = agent.to_dict()
            trial.summary, trial.records = next(score_episodes(
                policy_from_dict(entry)[1], config.scenario, config.mask))
            _write_checkpoint(out / f"trial_{seed}_checkpoint.json", config,
                              entry, seed)
        _write_csv(out / f"trial_{seed}_curve.csv", CURVE_COLUMNS, trial.curve)

    report.baselines = sweep_baselines(config.scenario, config.baseline_grid,
                                       config.mask)
    report.elapsed_s = time.time() - t0
    emit_report(report, out, config)
    return report


def _write_checkpoint(path, config: ExperimentConfig, entry: dict,
                      seed: int):
    """Write ``entry``, an agent's ``to_dict``, with the run's keys."""
    data = {"agent": entry, "scenario": config.scenario.name,
            "action_frequency": config.scenario.action_frequency,
            "observation": config.observation, "seed": seed,
            "episodes": config.hyper.episodes,
            "config_digest": config_digest(config)}
    Path(path).write_text(json.dumps(data))


# ---------------------------------------------------------------------------
# Evaluation entry point
# ---------------------------------------------------------------------------

def score_episodes(policy, scenario: ScenarioConfig, mask: ObservationMask,
                   n_episodes: int = 1, base_seed: int = 0):
    """The one scoring loop: ``n_episodes`` episodes of ``policy`` on one env,
    seeds ``base_seed`` onward, each checked by ``verify_reward_identity``;
    yields each one's (summary, day records)."""
    env = NitrogenEnv(scenario)
    for seed in range(base_seed, base_seed + n_episodes):
        summary, records = run_episode(env, policy, mask, seed=seed)
        verify_reward_identity(records, scenario.n_threshold)
        yield summary, records


def evaluate_policy(policy, scenario: ScenarioConfig, mask: ObservationMask,
                    n_episodes: int = 1, base_seed: int = 0
                    ) -> tuple[EpisodeSummary, list[EpisodeSummary]]:
    """Greedy evaluation by ``score_episodes``; with fixed-trace weather one
    episode suffices.

    ``policy`` is a function of the day's state and observation, as
    ``run_episode`` takes it; every episode calls the same one.

    ``n_episodes`` must lie in [1, MAX_EPISODES], ``base_seed`` in [0, inf).

    Returns (``mean_summary`` of the episodes, per-episode summaries).
    """
    check_integer(n_episodes, "n_episodes", 1, MAX_EPISODES)
    check_integer(base_seed, "base_seed")
    per_episode = [summary for summary, _ in score_episodes(
        policy, scenario, mask, n_episodes, base_seed)]
    return mean_summary(per_episode), per_episode


def mean_summary(summaries: list[EpisodeSummary]) -> EpisodeSummary:
    """Every field is the mean over ``summaries``; ``applications`` lists
    each DAP on which any of them applied N, with the amount summed and
    divided by ``len(summaries)``."""
    applied: dict[int, float] = {}
    for s in summaries:
        for dap, amount in s.applications:
            applied[dap] = applied.get(dap, 0.0) + amount
    return EpisodeSummary(
        **{f.name: float(np.mean([getattr(s, f.name) for s in summaries]))
           for f in fields(EpisodeSummary) if f.name != "applications"},
        applications=[(dap, applied[dap] / len(summaries))
                      for dap in sorted(applied)])


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------

#: axis -> {reference, then variant: condition directory -> config change}
ABLATIONS = {
    "observation": {"full": lambda c: replace(c, observation="full"),
                    "partial": lambda c: replace(c, observation="partial")},
    "frequency": {
        "every_day": lambda c: replace(c, scenario=replace(
            c.scenario, action_frequency=1)),
        "every_10_days": lambda c: replace(c, scenario=replace(
            c.scenario, action_frequency=10))},
}


def run_ablation(config: ExperimentConfig, axis: str) -> dict:
    """Train the paired conditions of ``ABLATIONS[axis]`` with identical
    seeds and report % deltas.

    Each condition writes its run to ``out_dir/<condition>``. Its final
    policies are scored by the ``mean_summary`` of its successful trials.
    Deltas are (variant - reference) / |reference| * 100 for that mean's
    cumulative reward and top weight. A condition with no successful trial
    raises ``RuntimeError`` before any ablation file is written.
    """
    if axis not in ABLATIONS:
        raise ConfigError(f"unknown ablation axis {axis!r}")
    out = Path(config.out_dir)
    # every directory is made before training, so that a file in the way of
    # any is refused before any work
    conditions = {name: replace(change(config), out_dir=output_dir(out / name))
                  for name, change in ABLATIONS[axis].items()}
    good = {name: [t.summary for t in run_training(c).successful()]
            for name, c in conditions.items()}
    for name, summaries in good.items():
        if not summaries:
            raise RuntimeError(f"every trial of condition {name} failed; "
                               f"see its manifest")
    means = {name: mean_summary(summaries) for name, summaries in good.items()}

    ref = next(iter(means.values()))
    rows = [(axis, name, s.cumulative_reward, s.topwt,
             _pct_delta(s.cumulative_reward, ref.cumulative_reward),
             _pct_delta(s.topwt, ref.topwt)) for name, s in means.items()]
    result = {
        "axis": axis,
        "conditions": {name: {"reward": s.cumulative_reward, "topwt": s.topwt}
                       for name, s in means.items()},
        "reward_delta_pct": rows[-1][4],  # the variant's row
        "topwt_delta_pct": rows[-1][5],
        "seeds": list(config.seeds),
    }
    _write_csv(out / "ablation.csv",
               ("axis", "condition", "reward", "topwt", "reward_delta_pct",
                "topwt_delta_pct"), rows)
    with open(out / "ablation.json", "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    return result


def _pct_delta(value: float, reference: float) -> float:
    if reference == 0.0:
        return 0.0 if value == 0.0 else float("inf")
    return (value - reference) / abs(reference) * 100.0


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def config_digest(config: ExperimentConfig) -> str:
    blob = repr((config.scenario, config.agent_kind, config.hyper,
                 config.seeds, config.observation,
                 config.baseline_grid)).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _fmt(value) -> str:
    return repr(float(value)) if isinstance(value, (float, np.floating)) \
        else str(value)


def _write_csv(path, columns, rows):
    lines = [",".join(columns)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def output_dir(path) -> Path:
    """Make the directory ``path``; a file in its way is a ConfigError."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"output path is not a directory: {exc}") from exc
    return Path(path)


def _dose_key(amount: float) -> str:
    """A dose as written in labels and keys: exact, with no trailing .0."""
    # adding 0.0 turns -0.0 into 0.0
    return repr(float(amount) + 0.0).removesuffix(".0")


def emit_report(report: RunReport, out: Path,
                config: ExperimentConfig) -> None:
    """Write curves.csv, tables.csv, episodes.jsonl, and manifest.json."""
    _write_csv(out / "curves.csv",
               ("episode", "mean_reward", "var_reward", "mean_total_N",
                "mean_total_leach", "mean_topwt"),
               report.mean_variance_curves())

    methods = [(f"baseline_{_dose_key(a)}", s)
               for a, s in sorted(report.baselines.items())]
    with open(out / "episodes.jsonl", "w") as fh:
        for trial in report.successful():
            method = f"{config.agent_kind}_seed{trial.seed}"
            methods.append((method, trial.summary))
            for rec in trial.records:
                fh.write(json.dumps({"method": method, **rec.as_dict()},
                                    sort_keys=True) + "\n")
    _write_csv(out / "tables.csv", TABLE_COLUMNS, [
        (method, s.total_n, s.total_leach, s.total_uptake, s.topwt,
         s.cumulative_reward) for method, s in methods])

    manifest = {
        "config_digest": config_digest(config),
        "agent_kind": config.agent_kind,
        "scenario": config.scenario.name,
        "seeds": [t.seed for t in report.trials],
        "trials": [{"seed": t.seed, "failed": t.failed, "error": t.error,
                    "convergence_episode": t.convergence_episode,
                    "summary": t.summary.as_dict() if t.summary else None}
                   for t in report.trials],
        "baselines": {_dose_key(a): s.as_dict()
                      for a, s in sorted(report.baselines.items())},
        "elapsed_s": report.elapsed_s,
        "observation": config.observation,
        "episodes": config.hyper.episodes,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
