"""Experiment runner: multi-seed training, policy evaluation, ablations.

``run_training`` trains one agent per seed on a fresh environment, logs one
curve row per episode, checkpoints the final policy, sweeps the single-dose
reference grid, and writes a report directory:

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
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .agents import DqnAgent, DqnHyper, SacAgent, SacHyper, policy_from_dict
from .env import MAX_DOSE_KG, DayRecord, NitrogenEnv, ScenarioConfig
from .errors import ConfigError
from .reward import RewardConfig, daily_reward
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
    hyper: DqnHyper | SacHyper = field(default_factory=DqnHyper)
    trials: int = 5
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    observation: str = "full"
    baseline_grid: tuple[float, ...] = BASELINE_GRID
    out_dir: Path = Path("run_output")

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError(f"run.trials must be >= 1: {self.trials}")
        if self.trials != len(self.seeds):
            raise ConfigError(
                f"trials={self.trials} but {len(self.seeds)} seeds given")
        # each trial writes trial_<seed>_* files and counts as one seed
        if min(self.seeds) < 0 or len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"run.seeds must be distinct and >= 0: "
                              f"{self.seeds}")
        if self.observation not in OBSERVATIONS:
            raise ConfigError("run.observation must be full or partial")
        if not all(0.0 <= b <= MAX_DOSE_KG for b in self.baseline_grid):
            raise ConfigError(f"baseline_grid amounts must lie in "
                              f"[0, {MAX_DOSE_KG:g}] kg/ha")
        # each dose writes one table row and manifest key; 0 and -0 are one
        if len(set(self.baseline_grid)) != len(self.baseline_grid):
            raise ConfigError(f"run.baseline_grid doses must be distinct: "
                              f"{self.baseline_grid}")
        if self.agent_kind not in AGENTS:
            raise ConfigError(f"unknown agent kind {self.agent_kind!r}")

    @property
    def mask(self) -> ObservationMask:
        return ObservationMask.of_kind(self.observation)


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
        n_eps = min(len(t.curve) for t in good)
        rows = []
        for e in range(n_eps):
            rewards = [t.curve[e][2] for t in good]
            rows.append((
                e,
                float(np.mean(rewards)),
                float(np.var(rewards)),
                float(np.mean([t.curve[e][3] for t in good])),
                float(np.mean([t.curve[e][4] for t in good])),
                float(np.mean([t.curve[e][5] for t in good])),
            ))
        return rows


# ---------------------------------------------------------------------------
# Episode execution
# ---------------------------------------------------------------------------

def run_episode(env: NitrogenEnv, policy, mask: ObservationMask,
                seed: int = 0, on_step=None
                ) -> tuple[EpisodeSummary, list[DayRecord]]:
    """Roll out one episode; every episode in the package runs through here.

    ``policy(state, normalized_obs)`` returns ``(dose_kg, action)``: the
    dose goes to ``env.step`` and the action is what a learner stores (the
    DQN action index, or SAC's raw continuous action; fixed policies return
    the dose twice). ``on_step(obs, action, reward, next_obs, done)`` runs
    after every step; training passes the agent's ``observe``. Returns the
    summary and the episode's day records.
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


def verify_reward_identity(records: list[DayRecord], reward_cfg: RewardConfig,
                           tol: float = 1e-9) -> float:
    """Recompute every day's reward from the logged actions and fluxes.

    Returns the maximum absolute discrepancy; raises if one exceeds ``tol``
    or is NaN. Used by reports as an internal consistency check.
    """
    worst = 0.0
    for i, rec in enumerate(records):
        st = rec.state
        again = daily_reward(
            a_t=rec.action_applied, tleachd=st.tleachd,
            cumsumfert_incl_today=st.cumsumfert,
            is_harvest=i == len(records) - 1,
            y=st.topwt, cfg=reward_cfg)
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
    amount = float(amount)
    if not 0.0 <= amount <= MAX_DOSE_KG:
        raise ConfigError(f"baseline amount must lie in [0, {MAX_DOSE_KG:g}] "
                          f"kg/ha: {amount}")

    def call(state, obs):
        fires = state.vstage >= 5.0 and state.cumsumfert == 0.0
        dose = amount if fires else 0.0
        return dose, dose
    return call


def agent_policy(choose, dose):
    """A policy that takes ``choose(obs)`` as its action and applies
    ``dose(action)`` kg/ha: an agent's ``act`` (exploring) or
    ``greedy_action`` with its ``dose``, or a loaded checkpoint's pair."""
    def call(state, obs):
        action = choose(obs)
        return dose(action), action
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
        obs_dim, choose, dose = policy_from_dict(data["agent"])
    except _UNREADABLE as exc:
        raise ConfigError(f"cannot load checkpoint {path}: {exc!r}") from exc
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
    return agent_policy(choose, dose), meta


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def train_trial(config: ExperimentConfig, seed: int
                ) -> tuple[TrialResult, object, list[DayRecord]]:
    """Train one seed; returns the trial record, the trained agent and the
    day records of its final greedy episode (empty if the trial failed)."""
    mask = config.mask
    env = NitrogenEnv(config.scenario)
    agent = AGENTS[config.agent_kind](mask.size(env.n_layers), config.hyper,
                                      seed=seed)
    trial = TrialResult(seed=seed)
    explore = agent_policy(agent.act, agent.dose)

    # the first overflow or NaN fails the trial, whatever the warning filter
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for ep in range(config.hyper.episodes):
                epsilon = (agent.begin_episode(ep)
                           if config.agent_kind == "dqn" else 0.0)
                summary, _ = run_episode(env, explore, mask, seed=ep,
                                         on_step=agent.observe)
                total = summary.cumulative_reward
                if not np.isfinite(total):
                    raise FloatingPointError(
                        f"non-finite return at episode {ep}")
                trial.curve.append((ep, epsilon, total, summary.total_n,
                                    summary.total_leach, summary.topwt))
    except FloatingPointError as exc:
        trial.failed = True
        trial.error = str(exc)
        return trial, agent, []

    trial.convergence_episode = convergence_episode(
        [row[2] for row in trial.curve])
    trial.summary, records = run_episode(
        env, agent_policy(agent.greedy_action, agent.dose), mask, seed=0)
    return trial, agent, records


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
    return len(rewards) - 1


def sweep_baselines(scenario: ScenarioConfig, grid, mask: ObservationMask
                    ) -> dict[float, EpisodeSummary]:
    env = NitrogenEnv(scenario)
    out = {}
    for amount in grid:
        summary, _ = run_episode(env, baseline_policy(amount), mask, seed=0)
        out[float(amount)] = summary
    return out


def run_training(config: ExperimentConfig) -> RunReport:
    """Train all seeds, sweep baselines, and write the report directory."""
    t0 = time.time()
    report = RunReport()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    episodes_log = []
    for seed in config.seeds:
        trial, agent, records = train_trial(config, seed)
        report.trials.append(trial)
        _write_csv(out / f"trial_{seed}_curve.csv", CURVE_COLUMNS, trial.curve)
        if not trial.failed:
            _write_checkpoint(out / f"trial_{seed}_checkpoint.json", config,
                              agent, seed)
            verify_reward_identity(records, config.scenario.reward)
            episodes_log.append({"method": f"{config.agent_kind}_seed{seed}",
                                 "records": records})

    report.baselines = sweep_baselines(config.scenario, config.baseline_grid,
                                       config.mask)
    report.elapsed_s = time.time() - t0
    emit_report(report, out, episodes_log, config)
    return report


def _write_checkpoint(path, config: ExperimentConfig, agent, seed: int):
    data = {"agent": agent.to_dict(), "scenario": config.scenario.name,
            "action_frequency": config.scenario.action_frequency,
            "observation": config.observation, "seed": seed,
            "episodes": config.hyper.episodes,
            "config_digest": config_digest(config)}
    Path(path).write_text(json.dumps(data))


# ---------------------------------------------------------------------------
# Evaluation entry point
# ---------------------------------------------------------------------------

def evaluate_policy(policy, scenario: ScenarioConfig, mask: ObservationMask,
                    n_episodes: int = 1, base_seed: int = 0
                    ) -> tuple[EpisodeSummary, list[EpisodeSummary]]:
    """Greedy evaluation; with fixed-trace weather one episode suffices.

    ``policy`` is a function of the day's state and observation, as
    ``run_episode`` takes it; every episode calls the same one.

    Returns (mean summary, per-episode summaries). Every field of the mean
    is the mean over episodes; its ``applications`` list each DAP on which
    any episode applied N, with the amount summed over episodes and divided
    by ``n_episodes``.
    """
    if n_episodes < 1:
        raise ConfigError(f"need at least one episode, got {n_episodes}")
    env = NitrogenEnv(scenario)
    per_episode = []
    for k in range(n_episodes):
        summary, records = run_episode(env, policy, mask, seed=base_seed + k)
        verify_reward_identity(records, scenario.reward)
        per_episode.append(summary)
    applied: dict[int, float] = {}
    for s in per_episode:
        for dap, amount in s.applications:
            applied[dap] = applied.get(dap, 0.0) + amount
    mean = EpisodeSummary(
        **{f.name: float(np.mean([getattr(s, f.name) for s in per_episode]))
           for f in fields(EpisodeSummary) if f.name != "applications"},
        applications=[(dap, applied[dap] / n_episodes)
                      for dap in sorted(applied)])
    return mean, per_episode


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------

def run_ablation(config: ExperimentConfig, axis: str) -> dict:
    """Train paired conditions with identical seeds and report % deltas.

    axis="observation": full vs partial state vector.
    axis="frequency":   daily actions vs one permitted day in ten.
    Deltas are (variant - reference) / reference * 100, averaged over seeds,
    for final-policy cumulative reward and top weight. A condition with no
    successful trial raises ``RuntimeError`` before any ablation file is
    written.
    """
    from dataclasses import replace as dc_replace

    if axis == "observation":
        ref = dc_replace(config, observation="full",
                         out_dir=Path(config.out_dir) / "full")
        var = dc_replace(config, observation="partial",
                         out_dir=Path(config.out_dir) / "partial")
    elif axis == "frequency":
        ref = dc_replace(config,
                         scenario=dc_replace(config.scenario, action_frequency=1),
                         out_dir=Path(config.out_dir) / "every_day")
        var = dc_replace(config,
                         scenario=dc_replace(config.scenario, action_frequency=10),
                         out_dir=Path(config.out_dir) / "every_10_days")
    else:
        raise ConfigError(f"unknown ablation axis {axis!r}")
    # each condition is named by its directory
    labels = (ref.out_dir.name, var.out_dir.name)

    ref_report = run_training(ref)
    var_report = run_training(var)

    def finals(report, label):
        good = [t.summary for t in report.successful() if t.summary]
        if not good:
            raise RuntimeError(f"every trial of condition {label} failed; "
                               f"see its manifest")
        return (float(np.mean([s.cumulative_reward for s in good])),
                float(np.mean([s.topwt for s in good])))

    ref_reward, ref_topwt = finals(ref_report, labels[0])
    var_reward, var_topwt = finals(var_report, labels[1])
    result = {
        "axis": axis,
        "conditions": {labels[0]: {"reward": ref_reward, "topwt": ref_topwt},
                       labels[1]: {"reward": var_reward, "topwt": var_topwt}},
        "reward_delta_pct": _pct_delta(var_reward, ref_reward),
        "topwt_delta_pct": _pct_delta(var_topwt, ref_topwt),
        "seeds": list(config.seeds),
    }
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "ablation.csv",
               ("axis", "condition", "reward", "topwt", "reward_delta_pct",
                "topwt_delta_pct"),
               [(axis, labels[0], ref_reward, ref_topwt, 0.0, 0.0),
                (axis, labels[1], var_reward, var_topwt,
                 result["reward_delta_pct"], result["topwt_delta_pct"])])
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


def _dose_key(amount: float) -> str:
    """A dose as written in labels and keys: exact, with no trailing .0."""
    # adding 0.0 turns -0.0 into 0.0
    return repr(float(amount) + 0.0).removesuffix(".0")


def emit_report(report: RunReport, out_dir, episodes_log: list,
                config: ExperimentConfig) -> None:
    """Write curves.csv, tables.csv, episodes.jsonl, and manifest.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "curves.csv",
               ("episode", "mean_reward", "var_reward", "mean_total_N",
                "mean_total_leach", "mean_topwt"),
               report.mean_variance_curves())

    rows = []
    for amount in sorted(report.baselines):
        s = report.baselines[amount]
        rows.append((f"baseline_{_dose_key(amount)}", s.total_n, s.total_leach,
                     s.total_uptake, s.topwt, s.cumulative_reward))
    for trial in report.successful():
        if trial.summary is None:
            continue
        s = trial.summary
        rows.append((f"{config.agent_kind}_seed{trial.seed}", s.total_n,
                     s.total_leach, s.total_uptake, s.topwt,
                     s.cumulative_reward))
    _write_csv(out / "tables.csv", TABLE_COLUMNS, rows)

    with open(out / "episodes.jsonl", "w") as fh:
        for entry in episodes_log:
            for rec in entry["records"]:
                fh.write(json.dumps({"method": entry["method"],
                                     **rec.as_dict()}, sort_keys=True) + "\n")

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
