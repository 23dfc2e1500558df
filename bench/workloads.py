"""The benchmark's workloads: configs made from a seed, one timed repetition
each, and the correctness checks run after it.

A workload drives the entry points users run. The train workloads call
``harness.run_training`` (what ``croprl train`` runs) on a config built with
``croprl.config.build_*`` from a flat ``section.key`` dict, exactly as the
CLI builds it. The sweep calls ``harness.evaluate_policy`` (what ``croprl
evaluate --baseline`` runs) over the dose grid and several stochastic weather
years on both presets. The program receives only these configs and seeds.

Episode boundaries come from a clock on ``NitrogenEnv.reset``: one timestamp
and the previous episode's step count per reset. It is the only hook in an
untraced repetition.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import resource
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from croprl import config as cfgmod
from croprl import harness
from croprl.agents import DqnAgent, SacAgent
from croprl.env import NitrogenEnv
from croprl.state import ObservationMask

DOSE_GRID = tuple(float(x) for x in range(0, 321, 40))


@dataclass(frozen=True)
class TrainSpec:
    location: str
    agent: str
    episodes: int


@dataclass(frozen=True)
class SweepSpec:
    years: int               # stochastic weather years per dose and preset
    locations: tuple[str, ...] = ("iowa", "florida")


WORKLOADS = {
    "dqn-iowa-train": TrainSpec("iowa", "dqn", episodes=20),
    "sac-florida-train": TrainSpec("florida", "sac", episodes=16),
    "sweep-stochastic": SweepSpec(years=4),
}

# tiny mode: a few episodes, short warmup and a two-dose grid; for smoke tests
TINY_EPISODES = 3
TINY_WARMUP = 64
TINY_GRID = (0.0, 160.0)


def derived_seeds(seed: int) -> dict[str, int]:
    """Weather, trial and evaluation seeds, all determined by ``seed``."""
    rng = random.Random(seed)
    return {"weather": rng.randrange(1, 1_000_000),
            "trial": rng.randrange(1, 1_000_000),
            "episodes": rng.randrange(1, 1_000_000)}


def train_flat_config(spec: TrainSpec, seed: int, out_dir: Path,
                      tiny: bool) -> dict[str, str]:
    seeds = derived_seeds(seed)
    flat = {"scenario.location": spec.location,
            "scenario.weather_mode": "fixed-trace",
            "scenario.weather_seed": str(seeds["weather"]),
            "agent.kind": spec.agent,
            "agent.episodes": str(TINY_EPISODES if tiny else spec.episodes),
            "run.trials": "1",
            "run.seeds": str(seeds["trial"]),
            "run.observation": "full",
            "run.out_dir": str(out_dir)}
    if tiny:
        flat["agent.warmup"] = str(TINY_WARMUP)
        flat["run.baseline_grid"] = ",".join(str(g) for g in TINY_GRID)
    return flat


def build_experiment(flat: dict[str, str]) -> harness.ExperimentConfig:
    """The config ``croprl train`` would build from the same keys."""
    scenario = cfgmod.build_scenario(flat)
    kind, hyper = cfgmod.build_agent_hyper(flat, scenario.name)
    run = cfgmod.build_run_settings(flat)
    return harness.ExperimentConfig(
        scenario=scenario, agent_kind=kind, hyper=hyper, trials=run["trials"],
        seeds=run["seeds"], observation=run["observation"],
        baseline_grid=run["baseline_grid"], out_dir=run["out_dir"])


def sweep_scenarios(spec: SweepSpec, seed: int):
    weather_seed = derived_seeds(seed)["weather"]
    return [cfgmod.build_scenario({"scenario.location": loc,
                                   "scenario.weather_mode": "stochastic",
                                   "scenario.weather_seed": str(weather_seed)})
            for loc in spec.locations]


def setup_once(name: str, seed: int, tiny: bool, out_dir: Path) -> dict:
    """Config build, env construction with its first reset, and agent
    construction, each timed; the import is timed by the caller."""
    spec = WORKLOADS[name]
    clock = time.perf_counter
    t0 = clock()
    if isinstance(spec, TrainSpec):
        experiment = build_experiment(
            train_flat_config(spec, seed, out_dir, tiny))
        scenarios = [experiment.scenario]
    else:
        scenarios = sweep_scenarios(spec, seed)
    t1 = clock()
    envs = [NitrogenEnv(s) for s in scenarios]
    for env in envs:
        env.reset(seed=0)
    t2 = clock()
    if isinstance(spec, TrainSpec):
        obs_dim = experiment.mask.size(envs[0].n_layers)
        agent_cls = DqnAgent if experiment.agent_kind == "dqn" else SacAgent
        agent_cls(obs_dim, experiment.hyper, seed=experiment.seeds[0])
    t3 = clock()
    return {"config_s": t1 - t0, "env_s": t2 - t1, "agent_s": t3 - t2}


# ---------------------------------------------------------------------------
# Episode clock
# ---------------------------------------------------------------------------

class EpisodeClock:
    """Timestamps every ``NitrogenEnv.reset`` while installed, with the step
    count of the episode that the reset ends (0 for a new env)."""

    def __init__(self):
        self.resets: list[tuple[int, int]] = []   # (perf_counter_ns, steps)

    @contextmanager
    def installed(self):
        original = NitrogenEnv.__dict__["reset"]
        resets = self.resets
        clock = time.perf_counter_ns

        def reset(env, *args, **kwargs):
            resets.append((clock(), len(env.records)))
            return original(env, *args, **kwargs)

        NitrogenEnv.reset = reset
        try:
            yield self
        finally:
            NitrogenEnv.reset = original


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)

    def merge(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.extend(other.errors[:max(0, 20 - len(self.errors))])


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# One repetition
# ---------------------------------------------------------------------------

@dataclass
class Rep:
    """One user-level call, its checks and, when clocked, its segments.

    Segment boundaries are the call's start, every ``NitrogenEnv.reset`` and
    the call's end, so each segment after the first starts an episode.
    Repetitions of a workload do the same work, so their segments correspond
    one to one.
    """

    wall_s: float                       # the whole user-level call
    peak_rss_mb: float                  # process peak, read after the call
    segments_ns: list[int] = field(default_factory=list)
    loop: range = range(0)              # segments that steps_per_s covers
    episodes: list[int] = field(default_factory=list)  # timed episodes
    steps: int = 0                      # env steps within ``loop``
    fingerprint: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    checks: Checks = field(default_factory=Checks)

    def cut(self, t0: int, t1: int, clock: EpisodeClock) -> None:
        bounds = [t0] + [t for t, _ in clock.resets] + [t1]
        self.segments_ns = [b - a for a, b in zip(bounds, bounds[1:])]


@contextmanager
def _installed(clock: EpisodeClock | None, tracer):
    """Install the episode clock and the tracer, if given, around a call."""
    with ExitStack() as stack:
        for hook in (clock, tracer):
            if hook is not None:
                stack.enter_context(hook.installed())
        yield


class TrainWorkload:
    """``run_training`` with one trial; episodes after warmup are timed."""

    def __init__(self, spec: TrainSpec, seed: int, out_dir: Path, tiny: bool):
        self.experiment = build_experiment(
            train_flat_config(spec, seed, out_dir, tiny))
        self.out_dir = Path(self.experiment.out_dir)
        hyper = self.experiment.hyper
        self.warmup_steps = max(hyper.batch_size, hyper.warmup)

    def main_call(self):
        return harness.run_training(self.experiment)

    def rep(self, clock: EpisodeClock | None = None, tracer=None,
            verify: bool = False) -> Rep:
        with _installed(clock, tracer):
            t0 = time.perf_counter_ns()
            report = self.main_call()
            t1 = time.perf_counter_ns()
        rep = Rep(wall_s=(t1 - t0) / 1e9, peak_rss_mb=_peak_rss_mb())
        for trial in report.trials:
            rep.checks.record(not trial.failed,
                              f"trial {trial.seed} failed: {trial.error}")
        if clock is not None:
            self._cut(rep, t0, t1, clock)
        rep.fingerprint = {name: _sha256(self.out_dir / name)
                           for name in ("curves.csv", "tables.csv")}
        if verify:
            self._verify(report, rep)
        return rep

    def _cut(self, rep: Rep, t0: int, t1: int, clock: EpisodeClock) -> None:
        # The training env is reset first, once per episode; its next reset
        # starts the greedy evaluation, so it ends the last training episode.
        rep.cut(t0, t1, clock)
        n = self.experiment.hyper.episodes
        if len(clock.resets) <= n:
            rep.checks.record(False, "training ended before its last episode")
            return
        for k in range(n):
            if rep.steps >= self.warmup_steps:
                rep.episodes.append(k + 1)
            rep.steps += clock.resets[k + 1][1]
        rep.loop = range(1, n + 1)

    def _verify(self, report, rep: Rep) -> None:
        """Replay the greedy episode from its checkpoint and every baseline
        dose; each must equal the run's result and pass the reward identity."""
        exp, checks = self.experiment, rep.checks
        for trial in report.trials:
            if trial.failed:
                continue
            policy, _ = harness.load_checkpoint(
                self.out_dir / f"trial_{trial.seed}_checkpoint.json")
            checks.record(*_evaluated_equal(policy, exp.scenario, exp.mask,
                                            trial.summary,
                                            f"greedy seed {trial.seed}"))
        for amount, summary in sorted(report.baselines.items()):
            checks.record(*_evaluated_equal(harness.baseline_policy(amount),
                                            exp.scenario, exp.mask, summary,
                                            f"baseline {amount:g}"))
        best = max(report.baselines.items(),
                   key=lambda kv: kv[1].cumulative_reward)
        good = [t for t in report.trials if not t.failed and t.summary]
        rep.quality = {
            "greedy_return": [t.summary.cumulative_reward for t in good],
            "greedy_total_n": [t.summary.total_n for t in good],
            "best_baseline_dose": best[0],
            "best_baseline_return": best[1].cumulative_reward}


def _evaluated_equal(policy, scenario, mask, expected, label):
    try:
        _, per = harness.evaluate_policy(policy, scenario, mask)
    except AssertionError as exc:   # reward identity violated
        return False, f"{label}: {exc}"
    same = per[0].as_dict() == expected.as_dict()
    return same, f"{label}: re-evaluated episode differs from the run's"


class SweepWorkload:
    """``evaluate_policy(baseline_policy(dose), ...)`` over the dose grid and
    several stochastic weather years, on both presets."""

    def __init__(self, spec: SweepSpec, seed: int, out_dir: Path, tiny: bool):
        self.scenarios = sweep_scenarios(spec, seed)
        self.years = 1 if tiny else spec.years
        self.grid = TINY_GRID if tiny else DOSE_GRID
        self.base_seed = derived_seeds(seed)["episodes"]
        self.mask = ObservationMask.full()

    def main_call(self):
        """Per-episode summaries of every call, or the exception it raised."""
        out = []
        for scenario in self.scenarios:
            for dose in self.grid:
                try:
                    _, per = harness.evaluate_policy(
                        harness.baseline_policy(dose), scenario, self.mask,
                        n_episodes=self.years, base_seed=self.base_seed)
                except Exception as exc:  # counted as failed episodes
                    per = exc
                out.append(per)
        return out

    def rep(self, clock: EpisodeClock | None = None, tracer=None,
            verify: bool = False) -> Rep:
        # evaluate_policy verifies the reward identity of every episode
        # itself, so ``verify`` adds nothing here
        with _installed(clock, tracer):
            t0 = time.perf_counter_ns()
            calls = self.main_call()
            t1 = time.perf_counter_ns()
        rep = Rep(wall_s=(t1 - t0) / 1e9, peak_rss_mb=_peak_rss_mb())
        summaries = []
        for per in calls:
            if isinstance(per, Exception):
                for _ in range(self.years):
                    rep.checks.record(False, f"evaluation raised: {per!r}")
                continue
            for s in per:
                rep.checks.record(_finite_summary(s),
                                  "non-finite episode summary")
                rep.steps += s.terminal_dap
                summaries.append(s.as_dict())
        if clock is not None:
            rep.cut(t0, t1, clock)
            rep.loop = range(len(rep.segments_ns))
            rep.episodes = list(range(1, len(rep.segments_ns)))
        blob = json.dumps(summaries, sort_keys=True).encode()
        rep.fingerprint = {"summaries": hashlib.sha256(blob).hexdigest()}
        return rep


def _finite_summary(s) -> bool:
    values = (s.total_n, s.total_leach, s.total_uptake, s.topwt,
              s.cumulative_reward)
    return all(math.isfinite(v) for v in values)


def make(name: str, seed: int, out_dir: Path, tiny: bool = False):
    spec = WORKLOADS[name]
    cls = TrainWorkload if isinstance(spec, TrainSpec) else SweepWorkload
    return cls(spec, seed, out_dir, tiny)
