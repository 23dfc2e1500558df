"""Span tracing around the public calls of each ``croprl`` layer.

Nothing under ``src/`` is instrumented. Instead, each wrapped function is
replaced, for the duration of a traced run, in every namespace where a
caller looks it up: module attributes that hold the function (``agents``
imports ``forward`` by name, ``env`` imports ``advance_day``, ...) and class
attributes for methods. ``Tracer.installed()`` restores every original
object on exit, even when the traced call raises.

A span is recorded per wrapped call: name, start, end (``perf_counter_ns``)
and the index of the enclosing span. Spans stay in memory until the run
ends. A span's self time is its duration minus the durations of its direct
children. Work done by benchmark checks inside a wrapper (the mass-balance
check on ``advance_day``) is timed separately and excluded from self times.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from stats import tail_of_sorted

# layer name -> wrapped public calls, as (module, qualified name) pairs.
# Methods that several classes define under one name are one entry.
LAYERS: dict[str, tuple[tuple[str, tuple[str, ...]], ...]] = {
    "simulator": (("advance_day", ("croprl.simulator:advance_day",)),),
    "weather": (
        ("series_for_episode",
         ("croprl.weather:WeatherModel.series_for_episode",)),
        ("sample_year", ("croprl.weather:WeatherModel.sample_year",)),
    ),
    "env": (
        ("step", ("croprl.env:NitrogenEnv.step",)),
        ("reset", ("croprl.env:NitrogenEnv.reset",)),
    ),
    "reward": (("daily_reward", ("croprl.reward:daily_reward",)),),
    "state": (
        ("observe", ("croprl.state:observe",)),
        ("normalize_observation", ("croprl.state:normalize_observation",)),
    ),
    "agents": (
        ("act", ("croprl.agents:DqnAgent.act", "croprl.agents:SacAgent.act")),
        ("observe", ("croprl.agents:DqnAgent.observe",
                     "croprl.agents:SacAgent.observe")),
        ("update", ("croprl.agents:DqnAgent.update",
                    "croprl.agents:SacAgent.update")),
        ("polyak_update", ("croprl.agents:polyak_update",)),
    ),
    "net": (
        ("forward", ("croprl.net:forward",)),
        ("forward_cached", ("croprl.net:forward_cached",)),
        ("backward", ("croprl.net:backward",)),
        ("adam_step", ("croprl.net:adam_step",)),
    ),
    "replay": (
        ("push", ("croprl.replay:ReplayBuffer.push",)),
        ("sample", ("croprl.replay:ReplayBuffer.sample",)),
    ),
    "harness": (
        ("run_episode", ("croprl.harness:run_episode",)),
        ("verify_reward_identity", ("croprl.harness:verify_reward_identity",)),
        ("sweep_baselines", ("croprl.harness:sweep_baselines",)),
        ("emit_report", ("croprl.harness:emit_report",)),
        # private, but it is where run_training encodes the checkpoint JSON,
        # 5-8% of a training call, which no public call covers
        ("_write_checkpoint", ("croprl.harness:_write_checkpoint",)),
    ),
}

#: Layers that do no work on a workload without a learning agent.
LEARNER_LAYERS = ("agents", "net", "replay")

FUNCTIONS: tuple[str, ...] = tuple(f"{layer}.{name}"
                                   for layer, entries in LAYERS.items()
                                   for name, _ in entries)


def _resolve(target: str):
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def patch_sites() -> list[tuple[str, object, str, object]]:
    """Every (function name, owner, attribute, original) the tracer replaces.

    A module-level function is replaced in each loaded ``croprl`` module that
    holds it, so calls through ``from .x import f`` names are seen too.
    """
    sites = []
    for fn_name in FUNCTIONS:
        layer, name = fn_name.split(".", 1)
        targets = dict(LAYERS[layer])[name]
        for target in targets:
            owner, attr = _resolve(target)
            original = owner.__dict__[attr]
            if isinstance(owner, type):
                sites.append((fn_name, owner, attr, original))
                continue
            for mod_name, module in sorted(sys.modules.items()):
                if (mod_name == "croprl" or mod_name.startswith("croprl.")) \
                        and module.__dict__.get(attr) is original:
                    sites.append((fn_name, module, attr, original))
    return sites


@dataclass
class BalanceCheck:
    """Per-day nitrogen and water closure of ``advance_day``.

    The accounting is independent of the simulator's update code: inputs,
    outputs and pool changes are summed from the call's arguments and
    returned state and fluxes.
    """

    tol: float = 1e-9
    days: int = 0
    failures: int = 0
    worst_water: float = 0.0
    worst_nitrogen: float = 0.0
    worst_organic: float = 0.0

    def __call__(self, args, kwargs, result) -> None:
        _crop, soil0, weather, n_applied, profile = args[:5]
        _crop1, soil1, fluxes, _indices = result
        depth_mm = profile.depth_cm / profile.n_layers * 10.0

        w_in = weather.rain
        w_out = fluxes.runoff + fluxes.es + fluxes.drainage
        w_delta = depth_mm * (sum(soil1.sw) - sum(soil0.sw))
        w_rel = abs(w_in - w_delta - w_out) / max(
            1.0, abs(w_in) + abs(w_delta) + abs(w_out))

        n_in = n_applied + fluxes.mineralized
        n_out = fluxes.trnu + fluxes.tleachd + fluxes.tnoxd + fluxes.volatilized
        n_delta = sum(soil1.nitrate) - sum(soil0.nitrate)
        n_rel = abs(n_in - n_delta - n_out) / max(
            1.0, abs(n_in) + abs(n_delta) + abs(n_out))

        org_rel = abs(soil0.organic_n - soil1.organic_n - fluxes.mineralized) \
            / max(1.0, soil0.organic_n)

        self.days += 1
        self.worst_water = max(self.worst_water, w_rel)
        self.worst_nitrogen = max(self.worst_nitrogen, n_rel)
        self.worst_organic = max(self.worst_organic, org_rel)
        if not (w_rel <= self.tol and n_rel <= self.tol and org_rel <= self.tol):
            self.failures += 1


class LearnerCounts:
    """Agent updates that took a gradient step, and parameters stepped."""

    def __init__(self):
        self.stepped_updates = 0
        self.adam_params = 0

    def update(self, args, kwargs, result) -> None:
        if result is not None:  # ``update`` returns None while warming up
            self.stepped_updates += 1

    def adam(self, args, kwargs, result) -> None:
        self.adam_params += sum(w.size + b.size for w, b in args[0])


class YearSamples:
    """Weather years sampled, per ``WeatherModel`` instance."""

    def __init__(self):
        self._models: dict[int, list] = {}  # id -> [model, years sampled]

    def __call__(self, args, kwargs, result) -> None:
        model = args[0]
        self._models.setdefault(id(model), [model, 0])[1] += 1

    def max_fixed_trace_builds(self) -> int:
        """Most years sampled by one fixed-trace model (1 = built once)."""
        return max((n for model, n in self._models.values()
                    if model.mode == "fixed-trace"), default=0)


class Tracer:
    """In-memory span recorder; install with ``installed()``."""

    def __init__(self):
        self.names = FUNCTIONS
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.self_ns = array("q")
        self.check_ns = 0
        self.balance = BalanceCheck()
        self.learner = LearnerCounts()
        self.years = YearSamples()
        # checks run after the call returns, outside every span's self time
        self.hooks = {"simulator.advance_day": self.balance,
                      "agents.update": self.learner.update,
                      "net.adam_step": self.learner.adam,
                      "weather.sample_year": self.years}
        self._stack: list[list[int]] = []  # [span index, child ns]

    def _wrap(self, idx: int, fn, check=None):
        name, parent, start, end, self_ns = (self.name, self.parent, self.start,
                                             self.end, self.self_ns)
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            span = len(name)
            name.append(idx)
            parent.append(stack[-1][0] if stack else -1)
            start.append(0)
            end.append(0)
            self_ns.append(0)
            frame = [span, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[span] = t0
                end[span] = t1
                self_ns[span] = t1 - t0 - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            if check is not None:
                c0 = clock()
                check(args, kwargs, result)
                spent = clock() - c0
                tracer.check_ns += spent
                if stack:
                    stack[-1][1] += spent
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    @contextmanager
    def installed(self):
        """Replace every patch site with a tracing wrapper, then restore."""
        done = []
        try:
            for fn_name, owner, attr, original in patch_sites():
                setattr(owner, attr, self._wrap(self.names.index(fn_name),
                                                original,
                                                self.hooks.get(fn_name)))
                done.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(done):
                setattr(owner, attr, original)

    def spans(self) -> dict[str, array]:
        """Spans as columns, indexed in call order."""
        return {"name": self.name, "parent": self.parent, "start": self.start,
                "end": self.end, "self_ns": self.self_ns}


#: Calls made only by ``run_training``; the sweep never makes them.
TRAIN_ONLY = ("harness.sweep_baselines", "harness.emit_report",
              "harness._write_checkpoint")

#: Functions every workload calls, so their self times are always measured.
ALWAYS_CALLED = tuple(fn for fn in FUNCTIONS
                      if fn.split(".")[0] not in LEARNER_LAYERS
                      and fn not in TRAIN_ONLY)


def summarize(tracer: Tracer, wall_ns: int, reps: int) -> dict:
    """Per-function and per-layer figures over ``reps`` traced repetitions
    whose main calls took ``wall_ns`` in total.

    Shares are of traced wall time less the time spent in benchmark checks.
    """
    names = np.frombuffer(tracer.name, dtype=np.int32)
    selfs = np.frombuffer(tracer.self_ns, dtype=np.int64)
    wall = wall_ns - tracer.check_ns
    functions = {}
    for idx, fn in enumerate(FUNCTIONS):
        own = np.sort(selfs[names == idx]) / 1e3   # microseconds
        entry = {"calls_per_rep": len(own) / reps,
                 "self_s": float(own.sum()) / 1e6,
                 "share": float(own.sum()) * 1e3 / wall}
        if len(own):
            entry["self_us_p50"] = float(np.median(own))
            entry["self_us_tail"], entry["tail_percentile"] = \
                tail_of_sorted(own)
        functions[fn] = entry
    layers = {layer: sum(functions[f"{layer}.{name}"]["share"]
                         for name, _ in entries)
              for layer, entries in LAYERS.items()}

    calls = {fn: entry["calls_per_rep"] for fn, entry in functions.items()}
    days_sampled = 366 * calls["weather.sample_year"]
    stepped = tracer.learner.stepped_updates / reps
    return {
        "functions": functions,
        "layers": layers,
        "coverage": float(selfs.sum()) / wall,
        "wall_s": wall_ns / 1e9,
        "check_s": tracer.check_ns / 1e9,
        "spans": len(names),
        "days_used_ratio": (calls["simulator.advance_day"] / days_sampled
                            if days_sampled else 0.0),
        "update_useful_ratio": (stepped / calls["agents.update"]
                                if calls["agents.update"] else 0.0),
        "params_per_update": (tracer.learner.adam_params / reps / stepped
                              if stepped else 0.0),
        "balance": {"days": tracer.balance.days,
                    "failures": tracer.balance.failures,
                    "worst_water_rel": tracer.balance.worst_water,
                    "worst_nitrogen_rel": tracer.balance.worst_nitrogen,
                    "worst_organic_rel": tracer.balance.worst_organic},
        "max_fixed_trace_builds": tracer.years.max_fixed_trace_builds(),
    }
