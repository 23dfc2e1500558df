"""Smoke tests of the benchmark at tiny sizes.

Each workload runs in a fresh interpreter, as the benchmark's own command
runs it, once untraced and once traced. The figures of a tiny run mean
nothing; the tests check that every named metric is emitted and finite, that
the outputs pass their checks, and that tracing leaves the program as it
found it.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"),
                           *args], capture_output=True, text=True, cwd=cwd,
                          timeout=300)


def tiny(workload, trace, seed=5):
    proc = run_bench("--workload", workload, "--seed", str(seed), "--seconds",
                     "0", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


@pytest.fixture(scope="module")
def results():
    out = {}
    for name in NAMES:
        for trace in (0, 1):
            out[name, trace] = tiny(name, trace)
    return out


def result_line(lines) -> dict:
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_named_metric_is_emitted_and_finite(results, workload, trace):
    res = result_line(results[workload, trace])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def test_sweep_makes_no_learner_calls(results):
    metrics = result_line(results["sweep-stochastic", 1])["metrics"]
    learner = [fn for fn in tracing.FUNCTIONS
               if fn.split(".")[0] in tracing.LEARNER_LAYERS]
    assert learner
    assert all(metrics[f"{fn}.calls"]["value"] == 0 for fn in learner)
    assert metrics["simulator.advance_day.calls"]["value"] > 0


@pytest.mark.parametrize("workload", ["dqn-iowa-train", "sac-florida-train"])
def test_train_samples_weather_once_per_episode(results, workload):
    metrics = result_line(results[workload, 1])["metrics"]
    assert metrics["weather.series_for_episode.calls"]["value"] \
        == metrics["env.reset.calls"]["value"]
    record = json.loads((BENCH / "out" / f"result-{workload}-seed5-trace1"
                         "-tiny.json").read_text())
    assert record["trace"]["max_fixed_trace_builds"] == 1


def test_same_seed_gives_same_fingerprint(results):
    again = tiny("dqn-iowa-train", 0)
    first = results["dqn-iowa-train", 0]
    prints = [next(line for line in lines if line.startswith("fingerprint:"))
              for lines in (first, again)]
    assert prints[0] == prints[1]


def test_tracer_restores_every_wrapped_name(tmp_path):
    sites = tracing.patch_sites()
    assert {fn for fn, *_ in sites} == set(tracing.FUNCTIONS)
    workload = workloads.make("dqn-iowa-train", 1, tmp_path, tiny=True)
    tracer = tracing.Tracer()
    rep = workload.rep(tracer=tracer)
    assert rep.checks.failed == 0
    called = {tracer.names[i] for i in set(tracer.name)}
    assert "net.adam_step" in called and "simulator.advance_day" in called
    for _fn, owner, attr, original in sites:
        assert owner.__dict__[attr] is original, (owner, attr)
    assert tracer.balance.days > 0 and tracer.balance.failures == 0


def test_tracer_restores_after_a_raise():
    from croprl.env import NitrogenEnv
    original = NitrogenEnv.__dict__["step"]
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            assert NitrogenEnv.__dict__["step"] is not original
            raise RuntimeError
    assert NitrogenEnv.__dict__["step"] is original


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 101))
    assert stats.tail(values) == (90.0, 90.0)
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    value, pct = stats.tail(range(40))
    assert sum(v > value for v in range(40)) == 10 and pct == 75.0
