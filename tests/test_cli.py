import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import croprl
import numpy as np

from croprl import config as configmod
from croprl.agents import DqnAgent, DqnHyper
from croprl.cli import main
from croprl.harness import config_digest
from croprl.net import init_params, net_to_dict


@pytest.fixture
def tiny_config(tmp_path):
    # small enough that a config which wrongly parses would still finish fast
    path = tmp_path / "tiny.ini"
    path.write_text("[scenario]\nlocation = iowa\n"
                    "[agent]\nepisodes = 1\nwarmup = 8\nbatch_size = 4\n"
                    f"[run]\ntrials = 1\nout_dir = {tmp_path / 'out'}\n")
    return path


# settings that are now constants, each at the value it always had outside
# tests, so that only the key itself can be refused
RETIRED_KEYS = [["reward.clamp_overage=true"], ["agent.grad_steps_per_day=1"],
                *(["agent.kind=sac", f"agent.{item}"] for item in (
                    "alpha=auto", "target_entropy=-1", "reward_scale=1",
                    "action_low=0", "action_high=200"))]


@pytest.mark.parametrize("overrides", [
    ["scenario.latest_harvest_doy=soon"],
    ["agent.hidden=12x"],
    ["run.seeds=1,x"],
    ["run.baseline_grid=0,40,lots"],
    ["run.trials=3", "run.seeds=1,2"],
    ["run.observation=bogus"],
    ["run.baseline_grid=0,nan"],
    # keys no setting claims
    ["agent.learning_rate=0.5"],
    ["run.trails=3"],
    ["bogus.key=1"],
    ["Agent.episodes=2"],
    ["agent.tau=0.01"],
    ["agent.kind=sac", "agent.epsilon_decay=0.9"],
    ["agent.kind=sac", "agent.log_std_min=-3"],
    ["agent.kind=sac", "agent.log_std_max=1"],
    *RETIRED_KEYS,
    # values their dataclass refuses
    ["agent.batch_size=0"],
    ["agent.lr=nan"],
    ["agent.lr=-1"],
    ["agent.episodes=-1"],
    ["agent.warmup=-5"],
    ["agent.target_update_interval=0"],
    ["agent.hidden=0"],
    ["agent.buffer_capacity=0"],
    ["agent.warmup=100", "agent.buffer_capacity=10"],  # never fills to train
    ["scenario.plant_density=nan"],
    ["scenario.soil_depth_cm=nan"],
    ["scenario.weather_seed=-1"],
    ["scenario.weather_mode=bogus"],
    ["reward.w1=nan"],
    ["reward.threshold=nan"],
    ["run.seeds=", "run.trials=0"],
    ["run.baseline_grid=0,1e308"],
    ["run.seeds=-1"],
    ["run.trials=2", "run.seeds=1,1"],  # two trials on one seed's files
    # one table row and manifest key a dose
    ["run.baseline_grid=0,0"],
    ["run.baseline_grid=0,-0"],
])
def test_unparsable_values_are_configuration_errors(tiny_config, tmp_path,
                                                    capsys, overrides):
    argv = ["train", "--config", str(tiny_config)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err
    # the message names the key of the last override
    assert overrides[-1].split("=")[0].partition(".")[2] in err
    assert not (tmp_path / "out").exists()  # rejected before training


@pytest.mark.parametrize("overrides", RETIRED_KEYS)
def test_retired_keys_in_a_config_file_are_unknown(tmp_path, capsys,
                                                   overrides):
    sections = {}
    for item in ["agent.episodes=1", "agent.warmup=8", *overrides]:
        key, _, value = item.partition("=")
        section, _, name = key.partition(".")
        sections.setdefault(section, []).append(f"{name} = {value}\n")
    path = tmp_path / "retired.ini"
    path.write_text("".join(f"[{section}]\n" + "".join(lines)
                            for section, lines in sections.items()))
    assert main(["train", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    key = overrides[-1].partition("=")[0]
    assert f"unknown key '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_negative_seed_flag_is_a_configuration_error(tiny_config, tmp_path,
                                                    capsys):
    assert main(["train", "--config", str(tiny_config), "--seed", "-1"]) == 1
    assert "run.seeds" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", [
    b"episodes = 1\n",                                 # no section header
    b"[agent]\nepisodes = 1\nepisodes = 2\n",           # a key twice
    b"[agent]\nepisodes = 1\n[run]\nout_dir = 10%\n",    # stray %
    b"[Agent]\nepisodes = 1\n",                        # sections are exact
    b"[agent]\nepisodes = 1\xff\n",                    # not UTF-8
])
def test_malformed_config_files_are_configuration_errors(tmp_path, capsys,
                                                         text):
    path = tmp_path / "bad.ini"
    path.write_bytes(text)
    assert main(["train", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.fixture
def round_trip_config(tmp_path):
    path = tmp_path / "round_trip.ini"
    path.write_text("[scenario]\nlocation = iowa\n"
                    "[agent]\nepisodes = 3\nwarmup = 32\nhidden = 16,16\n"
                    "[run]\ntrials = 2\nseeds = 1,2\nbaseline_grid = 0,160\n")
    return path


def _csv_columns(path) -> dict[str, np.ndarray]:
    """A CSV of numbers as {column name: values}."""
    header, *rows = Path(path).read_text().splitlines()
    values = np.array([[float(v) for v in row.split(",")] for row in rows])
    return dict(zip(header.split(","), values.T))


# tables.csv columns and the summary field each one reports
TABLE_FIELDS = {"n_input": "total_n", "leaching": "total_leach",
                "uptake": "total_uptake", "topwt": "topwt",
                "cumulative_reward": "cumulative_reward"}


def test_train_evaluate_round_trip(round_trip_config, tmp_path, capsys):
    config = str(round_trip_config)
    run, again = tmp_path / "run", tmp_path / "again"
    assert main(["train", "--config", config, "--out", str(run)]) == 0
    manifest = json.loads((run / "manifest.json").read_text())
    assert [t["seed"] for t in manifest["trials"]] == [1, 2]

    # curves.csv: per episode, the mean and population variance of the two
    # seeds' returns, and the means of their N, leaching and topwt
    trials = [_csv_columns(run / f"trial_{seed}_curve.csv") for seed in (1, 2)]
    curves = _csv_columns(run / "curves.csv")
    assert [line.split(",")[0] for line in
            (run / "curves.csv").read_text().splitlines()] == [
        "episode", "0", "1", "2"]
    rewards = np.array([t["cumulative_reward"] for t in trials])
    assert rewards.var(axis=0).min() > 0  # the seeds differ every episode
    expected = {"episode": trials[0]["episode"],
                "mean_reward": rewards.mean(axis=0),
                "var_reward": rewards.var(axis=0),
                **{f"mean_{name}": np.mean([t[name] for t in trials], axis=0)
                   for name in ("total_N", "total_leach", "topwt")}}
    assert list(curves) == list(expected)
    for name, values in expected.items():
        np.testing.assert_allclose(curves[name], values, rtol=1e-12,
                                   err_msg=name)

    # tables.csv: each row is the summary the manifest records for it
    header, *rows = (run / "tables.csv").read_text().splitlines()
    assert header.split(",") == ["method", *TABLE_FIELDS]
    summaries = {**{f"baseline_{dose}": summary for dose, summary
                    in manifest["baselines"].items()},
                 **{f"dqn_seed{t['seed']}": t["summary"]
                    for t in manifest["trials"]}}
    assert [row.split(",")[0] for row in rows] == [
        "baseline_0", "baseline_160", "dqn_seed1", "dqn_seed2"]
    for row in rows:
        method, *values = row.split(",")
        assert [float(v) for v in values] == [
            summaries[method][name] for name in TABLE_FIELDS.values()], method

    # a checkpoint's greedy episode reproduces the trial summary
    for trial in manifest["trials"]:
        capsys.readouterr()
        checkpoint = run / f"trial_{trial['seed']}_checkpoint.json"
        assert main(["evaluate", "--config", config,
                     "--checkpoint", str(checkpoint)]) == 0
        assert json.loads(capsys.readouterr().out)["mean"] == trial["summary"]

    # the same config trains to the same bytes
    assert main(["train", "--config", config, "--out", str(again)]) == 0
    for name in ("curves.csv", "tables.csv", "episodes.jsonl"):
        assert (again / name).read_bytes() == (run / name).read_bytes(), name


def test_diverging_trials_are_marked_failed(tiny_config, tmp_path, capsys):
    """An overflow fails its trial under the suite's warnings-as-errors
    filter too; the run still reports the baselines."""
    out = tmp_path / "out"
    assert main(["train", "--config", str(tiny_config), "--set",
                 "agent.lr=1e30", "--set", "agent.episodes=2", "--set",
                 "run.trials=2", "--set", "run.seeds=1,2", "--set",
                 "run.baseline_grid=0,160"]) == 0
    printed = capsys.readouterr().out
    assert "seed 1: FAILED" in printed and "seed 2: FAILED" in printed
    trials = json.loads((out / "manifest.json").read_text())["trials"]
    assert [t["failed"] for t in trials] == [True, True]
    assert all(t["error"] for t in trials)
    assert not list(out.glob("*_checkpoint.json"))
    rows = (out / "tables.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["baseline_0",
                                                   "baseline_160"]
    assert (out / "curves.csv").read_text().splitlines() == [
        "episode,mean_reward,var_reward,mean_total_N,mean_total_leach,"
        "mean_topwt"]


def test_fractional_baseline_doses_keep_their_rows(tiny_config, tmp_path):
    out = tmp_path / "out"
    assert main(["train", "--config", str(tiny_config),
                 "--set", "run.baseline_grid=50.2,50.7"]) == 0
    rows = (out / "tables.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows][:2] == ["baseline_50.2",
                                                       "baseline_50.7"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["baselines"]) == ["50.2", "50.7"]


def test_ablation_with_a_failed_condition_is_a_runtime_error(
        tiny_config, tmp_path, capsys):
    """Every trial diverges: no ablation table is written, and each
    condition's manifest records its failed trial."""
    out = tmp_path / "out"
    assert main(["ablate", "--config", str(tiny_config), "--axis",
                 "observation", "--set", "agent.lr=1e30", "--set",
                 "run.baseline_grid=0"]) == 2
    assert "condition full" in capsys.readouterr().err
    assert not list(out.glob("ablation.*"))
    for condition in ("full", "partial"):
        trials = json.loads(
            (out / condition / "manifest.json").read_text())["trials"]
        assert [t["failed"] for t in trials] == [True]


@pytest.fixture
def bad_checkpoints(tmp_path):
    """A directory of checkpoint files that evaluation must refuse."""
    hyper = DqnHyper(hidden=(4,), buffer_capacity=64, warmup=0)
    agent = DqnAgent(30, hyper).to_dict()
    texts = {"not_json": "{\"agent\": ",
             "unknown_kind": json.dumps({"agent": {"kind": "ppo"}}),
             "unknown_key": json.dumps({"agent": {
                 **agent, "hyper": {**agent["hyper"], "tau": 0.1}}}),
             "no_qnet": json.dumps({"agent": {
                 k: v for k, v in agent.items() if k != "qnet"}}),
             "no_hyper": json.dumps({"agent": {"kind": "dqn"}}),
             "agent_list": json.dumps({"agent": []}),
             "no_last_layer": json.dumps({"agent": {**agent, "qnet": {
                 **agent["qnet"], "params": agent["qnet"]["params"][:1]}}}),
             "other_hidden": json.dumps({"agent": {
                 **agent, "hyper": {**agent["hyper"], "hidden": [8]}}}),
             # the default config observes 30 values
             "narrow": json.dumps({"agent": DqnAgent(12, hyper).to_dict()}),
             # written for another site or schedule than the default's
             "florida": json.dumps({"agent": agent, "scenario": "florida"}),
             "every_10_days": json.dumps({"agent": agent,
                                          "action_frequency": 10}),
             # more actions than doses
             "seven_actions": json.dumps({"agent": {
                 **agent, "qnet": net_to_dict(init_params(
                     (30, 4, 7), np.random.default_rng(0)))}}),
             "tanh_hidden": json.dumps({"agent": {**agent, "qnet": {
                 **agent["qnet"], "spec": {**agent["qnet"]["spec"],
                                           "hidden_activation": "tanh"}}}}),
             # an integer net would truncate its weights
             "int64": json.dumps({"agent": {**agent, "qnet": {
                 **agent["qnet"], "dtype": "int64"}}})}
    # json writes and reads NaN and Infinity; 1e300 is finite in json but
    # not as the float32 the net is stored in
    nan_weight, inf_bias, huge_weight = (json.loads(json.dumps(agent))
                                         for _ in range(3))
    nan_weight["qnet"]["params"][0]["w"][0] = float("nan")
    huge_weight["qnet"]["params"][0]["w"][0] = 1e300
    last = inf_bias["qnet"]["params"][-1]
    last["b"] = [float("inf")] * len(last["b"])
    for name, edited in (("nan_weight", nan_weight), ("inf_bias", inf_bias),
                         ("huge_weight", huge_weight)):
        texts[name] = json.dumps({"agent": edited})
    for name, text in texts.items():
        (tmp_path / f"{name}.json").write_text(text)
    return tmp_path


@pytest.mark.parametrize("argv", [
    ["--baseline", "nan"],
    ["--baseline", "inf"],
    ["--baseline", "-40"],
    ["--baseline", "160", "--episodes", "0"],
    ["--baseline", "160", "--set", "run.observation=bogus"],
    ["--checkpoint", "{dir}/missing.json"],
    ["--checkpoint", "{dir}/not_json.json"],
    ["--checkpoint", "{dir}/unknown_kind.json"],
    ["--checkpoint", "{dir}/unknown_key.json"],
    ["--checkpoint", "{dir}/no_qnet.json"],
    ["--checkpoint", "{dir}/no_hyper.json"],
    ["--checkpoint", "{dir}/agent_list.json"],
    ["--checkpoint", "{dir}/no_last_layer.json"],
    ["--checkpoint", "{dir}/other_hidden.json"],
    ["--checkpoint", "{dir}/narrow.json"],
    ["--baseline", "1e308"],
    ["--checkpoint", "{dir}/florida.json"],
    ["--checkpoint", "{dir}/every_10_days.json"],
    ["--checkpoint", "{dir}/seven_actions.json"],
    ["--checkpoint", "{dir}/tanh_hidden.json"],
    ["--checkpoint", "{dir}/int64.json"],
    ["--checkpoint", "{dir}/nan_weight.json"],
    ["--checkpoint", "{dir}/inf_bias.json"],
    ["--checkpoint", "{dir}/huge_weight.json"],
])
def test_bad_evaluation_requests_are_configuration_errors(
        tiny_config, bad_checkpoints, capsys, argv):
    argv = [arg.format(dir=bad_checkpoints) for arg in argv]
    assert main(["evaluate", "--config", str(tiny_config), *argv]) == 1
    assert "configuration error" in capsys.readouterr().err


# every documented key, with every special spelling, and the digests of
# these configs
DQN_INI = """
[scenario]
location = Iowa
start_doy = 100
planting_doy = 130
latest_harvest_doy = None
soil_depth_cm = 140.5
plant_density = 8
weather_mode = stochastic
weather_seed = 12
action_frequency = 2
[reward]
w1 = 0.2
w2 = 0.05
w3 = 0.3
w4 = 2
threshold = 200
[agent]
kind = DQN
episodes = 7
gamma = 0.95
batch_size = 32
lr = 1e-4
hidden = 64, 32
buffer_capacity = 5000
warmup = 100
epsilon_decay = 0.99
target_update_interval = 50
[run]
trials = 3
seeds = 7, 8,9
observation = Partial
baseline_grid = 0, 50.5, 100
out_dir = Some/Dir
"""
SAC_INI = """
[scenario]
location = florida
start_doy = 40
planting_doy = 60
latest_harvest_doy = 300
soil_depth_cm = 120
plant_density = 6.5
weather_mode = fixed-trace
weather_seed = 3
action_frequency = 1
[reward]
w1 = 0.1
w2 = 0.2
w3 = 0
w4 = 1.5
threshold = inf
[agent]
kind = sac
episodes = 5
gamma = 0.9
batch_size = 8
lr = 3e-4
hidden = 32,32,16
buffer_capacity = 2000
warmup = 0
tau = 0.01
[run]
trials = 2
seeds = 1, 2
observation = full
baseline_grid = 0,160
out_dir = out
"""


@pytest.mark.parametrize("text,digest,out_dir", [
    (DQN_INI, "5fa57e821bf1b551", "Some/Dir"),
    (SAC_INI, "c2ccc6fbd474e28a", "out"),
    ("", "67da3a7be3096e2c", "run_output"),
], ids=["dqn", "sac", "defaults"])
def test_every_key_parses_as_before(tmp_path, text, digest, out_dir):
    path = tmp_path / "all.ini"
    path.write_text(text)
    experiment = configmod.build_experiment(configmod.load_config(path))
    assert config_digest(experiment) == digest
    assert experiment.out_dir == Path(out_dir)


def test_docstring_lists_exactly_the_settable_keys():
    documented, section = set(), None
    for line in configmod.__doc__.splitlines():
        if header := re.match(r"\[(\w+)\]", line):
            section = header[1]
        elif section and re.match(r" {4}[a-z]", line):
            # keys come before the first double space; drop the defaults
            names = re.split(r" {2,}", re.sub(r"\([^)]*\)", "", line).strip())
            documented |= {f"{section}.{name.strip()}"
                           for name in names[0].split(",") if name.strip()}
    computed = {f"{section}.{key}" for section, types in (
        ("scenario", configmod._SCENARIO), ("reward", configmod._REWARD),
        ("agent", configmod._AGENT["dqn"]), ("agent", configmod._AGENT["sac"]),
        ("run", configmod._RUN)) for key in types}
    assert len(computed) == 30
    assert documented == computed


def _ablate(tmp_path, axis, conditions):
    """Run ``croprl ablate`` on a tiny two-seed config; check its tables and
    that each condition directory holds one policy-only checkpoint a seed."""
    config = tmp_path / "ablate.ini"
    config.write_text("[agent]\nepisodes = 2\nwarmup = 32\nhidden = 8\n"
                      "[run]\ntrials = 2\nbaseline_grid = 0,160\n")
    out = tmp_path / "out"
    assert main(["ablate", "--config", str(config), "--axis", axis,
                 "--out", str(out)]) == 0
    result = json.loads((out / "ablation.json").read_text())
    assert set(result["conditions"]) == set(conditions)
    rows = (out / "ablation.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [[axis, c]
                                                    for c in conditions]
    # the deltas are the variant's change relative to the reference, in %,
    # in the json and in the variant's row; the reference's row has zeros
    ref, var = (result["conditions"][c] for c in conditions)
    deltas = [(var[key] - ref[key]) / abs(ref[key]) * 100
              for key in ("reward", "topwt")]
    assert [result["reward_delta_pct"], result["topwt_delta_pct"]] \
        == pytest.approx(deltas, rel=1e-12)
    assert [float(v) for v in rows[0].split(",")[2:]] == [
        ref["reward"], ref["topwt"], 0.0, 0.0]
    assert [float(v) for v in rows[1].split(",")[2:]] == pytest.approx(
        [var["reward"], var["topwt"], *deltas], rel=1e-12)
    for condition in conditions:
        names = sorted(p.name for p in (out / condition).glob("*_checkpoint.json"))
        assert names == ["trial_1_checkpoint.json", "trial_2_checkpoint.json"]
        for name in names:
            agent = json.loads((out / condition / name).read_text())["agent"]
            assert sorted(agent) == ["hyper", "kind", "qnet"]
    return config, out


def test_ablate_observation_checkpoints_need_their_observations(tmp_path,
                                                                capsys):
    config, out = _ablate(tmp_path, "observation", ("full", "partial"))
    partial = ["evaluate", "--config", str(config),
               "--checkpoint", str(out / "partial" / "trial_1_checkpoint.json")]
    assert main(partial + ["--set", "run.observation=partial"]) == 0
    capsys.readouterr()
    assert main(partial) == 1
    assert "observation partial" in capsys.readouterr().err


def test_ablate_frequency(tmp_path, capsys):
    config, out = _ablate(tmp_path, "frequency",
                          ("every_day", "every_10_days"))
    sparse = ["evaluate", "--config", str(config), "--checkpoint",
              str(out / "every_10_days" / "trial_1_checkpoint.json")]
    assert main(sparse + ["--set", "scenario.action_frequency=10"]) == 0
    capsys.readouterr()
    assert main(sparse) == 1
    assert "action_frequency 10" in capsys.readouterr().err


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("run,location,net", [
    ("dqn_iowa", "iowa", "qnet"), ("sac_florida", "florida", "actor")])
def test_version_1_checkpoints_evaluate_as_before(tmp_path, capsys, run,
                                                  location, net):
    """Files that also hold Adam moments and the DQN target or the SAC
    critics, targets and log-alpha load through the same code: only the
    greedy net is read, and it gives the summary it gave when written."""
    checkpoint = DATA / run / "trial_1_checkpoint.json"
    assert "adam" in json.loads(checkpoint.read_text())["agent"][net]
    config = tmp_path / "eval.ini"
    config.write_text(f"[scenario]\nlocation = {location}\n")
    assert main(["evaluate", "--config", str(config),
                 "--checkpoint", str(checkpoint)]) == 0
    expected = json.loads((DATA / run / "evaluation.json").read_text())
    assert json.loads(capsys.readouterr().out)["mean"] == expected["mean"]


@pytest.mark.parametrize("baseline,status", [("160", 0), ("nan", 1)])
def test_evaluate_runs_as_a_process(tiny_config, baseline, status):
    """``python -m croprl`` exits with the documented status; success prints
    the evaluation as JSON on stdout."""
    src = str(Path(croprl.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "croprl", "evaluate", "--config",
         str(tiny_config), "--baseline", baseline],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == status, done.stderr
    if status == 0:
        assert json.loads(done.stdout)["mean"]["total_n"] == 160.0
    else:
        assert "configuration error" in done.stderr
