import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import croprl
import numpy as np

from croprl import agents, config as configmod
from croprl.agents import AgentHyper, DqnAgent
from croprl.cli import main
from croprl.env import SCENARIO_PRESETS
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
                    "action_low=0", "action_high=200", "tau=0.001")),
                ["agent.buffer_capacity=100000"],
                ["agent.target_update_interval=200"],
                ["scenario.soil_depth_cm=151"],
                ["agent.gamma=0.99"], ["agent.kind=sac", "agent.gamma=0.98"],
                ["agent.lr=5e-05"], ["agent.hidden=128,128"],
                ["reward.w1=0.1"], ["reward.w2=0.1"], ["reward.w3=0.1"],
                ["reward.w4=1"],
                # a site's dates, density, N threshold and DQN exploration
                # decay, now its preset's
                ["scenario.start_doy=116"], ["scenario.planting_doy=148"],
                ["scenario.latest_harvest_doy=298"],
                ["scenario.plant_density=7.6"], ["reward.threshold=240"],
                ["agent.epsilon_decay=0.992"]]


@pytest.mark.parametrize("overrides", [
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
    ["agent.episodes=-1"],
    ["agent.warmup=-5"],
    # more than the replay buffer holds: training would never start
    ["agent.warmup=100001"],
    ["agent.batch_size=100001"],
    ["scenario.weather_seed=-1"],
    ["scenario.weather_mode=bogus"],
    ["run.seeds=", "run.trials=0"],
    ["run.baseline_grid=0,1e308"],
    ["run.seeds=-1"],
    ["run.trials=2", "run.seeds=1,1"],  # two trials on one seed's files
    # one table row and manifest key a dose
    ["run.baseline_grid=0,0"],
    ["run.baseline_grid=0,-0"],
    ["run.baseline_grid="],  # a table with no reference row
    ["run.seeds=1,2", "run.trials=3"],  # seeds give the count unless it is set
    ["agent.episodes"],  # an override with no value
    ["episodes=2"],  # an override with no section
    ["scenario.location=mars"],
    ["agent.kind=ppo"],
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
    key = overrides[-1].partition("=")[0]
    for command in (["train"], ["evaluate", "--baseline", "160"],
                    ["ablate", "--axis", "observation"]):
        assert main([*command, "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 1, command
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
                    "[agent]\nepisodes = 3\nwarmup = 32\n"
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


def test_train_evaluate_round_trip(round_trip_config, tmp_path, capsys,
                                  monkeypatch):
    monkeypatch.setattr(agents, "HIDDEN", (16, 16))
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


def test_diverging_trials_are_marked_failed(tiny_config, tmp_path, capsys,
                                          monkeypatch):
    """An overflow fails its trial under the suite's warnings-as-errors
    filter too; the run still reports the baselines."""
    monkeypatch.setattr(agents, "LR", 1e30)
    out = tmp_path / "out"
    assert main(["train", "--config", str(tiny_config), "--set",
                 "agent.episodes=2", "--set", "run.trials=2", "--set",
                 "run.seeds=1,2", "--set", "run.baseline_grid=0,160"]) == 0
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
        tiny_config, tmp_path, capsys, monkeypatch):
    """Every trial diverges: no ablation table is written, and each
    condition's manifest records its failed trial."""
    monkeypatch.setattr(agents, "LR", 1e30)
    out = tmp_path / "out"
    assert main(["ablate", "--config", str(tiny_config), "--axis",
                 "observation", "--set", "run.baseline_grid=0"]) == 2
    assert "condition full" in capsys.readouterr().err
    assert not list(out.glob("ablation.*"))
    for condition in ("full", "partial"):
        trials = json.loads(
            (out / condition / "manifest.json").read_text())["trials"]
        assert [t["failed"] for t in trials] == [True]


@pytest.fixture
def bad_checkpoints(tmp_path):
    """A directory of checkpoint files that evaluation must refuse."""
    hyper = AgentHyper(warmup=0)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(agents, "HIDDEN", (4,))
        agent = DqnAgent(30, hyper).to_dict()
        narrow = DqnAgent(12, hyper).to_dict()
    texts = {"not_json": "{\"agent\": ",
             "unknown_kind": json.dumps({"agent": {"kind": "ppo"}}),
             "version_2": json.dumps({"agent": {
                 **agent, "qnet": {**agent["qnet"], "version": 2}}}),
             "no_qnet": json.dumps({"agent": {
                 k: v for k, v in agent.items() if k != "qnet"}}),
             "kind_only": json.dumps({"agent": {"kind": "sac"}}),
             "agent_list": json.dumps({"agent": []}),
             "no_last_layer": json.dumps({"agent": {**agent, "qnet": {
                 **agent["qnet"], "params": agent["qnet"]["params"][:1]}}}),
             # an actor gives a mean and a log-std
             "sac_three_outputs": json.dumps({"agent": {
                 "kind": "sac", "actor": net_to_dict(init_params(
                     (30, 4, 3), np.random.default_rng(0)))}}),
             # the default config observes 30 values
             "narrow": json.dumps({"agent": narrow}),
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
    ["--checkpoint", "{dir}/version_2.json"],
    ["--checkpoint", "{dir}/no_qnet.json"],
    ["--checkpoint", "{dir}/kind_only.json"],
    ["--checkpoint", "{dir}/agent_list.json"],
    ["--checkpoint", "{dir}/no_last_layer.json"],
    ["--checkpoint", "{dir}/sac_three_outputs.json"],
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
    ["--baseline", "160", "--config", "{dir}/missing.ini"],  # the last wins
    # past evaluate_policy's bound, refused before the directory is made too
    ["--baseline", "160", "--episodes", "1000001"],
])
def test_bad_evaluation_requests_are_configuration_errors(
        tiny_config, bad_checkpoints, tmp_path, capsys, argv):
    argv = [arg.format(dir=bad_checkpoints) for arg in argv]
    out = tmp_path / "never"
    assert main(["evaluate", "--config", str(tiny_config), *argv,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "ConfigError(" not in err  # one plain message, not one wrapped
    assert not out.exists()  # refused before the output directory is made


@pytest.mark.parametrize("command", [
    ["train"], ["evaluate", "--baseline", "160"],
    ["ablate", "--axis", "observation"]], ids=lambda command: command[0])
@pytest.mark.parametrize("out", ["afile", "afile/run"])
def test_an_output_path_through_a_file_is_a_configuration_error(
        tiny_config, tmp_path, capsys, command, out):
    (tmp_path / "afile").write_text("not a directory\n")
    assert main([command[0], "--config", str(tiny_config), *command[1:],
                 "--out", str(tmp_path / out)]) == 1
    printed = capsys.readouterr()
    assert "configuration error" in printed.err
    assert printed.out == ""  # refused before any work or output
    assert (tmp_path / "afile").read_text() == "not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "tiny.ini"]


@pytest.mark.parametrize("command", [
    ["train"], ["evaluate", "--baseline", "160"],
    ["ablate", "--axis", "observation"]], ids=lambda command: command[0])
@pytest.mark.parametrize("argv", [["--set", "run.out_dir="], ["--out", ""]],
                         ids=["set", "out"])
def test_an_empty_output_path_is_a_configuration_error(
        tiny_config, tmp_path, monkeypatch, capsys, command, argv):
    """Before, an empty run.out_dir wrote the run into the working directory
    and an empty --out was ignored."""
    monkeypatch.chdir(tmp_path)
    assert main([command[0], "--config", str(tiny_config), *command[1:],
                 *argv]) == 1
    printed = capsys.readouterr()
    assert "configuration error: run.out_dir" in printed.err
    assert printed.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tiny.ini"]


@pytest.mark.parametrize("axis,blocked", [("observation", "partial"),
                                          ("frequency", "every_10_days")])
def test_ablate_refuses_a_file_in_either_condition_s_way_before_training(
        tiny_config, tmp_path, capsys, axis, blocked):
    out = tmp_path / "out"
    out.mkdir()
    (out / blocked).write_text("not a directory\n")
    assert main(["ablate", "--config", str(tiny_config), "--axis", axis]) == 1
    printed = capsys.readouterr()
    assert "configuration error" in printed.err
    assert printed.out == ""
    assert [p for p in out.rglob("*") if p.is_file()] == [out / blocked]


@pytest.mark.parametrize("argv,error", [
    (["evaluate", "--baseline", "abc"], "--baseline: invalid float value"),
    (["train", "--seed", "abc"], "--seed: invalid int value"),
    (["evaluate", "--baseline", "0", "--episodes", "x"],
     "--episodes: invalid int value"),
    (["evaluate"], "one of the arguments --checkpoint --baseline is required"),
    (["ablate", "--axis", "bogus"], "--axis: invalid choice: 'bogus'"),
    (["report", "--run", "out"], "invalid choice: 'report'"),
], ids=["baseline", "seed", "episodes", "no_policy", "axis", "report"])
def test_a_malformed_command_line_is_a_configuration_error(
        tiny_config, capsys, argv, error):
    assert main([*argv, "--config", str(tiny_config)]) == 1
    printed = capsys.readouterr()
    assert printed.out == ""
    assert re.search(rf"^croprl( \w+)?: error: .*{re.escape(error)}",
                     printed.err, re.M), printed.err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "usage: croprl" in capsys.readouterr().out
    # the axes are the keys of harness.ABLATIONS
    assert main(["ablate", "--help"]) == 0
    assert "--axis {observation,frequency}" in capsys.readouterr().out


# every documented key, with every special spelling, and the digests of
# these configs
DQN_INI = """
[scenario]
location = Iowa
weather_mode = stochastic
weather_seed = 12
action_frequency = 2
[agent]
kind = DQN
episodes = 7
batch_size = 32
warmup = 100
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
weather_mode = fixed-trace
weather_seed = 3
action_frequency = 1
[agent]
kind = sac
episodes = 5
batch_size = 8
warmup = 0
[run]
trials = 2
seeds = 1, 2
observation = full
baseline_grid = 0,160
out_dir = out
"""


@pytest.mark.parametrize("text,digest,out_dir", [
    (DQN_INI, "d14de56bf255349d", "Some/Dir"),
    (SAC_INI, "121ce44473a33729", "out"),
    ("", "fea9b5206240f468", "run_output"),
], ids=["dqn", "sac", "defaults"])
def test_every_key_parses_as_before(tmp_path, text, digest, out_dir):
    path = tmp_path / "all.ini"
    path.write_text(text)
    experiment = configmod.build_experiment(configmod.load_config(path))
    assert config_digest(experiment) == digest
    assert experiment.out_dir == Path(out_dir)


def test_seeds_alone_give_the_number_of_trials(tmp_path):
    path = tmp_path / "seeds.ini"
    path.write_text("[run]\nseeds = 7, 8\n")
    experiment = configmod.build_experiment(configmod.load_config(path))
    assert (experiment.trials, experiment.seeds) == (2, (7, 8))


@pytest.mark.parametrize("kind", ["dqn", "sac"])
@pytest.mark.parametrize("location", ["iowa", "florida"])
def test_the_python_api_and_the_config_build_the_same_experiment(location,
                                                                  kind):
    """A site's values, its DQN exploration decay too, come from its preset
    alone, and every agent kind takes the one AgentHyper."""
    preset = SCENARIO_PRESETS[location]
    assert croprl.ExperimentConfig(scenario=preset(), agent_kind=kind) \
        == configmod.build_experiment({"scenario.location": location,
                                       "agent.kind": kind})


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
        ("scenario", configmod._SCENARIO), ("agent", configmod._AGENT),
        ("run", configmod._RUN)) for key in types}
    assert len(computed) == 13
    assert documented == computed


def _ablate(tmp_path, monkeypatch, axis, conditions):
    """Run ``croprl ablate`` on a tiny two-seed config; check its tables and
    that each condition directory holds one policy-only checkpoint a seed."""
    monkeypatch.setattr(agents, "HIDDEN", (8,))
    config = tmp_path / "ablate.ini"
    config.write_text("[agent]\nepisodes = 2\nwarmup = 32\n"
                      "[run]\ntrials = 2\nbaseline_grid = 0,160\n")
    out = tmp_path / "out"
    assert main(["ablate", "--config", str(config), "--axis", axis,
                 "--out", str(out)]) == 0
    result = json.loads((out / "ablation.json").read_text())
    assert set(result["conditions"]) == set(conditions)
    # each condition's numbers are the means over its trials' summaries
    for condition in conditions:
        trials = json.loads(
            (out / condition / "manifest.json").read_text())["trials"]
        summaries = [t["summary"] for t in trials if not t["failed"]]
        assert len(summaries) == 2
        assert result["conditions"][condition] == {
            "reward": float(np.mean([s["cumulative_reward"]
                                     for s in summaries])),
            "topwt": float(np.mean([s["topwt"] for s in summaries]))}
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


def test_ablate_observation_checkpoints_need_their_observations(
        tmp_path, capsys, monkeypatch):
    config, out = _ablate(tmp_path, monkeypatch, "observation",
                          ("full", "partial"))
    partial = ["evaluate", "--config", str(config),
               "--checkpoint", str(out / "partial" / "trial_1_checkpoint.json")]
    assert main(partial + ["--set", "run.observation=partial"]) == 0
    capsys.readouterr()
    assert main(partial) == 1
    assert "observation partial" in capsys.readouterr().err


def test_ablate_frequency(tmp_path, capsys, monkeypatch):
    config, out = _ablate(tmp_path, monkeypatch, "frequency",
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


def test_a_version_1_checkpoint_loads_whatever_its_hyper_holds(tmp_path,
                                                              capsys):
    """Only the net is read: a hyper that today's training checks refuse,
    with a key no setting knows and hidden widths other than the net's,
    still plays the net it holds."""
    data = json.loads((DATA / "dqn_iowa" / "trial_1_checkpoint.json")
                      .read_text())
    data["agent"]["hyper"].update(buffer_capacity=16, tau=0.1, hidden=[99])
    checkpoint = tmp_path / "trial_1_checkpoint.json"
    checkpoint.write_text(json.dumps(data))
    config = tmp_path / "eval.ini"
    config.write_text("[scenario]\nlocation = iowa\n")
    assert main(["evaluate", "--config", str(config),
                 "--checkpoint", str(checkpoint)]) == 0
    expected = json.loads((DATA / "dqn_iowa" / "evaluation.json").read_text())
    assert json.loads(capsys.readouterr().out)["mean"] == expected["mean"]


def test_train_with_a_seed_flag_trains_that_seed_only(tiny_config, tmp_path):
    out = tmp_path / "out"
    assert main(["train", "--config", str(tiny_config), "--seed", "7",
                 "--set", "run.baseline_grid=0"]) == 0
    assert sorted(p.name for p in out.glob("trial_*")) == [
        "trial_7_checkpoint.json", "trial_7_curve.csv"]
    assert json.loads((out / "manifest.json").read_text())["seeds"] == [7]


def test_evaluate_writes_what_it_prints(tiny_config, tmp_path, capsys):
    out = tmp_path / "eval"
    assert main(["evaluate", "--config", str(tiny_config), "--baseline", "80",
                 "--out", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["policy"] == "baseline:80"
    assert json.loads((out / "evaluation.json").read_text()) == printed


@pytest.mark.parametrize("named", ["set", "file", "none"])
def test_evaluate_writes_into_the_out_dir_the_request_names(
        tmp_path, monkeypatch, capsys, named):
    """Before, only --out wrote evaluation.json: a run.out_dir named by
    --set or by the config file was ignored. With none named, nothing is
    written."""
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "eval"
    config = tmp_path / "eval.ini"
    config.write_text(f"[run]\nout_dir = {out}\n" if named == "file" else "")
    argv = ["--set", f"run.out_dir={out}"] if named == "set" else []
    assert main(["evaluate", "--config", str(config), "--baseline", "80",
                 *argv]) == 0
    printed = json.loads(capsys.readouterr().out)
    if named == "none":
        assert sorted(p.name for p in tmp_path.iterdir()) == ["eval.ini"]
    else:
        assert json.loads((out / "evaluation.json").read_text()) == printed


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
