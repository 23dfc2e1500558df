import json

import pytest

from croprl.cli import main


@pytest.fixture
def tiny_config(tmp_path):
    # small enough that a config which wrongly parses would still finish fast
    path = tmp_path / "tiny.ini"
    path.write_text("[scenario]\nlocation = iowa\n"
                    "[agent]\nepisodes = 1\nwarmup = 8\nbatch_size = 4\n"
                    f"[run]\ntrials = 1\nout_dir = {tmp_path / 'out'}\n")
    return path


@pytest.mark.parametrize("overrides", [
    ["scenario.latest_harvest_doy=soon"],
    ["agent.hidden=12x"],
    ["agent.kind=sac", "agent.alpha=lots"],
    ["run.seeds=1,x"],
    ["run.baseline_grid=0,40,lots"],
    ["run.trials=3", "run.seeds=1,2"],
    ["run.observation=bogus"],
    ["run.baseline_grid=0,nan"],
])
def test_unparsable_values_are_configuration_errors(tiny_config, tmp_path,
                                                    capsys, overrides):
    argv = ["train", "--config", str(tiny_config)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 1
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # rejected before training


@pytest.fixture
def round_trip_config(tmp_path):
    path = tmp_path / "round_trip.ini"
    path.write_text("[scenario]\nlocation = iowa\n"
                    "[agent]\nepisodes = 3\nwarmup = 32\nhidden = 16,16\n"
                    "[run]\ntrials = 2\nseeds = 1,2\nbaseline_grid = 0,160\n")
    return path


def test_train_report_evaluate_round_trip(round_trip_config, tmp_path,
                                          capsys):
    config = str(round_trip_config)
    run, again = tmp_path / "run", tmp_path / "again"
    assert main(["train", "--config", config, "--out", str(run)]) == 0
    written = {name: (run / name).read_bytes()
               for name in ("curves.csv", "tables.csv", "manifest.json")}

    # report rebuilds the two CSVs from the per-trial files, byte for byte,
    # and leaves the manifest alone
    assert main(["report", "--run", str(run)]) == 0
    assert {name: (run / name).read_bytes() for name in written} == written

    # a checkpoint's greedy episode reproduces the trial summary
    manifest = json.loads(written["manifest.json"])
    assert [t["seed"] for t in manifest["trials"]] == [1, 2]
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


@pytest.mark.parametrize("argv", [
    ["--baseline", "nan"],
    ["--baseline", "inf"],
    ["--baseline", "-40"],
    ["--baseline", "160", "--episodes", "0"],
    ["--baseline", "160", "--set", "run.observation=bogus"],
])
def test_bad_evaluation_requests_are_configuration_errors(tiny_config, capsys,
                                                          argv):
    assert main(["evaluate", "--config", str(tiny_config), *argv]) == 1
    assert "configuration error" in capsys.readouterr().err
