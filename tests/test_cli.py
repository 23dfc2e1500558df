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
])
def test_unparsable_values_are_configuration_errors(tiny_config, capsys,
                                                    overrides):
    argv = ["train", "--config", str(tiny_config)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 1
    assert "configuration error" in capsys.readouterr().err
