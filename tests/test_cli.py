import dataclasses
import hashlib

import pytest

from cstj_sim import cli, config
from cstj_sim.sim import ScenarioConfig, run_trials


def _golden_configs():
    small = ScenarioConfig(n_agents=4, n_steps=8, n_trials=2, n_particles=300, seed=5)
    swarm = dict(config.preset("figure4_sweep", seed=5))["agents_12"]
    return {
        "cstj_4": dataclasses.replace(small, mode="cstj"),
        "ct_4": dataclasses.replace(small, mode="ct"),
        "agents_12": dataclasses.replace(swarm, n_steps=6, n_particles=100, n_trials=2),
    }


# sha256 of the steps.csv and summary.csv bytes of each seeded run. Any
# change to the simulated numbers, the decisions or the CSV format changes
# these; a refactor that claims to keep behaviour must leave them as they are.
GOLDEN_SHA256 = {
    "cstj_4": (
        "2b74b4364258766fe7400dd7d962b4cbc13ac731723e70779c7ea6ce272ca0cb",
        "8ba0e34c9ddd2329de201aff6546dc331a4c7f7d14ac90e15ee9c6e93d00ae02",
    ),
    "ct_4": (
        "263608f06d94b5961d02adaef6d6a49dfc8f777eaa71758cfda649668f84da64",
        "2e5f42315820ab6e615bfca207cee6d0511c577d1d8fb3711eac01e02492a4c1",
    ),
    "agents_12": (
        "210f7bb6e541580dd721b73b67d722d19fbd2b39b38bb774d9b48f265d69512f",
        "00b2a4df410c007a62f049a7d5e5d849c313e5e19951a031603d00c444af7bdf",
    ),
}


@pytest.mark.parametrize("label", sorted(GOLDEN_SHA256))
def test_golden_csv_bytes(label, tmp_path):
    paths = cli.emit_csv(run_trials(_golden_configs()[label]), tmp_path)
    digests = tuple(hashlib.sha256(paths[name].read_bytes()).hexdigest() for name in ("steps", "summary"))
    assert digests == GOLDEN_SHA256[label]


def _config_file(tmp_path):
    """A tiny scenario without a sim.seed line, so that $CSTJ_SIM_SEED applies."""
    text = config.format_config(ScenarioConfig(n_agents=1, n_steps=1, n_trials=1, n_particles=10))
    path = tmp_path / "scenario.cfg"
    path.write_text("".join(line for line in text.splitlines(True) if not line.startswith("sim.seed")))
    return path


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("command", ["run", "preset"])
def test_jobs_below_one_is_a_usage_error(command, jobs, tmp_path, capsys):
    out = tmp_path / "out"
    if command == "run":
        argv = ["run", "--config", str(_config_file(tmp_path)), "--out", str(out), "--jobs", jobs]
    else:
        argv = ["preset", "figure3_compare", "--out", str(out), "--jobs", jobs]
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "preset"])
@pytest.mark.parametrize("via_env", [False, True])
def test_negative_seed_fails_before_writing(command, via_env, tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    if command == "run":
        argv = ["run", "--config", str(_config_file(tmp_path)), "--out", str(out)]
    else:
        argv = ["preset", "figure3_compare", "--out", str(out)]
    if via_env:
        monkeypatch.setenv("CSTJ_SIM_SEED", "-1")
    else:
        monkeypatch.delenv("CSTJ_SIM_SEED", raising=False)
        argv += ["--seed", "-1"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: sim.seed")
    assert not out.exists()


@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
def test_unreadable_config_fails_before_writing(kind, tmp_path, capsys):
    path = {"missing": tmp_path / "missing.cfg", "directory": tmp_path, "not_utf8": tmp_path / "binary.cfg"}[kind]
    if kind == "not_utf8":
        path.write_bytes(b"sim.agents = \xff\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert not out.exists()


def test_run_writes_every_output(tmp_path):
    cfg = ScenarioConfig(n_agents=2, n_steps=2, n_trials=2, n_particles=20, seed=3)
    path = tmp_path / "tiny.cfg"
    path.write_text(config.format_config(cfg))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "config_resolved.txt", "manifest.txt", "steps.csv", "summary.csv",
    ]
    steps = (out / "steps.csv").read_text().splitlines()
    assert len(steps) == 1 + cfg.n_trials * cfg.n_steps
    assert len((out / "summary.csv").read_text().splitlines()) == 1 + cfg.n_steps
    resolved = config.parse_config(out / "config_resolved.txt")
    assert config.config_values(resolved) == config.config_values(cfg)
    manifest = (out / "manifest.txt").read_text()
    assert "manifest.seed = 3" in manifest
