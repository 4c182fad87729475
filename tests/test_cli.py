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
        "4c6c9dcc5d29e6063da9b6d66227d8d0667db826e82ea9eb0025023579535651",
        "15c9567d765d67c61b848bbceca2299724f71f681ece88427ce09cfbe0054558",
    ),
    "ct_4": (
        "9879f6ae6a4f77d842c02f677c4d3a0e85cb75e69a15f0bcec0b75485202c3e7",
        "2bf990427e3d20f3eed9e19f274a24eba2a3097f63f0db18c99fb4d738eb419c",
    ),
    "agents_12": (
        "08720d94f36aa5259ab445e983ca25a6a37cc825491baf440846c1b769d9b763",
        "42ab1aa1675223143ea3a57125a69cd3bb2a0f37e56b0b0afd4d2d90ceda8ea0",
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


def _argv(command, tmp_path, out, *flags):
    if command == "run":
        return ["run", "--config", str(_config_file(tmp_path)), "--out", str(out), *flags]
    return ["preset", "figure3_compare", "--out", str(out), *flags]


def _usage_error(argv, capsys) -> str:
    """The message of a command line that argparse refuses with exit status 2."""
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("command", ["run", "preset"])
def test_jobs_below_one_is_a_usage_error(command, jobs, tmp_path, capsys):
    out = tmp_path / "out"
    assert "--jobs" in _usage_error(_argv(command, tmp_path, out, "--jobs", jobs), capsys)
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["x", "1.5"])
@pytest.mark.parametrize("command", ["run", "preset"])
def test_jobs_not_an_integer_is_a_usage_error(command, jobs, tmp_path, capsys):
    out = tmp_path / "out"
    err = _usage_error(_argv(command, tmp_path, out, "--jobs", jobs), capsys)
    assert f"--jobs: not an integer: {jobs!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "preset"])
def test_jobs_reaches_every_run_of_trials(command, tmp_path, monkeypatch):
    taken = []

    def no_trials(cfg, jobs):
        taken.append(jobs)
        return []

    monkeypatch.setattr(cli, "run_trials", no_trials)
    monkeypatch.delenv("CSTJ_SIM_SEED", raising=False)
    assert cli.main(_argv(command, tmp_path, tmp_path / "out", "--jobs", "3")) == 0
    assert taken == [3] * (1 if command == "run" else len(config.preset("figure3_compare", seed=0)))


@pytest.mark.parametrize("command", ["run", "preset"])
def test_env_seed_not_an_integer_fails_before_writing(command, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CSTJ_SIM_SEED", "abc")
    out = tmp_path / "out"
    assert cli.main(_argv(command, tmp_path, out)) == 2
    assert capsys.readouterr().err == "error: CSTJ_SIM_SEED must be an integer, got 'abc'\n"
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


@pytest.mark.parametrize("command", ["run", "preset"])
def test_unusable_out_fails_before_any_trial(command, tmp_path, capsys, monkeypatch):
    def no_trials(*args, **kwargs):
        raise AssertionError("trials ran before the output directory was made")

    monkeypatch.setattr(cli, "run_trials", no_trials)
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    out = blocker / "x"
    if command == "run":
        argv = ["run", "--config", str(_config_file(tmp_path)), "--out", str(out)]
    else:
        argv = ["preset", "figure3_compare", "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err


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


def test_run_accepts_a_config_with_a_byte_order_mark(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run_trials", lambda cfg, jobs: [])
    cfg = ScenarioConfig(n_agents=2, n_steps=2, n_trials=1, n_particles=20, seed=3)
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbf" + config.format_config(cfg).encode("utf-8"))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert config.parse_config(out / "config_resolved.txt") == cfg


def test_preset_writes_every_output(tmp_path, monkeypatch):
    def reduced(name, seed=0):
        return [
            (label, dataclasses.replace(cfg, n_trials=2, n_steps=2, n_particles=20))
            for label, cfg in config.preset(name, seed=seed)
        ]

    files = {
        "config_resolved": "config_resolved.txt", "manifest": "manifest.txt",
        "steps": "steps.csv", "summary": "summary.csv",
    }
    monkeypatch.setattr(cli, "preset", reduced)
    monkeypatch.delenv("CSTJ_SIM_SEED", raising=False)
    out = tmp_path / "out"
    assert cli.main(["preset", "figure3_compare", "--out", str(out), "--seed", "4"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["cstj", "ct", "manifest.txt"]
    for label, cfg in reduced("figure3_compare", seed=4):
        arm = out / label
        assert sorted(p.name for p in arm.iterdir()) == sorted(files.values())
        assert len((arm / "steps.csv").read_text().splitlines()) == 1 + cfg.n_trials * cfg.n_steps
        assert len((arm / "summary.csv").read_text().splitlines()) == 1 + cfg.n_steps
        resolved = config.parse_config(arm / "config_resolved.txt")
        assert config.config_values(resolved) == config.config_values(cfg)
        assert resolved.mode == label
        assert "manifest.seed = 4" in (arm / "manifest.txt").read_text()
    manifest = dict(line.split(" = ", 1) for line in (out / "manifest.txt").read_text().splitlines())
    assert manifest["manifest.seed"] == "4"
    assert manifest["manifest.preset"] == "figure3_compare"
    assert float(manifest["manifest.duration_s"]) >= 0.0
    for label in ("cstj", "ct"):
        for name, file in files.items():
            assert manifest[f"manifest.path.{label}.{name}"] == str(out / label / file)


def _key_values(path):
    return dict(line.split(" = ", 1) for line in path.read_text().splitlines())


@pytest.mark.parametrize(
    "flag, key, value",
    [
        ("--seed", "sim.seed", "9"),
        ("--trials", "sim.trials", "2"),
        ("--mode", "sim.mode", "ct"),
        ("--agents", "sim.agents", "2"),
        ("--steps", "sim.steps", "2"),
    ],
)
def test_each_run_flag_reaches_the_resolved_config(flag, key, value, tmp_path, monkeypatch):
    monkeypatch.delenv("CSTJ_SIM_SEED", raising=False)
    path = _config_file(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out), flag, value]) == 0
    # the flag sets its own key and leaves every other as the file has it
    expected = config.config_values(config.parse_config(path))
    assert expected[key] != value
    expected[key] = value
    assert _key_values(out / "config_resolved.txt") == expected


def test_unknown_mode_flag_fails_before_writing(tmp_path, capsys):
    # the config's own mode check refuses it, as for a mode in the file
    out = tmp_path / "out"
    argv = ["run", "--config", str(_config_file(tmp_path)), "--out", str(out), "--mode", "bogus"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: sim.mode: mode must be 'cstj' or 'ct', got 'bogus'\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value", [("motion.dt_s", "1e200"), ("sensing.rho_max_m", "1e308"), ("sensing.rho_max_m", "1e-320")]
)
def test_overflowing_scenario_value_fails_before_writing(key, value, tmp_path, capsys):
    # dt**2 overflows, or the clutter density is 0 or inf: the record refuses it, naming the key
    path = _config_file(tmp_path)
    lines = [line for line in path.read_text().splitlines() if not line.startswith(f"{key} ")]
    path.write_text("\n".join([*lines, f"{key} = {value}"]) + "\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key}: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "rows, named",
    [
        ("sim.steps = 3\nmotion.dt_s = 1e80", "motion.dt_s"),
        ("sim.steps = 50\nmotion.accel_var = 1e250,1e250,1e250", "motion.accel_var"),
        ("sim.steps = 3\nprior.sigma = 5,5,5,1e200,1e200,1e200", "prior.sigma"),
        ("sim.steps = 50\nmotion.dt_s = 1e153\nmotion.accel_var = 0,0,0", "motion.dt_s, motion.accel_var"),
    ],
)
def test_spread_past_the_float_range_fails_naming_the_keys_set(rows, named, tmp_path, capsys):
    # the drone's spread over the trial would square past the float range; only the keys the file set are named
    path = tmp_path / "scenario.cfg"
    path.write_text(f"sim.trials = 1\nsim.agents = 2\nfilter.particles = 50\n{rows}\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {named}: prior_sigma, motion.dt and motion.accel_var must ")
    assert not out.exists()


def test_run_help_lists_every_key_and_the_seed_priority(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["run", "--help"])
    assert exit_info.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split(None, 1) for line in lines]
    for key, note in config.KEY_DOCS.items():
        assert [key, note] in rows
    assert "seed priority: --seed flag, then the config file, then $CSTJ_SIM_SEED, then 0." in lines
    # a '#' after a value is part of the value
    assert "configuration keys (key = value per line, whole-line '#' comments):" in lines


# command, --seed, the config file's sim.seed, $CSTJ_SIM_SEED, the seed taken;
# None leaves that source out
SEED_CASES = [
    ("run", 11, 12, 13, 11),
    ("run", None, 12, 13, 12),
    ("run", None, None, 13, 13),
    ("run", None, None, None, 0),
    ("preset", 11, None, 13, 11),
    ("preset", None, None, 13, 13),
    ("preset", None, None, None, 0),
]


@pytest.mark.parametrize("command, flag, file, env, expected", SEED_CASES)
def test_seed_priority(command, flag, file, env, expected, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run_trials", lambda cfg, jobs: [])
    if env is None:
        monkeypatch.delenv("CSTJ_SIM_SEED", raising=False)
    else:
        monkeypatch.setenv("CSTJ_SIM_SEED", str(env))
    out = tmp_path / "out"
    if command == "run":
        path = _config_file(tmp_path)
        if file is not None:
            path.write_text(path.read_text() + f"sim.seed = {file}\n")
        argv = ["run", "--config", str(path), "--out", str(out)]
    else:
        argv = ["preset", "figure3_compare", "--out", str(out)]
    if flag is not None:
        argv += ["--seed", str(flag)]
    assert cli.main(argv) == 0
    manifests = sorted(out.rglob("manifest.txt"))
    assert len(manifests) == (1 if command == "run" else 3)
    for manifest in manifests:
        assert _key_values(manifest)["manifest.seed"] == str(expected)
