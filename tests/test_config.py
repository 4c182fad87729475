import dataclasses
import hashlib
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstj_sim.config import (
    _KEYS,
    KEY_DOCS,
    PRESET_NAMES,
    ConfigError,
    config_values,
    format_config,
    parse_config_text,
    preset,
)
from cstj_sim.dynamics import ActionGrid, MotionModel, TargetState
from cstj_sim.geometry_rf import AntennaParams, RfParams
from cstj_sim.sensing import SensingParams
from cstj_sim.sim import ScenarioConfig

real = st.floats(-1e6, 1e6)
nonneg = st.floats(0.0, 1e6)
positive = st.floats(1e-3, 1e6)
unit = st.floats(0.0, 1.0)


def _vector(elements, size):
    return st.lists(elements, min_size=size, max_size=size)


@st.composite
def valid_configs(draw):
    """Any config that ``parse_config_text`` accepts, drawn field by field."""
    arena_min = np.array(draw(_vector(real, 3)))
    on_levels = sorted(draw(st.lists(real, max_size=5, unique=True)))
    mode = draw(st.sampled_from(["cstj", "ct"] if on_levels else ["cstj"]))
    target = draw(st.none() | _vector(real, 6))
    return ScenarioConfig(
        mode=mode,
        seed=draw(st.integers(0, 2**63 - 1)),
        n_agents=draw(st.integers(1, 64)),
        n_steps=draw(st.integers(1, 10_000)),
        n_trials=draw(st.integers(1, 10_000)),
        arena_min=arena_min,
        arena_max=arena_min + np.array(draw(_vector(positive, 3))),
        target_init=None if target is None else TargetState.from_vector(target),
        prior_sigma=np.array(draw(_vector(nonneg, 6))),
        spawn_radius_m=draw(positive),
        motion=MotionModel(draw(positive), draw(_vector(nonneg, 3))),
        actions=ActionGrid(
            tuple(draw(st.lists(positive, min_size=1, max_size=4))),
            draw(st.integers(1, 8)),
            draw(st.integers(1, 8)),
        ),
        sensing=SensingParams(
            p_d_max=draw(unit),
            eta_per_m=draw(nonneg),
            r0_m=draw(nonneg),
            sigma_theta_rad=draw(positive),
            sigma_phi_rad=draw(positive),
            sigma_rho0_m=draw(positive),
            beta_rho=draw(nonneg),
            clutter_rate=draw(nonneg),
            rho_max_m=draw(positive),
        ),
        antenna=AntennaParams(
            effective_range_m=draw(positive),
            opening_angle_rad=draw(st.floats(0.0, math.pi, exclude_min=True, exclude_max=True)),
        ),
        rf=RfParams(
            near_field_loss_db=draw(real),
            path_loss_exponent=draw(positive),
            attenuation_db=draw(real),
            power_levels_db=(None, *on_levels),
            interference_threshold_db=draw(real),
        ),
        tracking_threshold=draw(unit),
        ct_power_db=draw(st.sampled_from(on_levels)) if mode == "ct" else draw(real),
        n_particles=draw(st.integers(1, 100_000)),
    )


@settings(max_examples=200)
@given(valid_configs())
def test_format_parse_round_trip(cfg):
    parsed = parse_config_text(format_config(cfg))
    assert config_values(parsed) == config_values(cfg)
    # the text carries every value exactly, not only as its own formatting
    assert parsed == cfg


def _workload_configs():
    """Each bench workload's config at two seeds, as the benchmark builds it."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.pop(0)
    return [(f"{name}-seed{seed}", w.config(seed)) for name, w in WORKLOADS.items() for seed in (3, 307)]


_EMITTED = [
    *((f"{name}-seed{seed}-{label}", cfg) for name in PRESET_NAMES for seed in (0, 7) for label, cfg in preset(name, seed)),
    *_workload_configs(),
]


@pytest.mark.parametrize("cfg", [cfg for _, cfg in _EMITTED], ids=[label for label, _ in _EMITTED])
def test_every_config_the_repo_runs_echoes_exactly(cfg):
    # presets and bench workloads echo their config in runs; the echo must rebuild the same config
    assert parse_config_text(format_config(cfg)) == cfg


@pytest.mark.parametrize(
    "text, key, lines",
    [
        ("sim.agents = 2\nsim.agents = 3\n", "sim.agents", (1, 2)),
        ("sim.agents=2\n\n# note\n  sim.agents = 2  \n", "sim.agents", (1, 4)),
        ("antenna.opening_angle_rad = 1.2\nsim.seed = 1\nantenna.opening_angle_rad = 1.0\n",
         "antenna.opening_angle_rad", (1, 3)),
    ],
)
def test_duplicate_key_is_an_error(text, key, lines):
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    message = str(err.value)
    assert key in message
    assert f"line {lines[1]}" in message and f"line {lines[0]}" in message


# malformed values per key: not a number, not finite, the wrong count or out
# of range, whichever applies; a leading "text | " sets other keys first
BAD_VALUES = {
    "sim.mode": ["fast", ""],
    "sim.seed": ["x", "1.5", "-1"],
    "sim.agents": ["x", "0"],
    "sim.steps": ["x", "0"],
    "sim.trials": ["x", "-2"],
    "arena.min_m": ["0,0", "0,,0,0", "0,0,x", "0,0,inf", "200,0,0"],
    "arena.max_m": ["1,1", "nan,1,1", "-5,100,100"],
    "target.init_state": ["1,2,3", "1,2,3,4,5,x", "1,2,3,4,5,inf"],
    "prior.sigma": ["1,1,1,1,1", "x,1,1,1,1,1", "1,1,1,1,1,-1"],
    "spawn.radius_m": ["x", "inf", "0"],
    "motion.dt_s": ["x", "nan", "0", "-1"],
    "motion.accel_var": ["1,1", "1,1,x", "1,1,-1"],
    "actions.radial_steps_m": ["", "1,,2", "1,x", "1,0", "1,-3"],
    "actions.n_phi": ["x", "1.5", "0"],
    "actions.n_theta": ["x", "0"],
    "sensing.p_d_max": ["x", "nan", "1.5", "-0.1"],
    "sensing.eta_per_m": ["x", "-1"],
    "sensing.r0_m": ["x", "-1"],
    "sensing.sigma_theta_rad": ["x", "0"],
    "sensing.sigma_phi_rad": ["x", "-1"],
    "sensing.sigma_rho0_m": ["x", "0"],
    "sensing.beta_rho": ["x", "-0.1"],
    "sensing.lambda_c": ["x", "inf", "-1"],
    "sensing.rho_max_m": ["x", "0"],
    "antenna.effective_range_m": ["x", "0"],
    "antenna.opening_angle_rad": ["x", "0", "3.2"],
    "rf.near_field_loss_db": ["x", "inf"],
    "rf.path_loss_exponent": ["x", "0"],
    "rf.attenuation_db": ["x", "nan"],
    "rf.power_levels_db": ["10,20", "off,,10", "off,x", "off,10,0", "off,5,5"],
    "rf.interference_threshold_db": ["x", "-inf"],
    "control.tracking_threshold": ["x", "1.5", "-0.5"],
    "control.ct_power_db": ["x", "sim.mode = ct | 3"],
    "filter.particles": ["x", "0"],
}


def test_bad_values_cover_every_key():
    assert set(BAD_VALUES) == set(KEY_DOCS)


@pytest.mark.parametrize(
    "key, value", [(key, value) for key, values in BAD_VALUES.items() for value in values]
)
def test_malformed_value_is_an_error_naming_its_key(key, value):
    setup, _, value = value.rpartition(" | ")
    with pytest.raises(ConfigError) as err:
        parse_config_text(f"{setup}\n{key} = {value}\n")
    assert key in str(err.value)


def test_unknown_mode_is_rejected_outside_the_parser():
    # a mode the parser would refuse must not run as cstj when built in code
    with pytest.raises(ValueError, match="mode"):
        dataclasses.replace(ScenarioConfig(), mode="CT")


_DEFAULTS = ScenarioConfig()
# every float field of a record gets a NaN and an inf case, so a new one is covered
_RECORDS = (_DEFAULTS, _DEFAULTS.motion, _DEFAULTS.sensing, _DEFAULTS.antenna, _DEFAULTS.rf)
_NON_FINITE = [
    *(
        (record, f.name, value)
        for value in (math.nan, math.inf)
        for record in _RECORDS
        for f in dataclasses.fields(record)
        if f.type in ("float", float)
    ),
    (_DEFAULTS.motion, "accel_var", (2.0, math.inf, 2.0)),
    (_DEFAULTS, "prior_sigma", (math.inf,) * 6),
    (_DEFAULTS.rf, "power_levels_db", (None, -10.0, math.nan, 7.0)),
    (_DEFAULTS.rf, "power_levels_db", (None, -10.0, math.inf)),
    (_DEFAULTS.actions, "radial_steps_m", (1.0, math.nan)),
    (_DEFAULTS.actions, "radial_steps_m", (1.0, math.inf)),
]


@pytest.mark.parametrize(
    "record, field, value",
    _NON_FINITE,
    ids=[f"{type(record).__name__}.{field}={value}" for record, field, value in _NON_FINITE],
)
def test_parameter_records_reject_nan_and_inf(record, field, value):
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(record, **{field: value})


def test_records_compare_by_value():
    # == between equal configs is a bool, not an elementwise array comparison
    init = TargetState.from_vector([40.0, 40.0, 40.0, 1.0, 0.0, 0.0])
    assert ScenarioConfig() == ScenarioConfig()
    assert ScenarioConfig(target_init=init) == ScenarioConfig(target_init=TargetState.from_vector(init.as_vector()))
    assert ScenarioConfig(target_init=init) != ScenarioConfig()
    assert dataclasses.replace(_DEFAULTS, seed=1) != _DEFAULTS
    assert dataclasses.replace(_DEFAULTS, arena_max=[100.0, 100.0, 99.0]) != _DEFAULTS
    assert parse_config_text(format_config(_DEFAULTS)) == _DEFAULTS
    motion = MotionModel(1.0, [2.0, 2.0, 2.0])
    assert motion == _DEFAULTS.motion and hash(motion) == hash(_DEFAULTS.motion)
    assert dataclasses.replace(motion, dt=0.5) != motion


_CT = dataclasses.replace(_DEFAULTS, mode="ct")
_OUT_OF_RANGE = [
    (_DEFAULTS, "tracking_threshold", math.nan),
    (_DEFAULTS, "tracking_threshold", 1.5),
    (_DEFAULTS, "spawn_radius_m", -5.0),
    (_DEFAULTS, "n_steps", 0),
    (_DEFAULTS, "n_agents", 0),
    (_DEFAULTS, "n_trials", 0),
    (_DEFAULTS, "n_particles", 0),
    (_DEFAULTS, "seed", -1),
    (_DEFAULTS, "arena_max", [0.0, 0.0, 0.0]),
    (_DEFAULTS, "arena_min", [0.0, 0.0, -math.inf]),
    (_DEFAULTS, "prior_sigma", [5.0, 5.0, 5.0, 1.0, 1.0, -1.0]),
    (_CT, "ct_power_db", 3.0),
    (_DEFAULTS.motion, "accel_var", (1.0, 1.0, -1e-10)),
    # the drone's start is a TargetState, not its bare vector
    (_DEFAULTS, "target_init", (50.0, 50.0, 50.0, 0.0, 0.0, 0.0)),
    # counts are integers, not floats or bools, so that their echo parses back
    (_DEFAULTS, "seed", 1.5),
    (_DEFAULTS, "n_agents", 2.5),
    (_DEFAULTS, "n_steps", 4.0),
    (_DEFAULTS, "n_trials", True),
    (_DEFAULTS, "n_particles", True),
    (_DEFAULTS.actions, "n_phi", 2.0),
    (_DEFAULTS.actions, "n_theta", True),
]


@pytest.mark.parametrize(
    "record, field, value",
    _OUT_OF_RANGE,
    ids=[f"{type(record).__name__}.{field}={value}" for record, field, value in _OUT_OF_RANGE],
)
def test_records_built_in_code_refuse_out_of_range_values(record, field, value):
    # the records hold every range rule, so code that skips the parser is held to them too
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(record, **{field: value})


def test_key_table_maps_once_to_every_field():
    # a field without a key would be silently dropped from every emitted config
    expected = []
    for f in dataclasses.fields(ScenarioConfig):
        value = getattr(_DEFAULTS, f.name)
        if dataclasses.is_dataclass(value):
            expected += [(f.name, g.name) for g in dataclasses.fields(value) if g.init]
        else:
            expected.append((None, f.name))
    assert Counter((record, name) for record, name, _, _ in _KEYS.values()) == Counter(expected)
    # every key is written back, so none is input-only
    assert all(fmt is not None for _, _, (_, fmt), _ in _KEYS.values())


@pytest.mark.parametrize(
    "accel_var",
    [np.diag([2.0, 2.0, 2.0]), ((2.0, 0.5, 0.0), (0.5, 2.0, 0.0), (0.0, 0.0, 2.0)), (2.0, 2.0), (2.0,) * 4],
    ids=["diag_matrix", "full_matrix", "two", "four"],
)
def test_motion_model_takes_exactly_three_variances(accel_var):
    # the noise is independent per axis; a covariance matrix is not a form of the key
    with pytest.raises(ValueError, match="accel_var"):
        MotionModel(1.0, accel_var)


@pytest.mark.parametrize("source", ["text", "overrides", "fallbacks"])
def test_unknown_key_is_an_error_from_every_source(source):
    # a misspelt key must fail, not leave its field at the default without a word
    with pytest.raises(ConfigError, match=r"unknown configuration keys: sim\.agent$"):
        if source == "text":
            parse_config_text("sim.agent = 3\n")
        else:
            parse_config_text("", **{source: {"sim.agent": 3}})


# sha256 of format_config for every preset arm at seeds 0 and 7. A change of
# a default or of the parser must not move a preset.
PRESET_SHA256 = {
    ("figure3_compare", 0): {
        "cstj": "2b6ab65620c59a6104d966d029f8e5e2d37fdf2659ba54347e56ce8743e96031",
        "ct": "6d2a5673ae936f56316932aba0d95e187eb90108a66abde386ab02a8f56dda6f",
    },
    ("figure3_compare", 7): {
        "cstj": "173686725105423e5556ad2f1b7a6a4e6db4f32e6f647fe8e32059a35aee67b4",
        "ct": "e3dff8ec1b8897393a4bb5babee8e633870c2ab324fe3e088562fff35562d0cd",
    },
    ("figure4_sweep", 0): {
        "agents_02": "f6ba102bc04279ba301fd14bdd639f5ed85110f0f1446504960ba923507736f7",
        "agents_04": "99f98723ad41081d66909a8e2b0b056e0322ea7a76e44f03122329b14ad89c5a",
        "agents_06": "8c4634a9e779becc6526301a7d17878602ee2e27d517d5e9d8e1e16ba7d506e0",
        "agents_08": "06bdd1aa4833e2e52284cdd921878ca5b078c73f44ae37ae335c3139a50b67d4",
        "agents_10": "d3ae25274dc1354f9dd8729f563376a3d967233ee621deb9f08e607d334272f4",
        "agents_12": "d3d10a3f72d0fff645fe601a35dde8713e74cdf8875e6922034faa1b8866417c",
    },
    ("figure4_sweep", 7): {
        "agents_02": "f4dcb49b4b42b8ebb78397b766b95c2ed186b661816d164455a57057d180d08e",
        "agents_04": "bbf376af8871bec1c6c412ed92515faee4bd8e898d917fc0a789912c6ba9c440",
        "agents_06": "2a60afc0b23c9e72655ed8b83796690ee88230b20ecea54f84904db45e0e11b8",
        "agents_08": "f029b388661b95968c3fe342f2aca9b52ee61f14fe8782d2f9fbf5a8460b308d",
        "agents_10": "2d12f7904b5f12dafd32e8ac59bb110a27dec15c5ab9c0c2812f94c969204ed0",
        "agents_12": "d3a23d233493c7eae10a4ee36420beb13d244b5d6bbb1717d692f365b449f74f",
    },
}


@pytest.mark.parametrize("name, seed", sorted(PRESET_SHA256))
def test_preset_arms_are_pinned(name, seed):
    arms = preset(name, seed=seed)
    digests = {label: hashlib.sha256(format_config(cfg).encode()).hexdigest() for label, cfg in arms}
    # the labels come in their documented order
    assert list(digests) == list(PRESET_SHA256[name, seed])
    assert digests == PRESET_SHA256[name, seed]


def test_every_preset_is_pinned_and_an_unknown_one_is_an_error():
    assert {name for name, _ in PRESET_SHA256} == set(PRESET_NAMES)
    with pytest.raises(ConfigError, match="unknown preset: figure5"):
        preset("figure5")
