import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstj_sim.config import ConfigError, config_values, format_config, parse_config_text
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
        motion=MotionModel(draw(positive), np.diag(draw(_vector(nonneg, 3)))),
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
    # the text carries every float exactly, not only as its own formatting
    assert (parsed.sensing, parsed.antenna, parsed.rf, parsed.actions) == (cfg.sensing, cfg.antenna, cfg.rf, cfg.actions)
    for name in ("arena_min", "arena_max", "prior_sigma"):
        assert np.array_equal(getattr(parsed, name), getattr(cfg, name))
    assert parsed.motion.dt == cfg.motion.dt
    assert np.array_equal(parsed.motion.accel_noise_cov, cfg.motion.accel_noise_cov)


@pytest.mark.parametrize(
    "text, key, lines",
    [
        ("sim.agents = 2\nsim.agents = 3\n", "sim.agents", (1, 2)),
        ("sim.agents=2\n\n# note\n  sim.agents = 2  \n", "sim.agents", (1, 4)),
        ("antenna.opening_angle_deg = 80\nsim.seed = 1\nantenna.opening_angle_deg = 60\n",
         "antenna.opening_angle_deg", (1, 3)),
    ],
)
def test_duplicate_key_is_an_error(text, key, lines):
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    message = str(err.value)
    assert key in message
    assert f"line {lines[1]}" in message and f"line {lines[0]}" in message
