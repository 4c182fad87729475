"""Flat key=value configuration files, canonical defaults, and experiment presets.

One canonical unit per key: metres, seconds, radians, and dB. The antenna
opening angle is additionally accepted in degrees under an input-only alias
key and converted at parse time.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .dynamics import ActionGrid, MotionModel, TargetState
from .geometry_rf import AntennaParams, RfParams
from .sensing import SensingParams
from .sim import ScenarioConfig


class ConfigError(ValueError):
    """Invalid configuration file, key, or value."""


def default_config() -> ScenarioConfig:
    return ScenarioConfig()


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"value must be finite: {text!r}")
    return value


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"not an integer: {text!r}") from None


def _parse_floats(text: str, expect: int | None = None) -> list[float]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if expect is not None and len(parts) != expect:
        raise ConfigError(f"expected {expect} comma-separated values, got {len(parts)}")
    return [_parse_float(p) for p in parts]


def _parse_levels(text: str) -> tuple:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts or parts[0].lower() != "off":
        raise ConfigError("power levels must start with 'off'")
    return (None, *[_parse_float(p) for p in parts[1:]])


def _fmt_float(value: float) -> str:
    return repr(float(value))


def _fmt_floats(values) -> str:
    return ",".join(_fmt_float(v) for v in values)


def config_values(cfg: ScenarioConfig) -> dict[str, str]:
    """The canonical key -> string representation of a resolved config."""
    return {
        "sim.mode": cfg.mode,
        "sim.seed": str(cfg.seed),
        "sim.agents": str(cfg.n_agents),
        "sim.steps": str(cfg.n_steps),
        "sim.trials": str(cfg.n_trials),
        "arena.min_m": _fmt_floats(cfg.arena_min),
        "arena.max_m": _fmt_floats(cfg.arena_max),
        "target.init_state": "" if cfg.target_init is None else _fmt_floats(cfg.target_init.as_vector()),
        "prior.sigma": _fmt_floats(cfg.prior_sigma),
        "spawn.radius_m": _fmt_float(cfg.spawn_radius_m),
        "motion.dt_s": _fmt_float(cfg.motion.dt),
        "motion.accel_var": _fmt_floats(np.diag(cfg.motion.accel_noise_cov)),
        "actions.radial_steps_m": _fmt_floats(cfg.actions.radial_steps_m),
        "actions.n_phi": str(cfg.actions.n_phi),
        "actions.n_theta": str(cfg.actions.n_theta),
        "sensing.p_d_max": _fmt_float(cfg.sensing.p_d_max),
        "sensing.eta_per_m": _fmt_float(cfg.sensing.eta_per_m),
        "sensing.r0_m": _fmt_float(cfg.sensing.r0_m),
        "sensing.sigma_theta_rad": _fmt_float(cfg.sensing.sigma_theta_rad),
        "sensing.sigma_phi_rad": _fmt_float(cfg.sensing.sigma_phi_rad),
        "sensing.sigma_rho0_m": _fmt_float(cfg.sensing.sigma_rho0_m),
        "sensing.beta_rho": _fmt_float(cfg.sensing.beta_rho),
        "sensing.lambda_c": _fmt_float(cfg.sensing.clutter_rate),
        "sensing.rho_max_m": _fmt_float(cfg.sensing.rho_max_m),
        "antenna.effective_range_m": _fmt_float(cfg.antenna.effective_range_m),
        "antenna.opening_angle_rad": _fmt_float(cfg.antenna.opening_angle_rad),
        "rf.near_field_loss_db": _fmt_float(cfg.rf.near_field_loss_db),
        "rf.path_loss_exponent": _fmt_float(cfg.rf.path_loss_exponent),
        "rf.attenuation_db": _fmt_float(cfg.rf.attenuation_db),
        "rf.power_levels_db": "off," + _fmt_floats(cfg.rf.power_levels_db[1:]),
        "rf.interference_threshold_db": _fmt_float(cfg.rf.interference_threshold_db),
        "control.tracking_threshold": _fmt_float(cfg.tracking_threshold),
        "control.ct_power_db": _fmt_float(cfg.ct_power_db),
        "filter.particles": str(cfg.n_particles),
    }


# degrees are accepted as an input alias for the opening angle; the resolved
# echo always carries radians so that emitted configs re-parse bit-exactly
_DEG_ALIAS = "antenna.opening_angle_deg"
CONFIG_KEYS = tuple(config_values(default_config()).keys()) + (_DEG_ALIAS,)

# one-line unit/meaning notes per key, surfaced through --help and the README
KEY_DOCS = {
    "sim.mode": "cstj (interference-aware) or ct (tracking-only baseline)",
    "sim.seed": "master seed, nonnegative integer",
    "sim.agents": "number of pursuing UAVs, >= 1",
    "sim.steps": "steps per trial, >= 1",
    "sim.trials": "Monte-Carlo trials, >= 1",
    "arena.min_m": "arena lower corner, metres (x,y,z)",
    "arena.max_m": "arena upper corner, metres (x,y,z)",
    "target.init_state": "fixed drone start (x,y,z,vx,vy,vz); empty = random per trial",
    "prior.sigma": "initial-prior std devs (m,m,m,m/s,m/s,m/s)",
    "spawn.radius_m": "agent spawn sphere radius around the drone, metres",
    "motion.dt_s": "step length, seconds",
    "motion.accel_var": "acceleration-noise variances, (m/s^2)^2 (diagonal)",
    "actions.radial_steps_m": "move radii, metres",
    "actions.n_phi": "polar divisions of the move lattice, >= 1",
    "actions.n_theta": "azimuthal divisions of the move lattice, >= 1",
    "sensing.p_d_max": "peak detection probability, [0, 1]",
    "sensing.eta_per_m": "detection decay per metre beyond r0, >= 0",
    "sensing.r0_m": "full-detection radius, metres",
    "sensing.sigma_theta_rad": "azimuth noise std, radians",
    "sensing.sigma_phi_rad": "inclination noise std, radians",
    "sensing.sigma_rho0_m": "range noise std at zero range, metres",
    "sensing.beta_rho": "range noise growth per metre, >= 0",
    "sensing.lambda_c": "mean false alarms per step, >= 0",
    "sensing.rho_max_m": "measurement-space range bound, metres",
    "antenna.effective_range_m": "cone height, metres",
    "antenna.opening_angle_rad": "cone opening angle, radians in (0, pi)",
    "antenna.opening_angle_deg": "input alias for the opening angle, degrees in (0, 180)",
    "rf.near_field_loss_db": "near-field loss constant, dB",
    "rf.path_loss_exponent": "log-distance exponent, > 0",
    "rf.attenuation_db": "attenuation constant, dB",
    "rf.power_levels_db": "'off' then strictly increasing transmit powers, dB",
    "rf.interference_threshold_db": "critical teammate interference level, dB",
    "control.tracking_threshold": "detection-probability floor for jamming moves, [0, 1]",
    "control.ct_power_db": "constant transmit power of the ct baseline, dB",
    "filter.particles": "particles per agent filter, >= 1",
}


def format_config(cfg: ScenarioConfig) -> str:
    """Canonical text form; parses back to an identical resolved config."""
    lines = [f"{key} = {value}" for key, value in config_values(cfg).items()]
    return "\n".join(lines) + "\n"


def parse_config_text(text: str, overrides: dict | None = None, fallbacks: dict | None = None) -> ScenarioConfig:
    raw: dict[str, str] = {}
    key_lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in key_lines:
            raise ConfigError(f"line {lineno}: duplicate key {key} (first set on line {key_lines[key]})")
        key_lines[key] = lineno
        raw[key] = value.strip()
    unknown = sorted(set(raw) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError("unknown configuration keys: " + ", ".join(unknown))
    if _DEG_ALIAS in raw:
        if "antenna.opening_angle_rad" in raw:
            raise ConfigError("antenna opening angle given in both degrees and radians")
        degrees = _checked(_DEG_ALIAS, lambda: _parse_float(raw[_DEG_ALIAS]))
        raw["antenna.opening_angle_rad"] = repr(math.radians(degrees))
        del raw[_DEG_ALIAS]
    if fallbacks:
        for key, value in fallbacks.items():
            raw.setdefault(key, str(value))
    if overrides:
        for key, value in overrides.items():
            raw[key] = str(value)
    values = config_values(default_config())
    values.update(raw)
    return _build(values)


def parse_config(path, overrides: dict | None = None, fallbacks: dict | None = None) -> ScenarioConfig:
    """Parse a config file with optional flag overrides and env fallbacks."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config file {str(path)!r}: {err.strerror}") from None
    except UnicodeDecodeError as err:
        raise ConfigError(f"config file {str(path)!r} is not UTF-8 text: {err.reason}") from None
    return parse_config_text(text, overrides=overrides, fallbacks=fallbacks)


def _checked(key: str, build):
    try:
        return build()
    except ConfigError as err:
        raise ConfigError(f"{key}: {err}") from None
    except ValueError as err:
        raise ConfigError(f"{key}: {err}") from None


def _build(values: dict[str, str]) -> ScenarioConfig:
    mode = values["sim.mode"]
    if mode not in ("cstj", "ct"):
        raise ConfigError("sim.mode: must be 'cstj' or 'ct'")
    seed = _checked("sim.seed", lambda: _parse_int(values["sim.seed"]))
    if seed < 0:
        raise ConfigError("sim.seed: must be >= 0")
    n_agents = _checked("sim.agents", lambda: _parse_int(values["sim.agents"]))
    if n_agents < 1:
        raise ConfigError("sim.agents: must be >= 1")
    n_steps = _checked("sim.steps", lambda: _parse_int(values["sim.steps"]))
    if n_steps < 1:
        raise ConfigError("sim.steps: must be >= 1")
    n_trials = _checked("sim.trials", lambda: _parse_int(values["sim.trials"]))
    if n_trials < 1:
        raise ConfigError("sim.trials: must be >= 1")

    arena_min = np.array(_checked("arena.min_m", lambda: _parse_floats(values["arena.min_m"], 3)))
    arena_max = np.array(_checked("arena.max_m", lambda: _parse_floats(values["arena.max_m"], 3)))
    if not np.all(arena_max > arena_min):
        raise ConfigError("arena.max_m: arena must have positive extent on every axis")

    init_text = values["target.init_state"]
    target_init = None
    if init_text:
        target_init = _checked(
            "target.init_state", lambda: TargetState.from_vector(_parse_floats(init_text, 6))
        )

    prior_sigma = np.array(_checked("prior.sigma", lambda: _parse_floats(values["prior.sigma"], 6)))
    if np.any(prior_sigma < 0):
        raise ConfigError("prior.sigma: std devs must be >= 0")

    spawn_radius = _checked("spawn.radius_m", lambda: _parse_float(values["spawn.radius_m"]))
    if not spawn_radius > 0:
        raise ConfigError("spawn.radius_m: must be > 0")

    motion = _checked(
        "motion.*",
        lambda: MotionModel(
            _parse_float(values["motion.dt_s"]),
            np.diag(_parse_floats(values["motion.accel_var"], 3)),
        ),
    )
    actions = _checked(
        "actions.*",
        lambda: ActionGrid(
            tuple(_parse_floats(values["actions.radial_steps_m"])),
            _parse_int(values["actions.n_phi"]),
            _parse_int(values["actions.n_theta"]),
        ),
    )
    sensing = _checked(
        "sensing.*",
        lambda: SensingParams(
            p_d_max=_parse_float(values["sensing.p_d_max"]),
            eta_per_m=_parse_float(values["sensing.eta_per_m"]),
            r0_m=_parse_float(values["sensing.r0_m"]),
            sigma_theta_rad=_parse_float(values["sensing.sigma_theta_rad"]),
            sigma_phi_rad=_parse_float(values["sensing.sigma_phi_rad"]),
            sigma_rho0_m=_parse_float(values["sensing.sigma_rho0_m"]),
            beta_rho=_parse_float(values["sensing.beta_rho"]),
            clutter_rate=_parse_float(values["sensing.lambda_c"]),
            rho_max_m=_parse_float(values["sensing.rho_max_m"]),
        ),
    )
    antenna = _checked(
        "antenna.*",
        lambda: AntennaParams(
            effective_range_m=_parse_float(values["antenna.effective_range_m"]),
            opening_angle_rad=_parse_float(values["antenna.opening_angle_rad"]),
        ),
    )
    rf = _checked(
        "rf.*",
        lambda: RfParams(
            near_field_loss_db=_parse_float(values["rf.near_field_loss_db"]),
            path_loss_exponent=_parse_float(values["rf.path_loss_exponent"]),
            attenuation_db=_parse_float(values["rf.attenuation_db"]),
            power_levels_db=_parse_levels(values["rf.power_levels_db"]),
            interference_threshold_db=_parse_float(values["rf.interference_threshold_db"]),
        ),
    )

    threshold = _checked("control.tracking_threshold", lambda: _parse_float(values["control.tracking_threshold"]))
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError("control.tracking_threshold: must lie in [0, 1]")
    ct_power = _checked("control.ct_power_db", lambda: _parse_float(values["control.ct_power_db"]))
    if mode == "ct" and ct_power not in [l for l in rf.power_levels_db if l is not None]:
        raise ConfigError("control.ct_power_db: must be one of the configured transmit levels")
    particles = _checked("filter.particles", lambda: _parse_int(values["filter.particles"]))
    if particles < 1:
        raise ConfigError("filter.particles: must be >= 1")

    return ScenarioConfig(
        mode=mode,
        seed=seed,
        n_agents=n_agents,
        n_steps=n_steps,
        n_trials=n_trials,
        arena_min=arena_min,
        arena_max=arena_max,
        target_init=target_init,
        prior_sigma=prior_sigma,
        spawn_radius_m=spawn_radius,
        motion=motion,
        actions=actions,
        sensing=sensing,
        antenna=antenna,
        rf=rf,
        tracking_threshold=threshold,
        ct_power_db=ct_power,
        n_particles=particles,
    )


PRESET_NAMES = ("figure3_compare", "figure4_sweep")


def preset(name: str, seed: int = 0) -> list[tuple[str, ScenarioConfig]]:
    """Named experiment bundles: (label, config) pairs sharing the master seed.

    figure3_compare pairs the interference-aware controller against the
    tracking-only baseline on identical scenarios; figure4_sweep varies the
    team size over {2, 4, 6, 8, 10, 12} with a reduced move/power grid.
    """
    if seed < 0:
        raise ConfigError("sim.seed: must be >= 0")
    base = default_config()
    if name == "figure3_compare":
        shared = replace(base, n_agents=4, n_steps=50, n_trials=50, seed=seed, ct_power_db=7.0)
        return [("cstj", replace(shared, mode="cstj")), ("ct", replace(shared, mode="ct"))]
    if name == "figure4_sweep":
        shared = replace(
            base,
            mode="cstj",
            n_steps=50,
            n_trials=50,
            seed=seed,
            actions=ActionGrid((1.0, 3.0), 2, 4),
            rf=replace(base.rf, power_levels_db=(None, 0.0, 7.0, 10.0)),
        )
        return [(f"agents_{k:02d}", replace(shared, n_agents=k)) for k in (2, 4, 6, 8, 10, 12)]
    raise ConfigError(f"unknown preset: {name}")
