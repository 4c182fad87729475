"""Flat key=value configuration files, canonical defaults, and experiment presets.

One key per value and one canonical unit per key, with no exception:
metres, seconds, radians, and dB. Every key is written back in the one text
form it is read in, so an emitted config parses back to an equal one.

This module only parses: it turns text into values and builds the parameter
records from them. Each rule on a value lives in the record that holds it
(``ScenarioConfig``, ``MotionModel``, ``ActionGrid``, ``SensingParams``,
``AntennaParams``, ``RfParams``): its range, finiteness, count of values and
the leading ``off`` of the power levels. A record's ``ValueError`` message
starts with the fields it refuses, and the parser reports it under the keys
of those fields that the input set, or of all of them if it set none. The
parser's only rule is number syntax.
"""

from __future__ import annotations

import re

from .dynamics import ActionGrid, MotionModel
from .geometry_rf import AntennaParams, RfParams
from .sensing import SensingParams
from .sim import ScenarioConfig


class ConfigError(ValueError):
    """Invalid configuration file, key, or value."""


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"not a number: {text!r}") from None


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"not an integer: {text!r}") from None


def _parse_floats(text: str) -> list[float]:
    return [_parse_float(p.strip()) for p in text.split(",")]


def _parse_levels(text: str) -> tuple:
    """A leading ``off`` becomes None; ``RfParams`` refuses levels that lack it."""
    head, *rest = [p.strip() for p in text.split(",")]
    return (None if head.lower() == "off" else _parse_float(head), *map(_parse_float, rest))


def _fmt_float(value: float) -> str:
    return repr(float(value))


def _fmt_floats(values) -> str:
    return ",".join(_fmt_float(v) for v in values)


# (parse, format) pairs
_TEXT = (str, str)
_INT = (_parse_int, str)
_FLOAT = (_parse_float, _fmt_float)
_FLOATS = (_parse_floats, _fmt_floats)
_TARGET = (lambda text: _parse_floats(text) if text else None, lambda start: "" if start is None else _fmt_floats(start))
_LEVELS = (_parse_levels, lambda levels: ",".join(["off", *map(_fmt_float, levels[1:])]))

# the ScenarioConfig fields that hold a parameter record
_RECORDS = {
    "motion": MotionModel,
    "actions": ActionGrid,
    "sensing": SensingParams,
    "antenna": AntennaParams,
    "rf": RfParams,
}

# key -> (record, field, (parse, format), note), in the order of the emitted
# file and of --help. ``record`` names the entry of ``_RECORDS`` holding the
# field, None for ScenarioConfig itself.
_KEYS = {
    "sim.mode": (None, "mode", _TEXT, "cstj (interference-aware) or ct (tracking-only baseline)"),
    "sim.seed": (None, "seed", _INT, "master seed, nonnegative integer"),
    "sim.agents": (None, "n_agents", _INT, "number of pursuing UAVs, >= 1"),
    "sim.steps": (None, "n_steps", _INT, "steps per trial, >= 1"),
    "sim.trials": (None, "n_trials", _INT, "Monte-Carlo trials, >= 1"),
    "arena.min_m": (None, "arena_min", _FLOATS, "arena lower corner, metres (x,y,z)"),
    "arena.max_m": (None, "arena_max", _FLOATS, "arena upper corner, metres (x,y,z)"),
    "target.init_state": (None, "target_init", _TARGET, "fixed drone start (x,y,z,vx,vy,vz); empty = random per trial"),
    "prior.sigma": (None, "prior_sigma", _FLOATS, "initial-prior std devs (m,m,m,m/s,m/s,m/s)"),
    "spawn.radius_m": (None, "spawn_radius_m", _FLOAT, "agent spawn sphere radius around the drone, metres"),
    "motion.dt_s": ("motion", "dt", _FLOAT, "step length, seconds"),
    "motion.accel_var": ("motion", "accel_var", _FLOATS, "acceleration-noise variances, (m/s^2)^2 (x,y,z)"),
    "actions.radial_steps_m": ("actions", "radial_steps_m", _FLOATS, "move radii, metres"),
    "actions.n_phi": ("actions", "n_phi", _INT, "polar divisions of the move lattice, >= 1"),
    "actions.n_theta": ("actions", "n_theta", _INT, "azimuthal divisions of the move lattice, >= 1"),
    "sensing.p_d_max": ("sensing", "p_d_max", _FLOAT, "peak detection probability, [0, 1]"),
    "sensing.eta_per_m": ("sensing", "eta_per_m", _FLOAT, "detection decay per metre beyond r0, >= 0"),
    "sensing.r0_m": ("sensing", "r0_m", _FLOAT, "full-detection radius, metres"),
    "sensing.sigma_theta_rad": ("sensing", "sigma_theta_rad", _FLOAT, "azimuth noise std, radians"),
    "sensing.sigma_phi_rad": ("sensing", "sigma_phi_rad", _FLOAT, "inclination noise std, radians"),
    "sensing.sigma_rho0_m": ("sensing", "sigma_rho0_m", _FLOAT, "range noise std at zero range, metres"),
    "sensing.beta_rho": ("sensing", "beta_rho", _FLOAT, "range noise growth per metre, >= 0"),
    "sensing.lambda_c": ("sensing", "clutter_rate", _FLOAT, "mean false alarms per step, >= 0"),
    "sensing.rho_max_m": ("sensing", "rho_max_m", _FLOAT, "measurement-space range bound, metres"),
    "antenna.effective_range_m": ("antenna", "effective_range_m", _FLOAT, "cone height, metres"),
    "antenna.opening_angle_rad": ("antenna", "opening_angle_rad", _FLOAT, "cone opening angle, radians in (0, pi)"),
    "rf.near_field_loss_db": ("rf", "near_field_loss_db", _FLOAT, "near-field loss constant, dB"),
    "rf.path_loss_exponent": ("rf", "path_loss_exponent", _FLOAT, "log-distance exponent, > 0"),
    "rf.attenuation_db": ("rf", "attenuation_db", _FLOAT, "attenuation constant, dB"),
    "rf.power_levels_db": ("rf", "power_levels_db", _LEVELS, "'off' then strictly increasing transmit powers, dB"),
    "rf.interference_threshold_db": (
        "rf", "interference_threshold_db", _FLOAT, "critical teammate interference level, dB"
    ),
    "control.tracking_threshold": (
        None, "tracking_threshold", _FLOAT, "detection-probability floor for jamming moves, [0, 1]"
    ),
    "control.ct_power_db": (None, "ct_power_db", _FLOAT, "constant transmit power of the ct baseline, dB"),
    "filter.particles": (None, "n_particles", _INT, "particles per agent filter, >= 1"),
}

# one-line unit/meaning notes per key, surfaced through `cstj-sim run --help`
KEY_DOCS = {key: note for key, (*_, note) in _KEYS.items()}


def config_values(cfg: ScenarioConfig) -> dict[str, str]:
    """The canonical key -> string representation of a resolved config."""
    return {
        key: fmt(getattr(cfg if record is None else getattr(cfg, record), name))
        for key, (record, name, (_, fmt), _) in _KEYS.items()
    }


def format_config(cfg: ScenarioConfig) -> str:
    """Canonical text form; parses back to an identical resolved config."""
    lines = [f"{key} = {value}" for key, value in config_values(cfg).items()]
    return "\n".join(lines) + "\n"


def parse_config_text(text: str, overrides: dict | None = None, fallbacks: dict | None = None) -> ScenarioConfig:
    """Build a config from ``key = value`` lines, overrides and fallbacks.

    A key takes its value from ``overrides``, else from the text, else from
    ``fallbacks``, else from the ``ScenarioConfig`` defaults. Every key, from
    whichever source, is checked against ``_KEYS``; an unknown one is an error.
    """
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
    values = config_values(ScenarioConfig())
    for key, value in (fallbacks or {}).items():
        raw.setdefault(key, str(value))
    raw.update((key, str(value)) for key, value in (overrides or {}).items())
    unknown = sorted(set(raw) - set(_KEYS))
    if unknown:
        raise ConfigError("unknown configuration keys: " + ", ".join(unknown))
    values.update(raw)
    return _build(values, raw)


def parse_config(path, overrides: dict | None = None, fallbacks: dict | None = None) -> ScenarioConfig:
    """Parse a UTF-8 config file, byte order mark or not, with optional flag overrides and env fallbacks."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config file {str(path)!r}: {err.strerror}") from None
    except UnicodeDecodeError as err:
        raise ConfigError(f"config file {str(path)!r} is not UTF-8 text: {err.reason}") from None
    return parse_config_text(text, overrides=overrides, fallbacks=fallbacks)


def _build(values: dict[str, str], given) -> ScenarioConfig:
    """Parse each value, naming its key on a parse error, then build the records; ``given`` holds the keys set."""
    args: dict = {record: {} for record in (None, *_RECORDS)}
    for key, (record, name, (parse, _), _) in _KEYS.items():
        if key in values:
            try:
                args[record][name] = parse(values[key])
            except ValueError as err:  # ConfigError included
                raise ConfigError(f"{key}: {err}") from None
    for record, cls in _RECORDS.items():
        args[None][record] = _record(cls, args[record], record, given)
    return _record(ScenarioConfig, args[None], None, given)


def _record(cls, kwargs: dict, record: str | None, given):
    """``cls(**kwargs)``; a refusal names the keys of the fields it refuses, those in ``given`` if there are any.

    A record's ``ValueError`` message starts with the fields it refuses,
    followed by "must". ``ScenarioConfig`` names a field of one of its
    records by its path, such as ``motion.dt``.
    """
    try:
        return cls(**kwargs)
    except ValueError as err:
        paths = set(re.findall(r"[\w.]+", str(err).partition(" must")[0]))
        named = [key for key, (rec, name, *_) in _KEYS.items() if (name if rec == record else f"{rec}.{name}") in paths]
        raise ConfigError(f"{', '.join([key for key in named if key in given] or named)}: {err}") from None


# the rows of each preset arm, over the rows all arms share; rows equal to a
# default are pinned too, so that a change of default moves no preset
_PRESET_SHARED = {"sim.mode": "cstj", "sim.agents": 4, "sim.steps": 50, "sim.trials": 50, "control.ct_power_db": 7.0}
_PRESETS = {
    "figure3_compare": {mode: {"sim.mode": mode} for mode in ("cstj", "ct")},
    "figure4_sweep": {
        f"agents_{k:02d}": {"sim.agents": k, "actions.radial_steps_m": "1.0,3.0", "actions.n_phi": 2,
                            "actions.n_theta": 4, "rf.power_levels_db": "off,0,7,10"}
        for k in (2, 4, 6, 8, 10, 12)
    },
}
PRESET_NAMES = tuple(_PRESETS)


def preset(name: str, seed: int = 0) -> list[tuple[str, ScenarioConfig]]:
    """Named experiment bundles: (label, config) pairs sharing the master seed.

    figure3_compare pairs the interference-aware controller against the
    tracking-only baseline on identical scenarios; figure4_sweep varies the
    team size over {2, 4, 6, 8, 10, 12} with a reduced move/power grid. Each
    arm is exactly the config that a file of its rows, the shared rows and
    ``sim.seed`` gives.
    """
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset: {name}")
    shared = {**_PRESET_SHARED, "sim.seed": seed}
    return [(label, parse_config_text("", overrides={**shared, **rows})) for label, rows in _PRESETS[name].items()]
