"""Command-line front end: runs scenarios and writes CSV plot data.

Outputs per run directory: steps.csv (one row per trial and step),
summary.csv (per-step cross-trial means), config_resolved.txt (the exact
resolved configuration, re-parseable), and manifest.txt (version, seed,
output paths, wall-clock duration, and an inline config echo).

The summary.csv columns are the per-step means of ``sim.step_means``, which
says how each is taken; a mean that exists in no trial is left blank.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    KEY_DOCS,
    PRESET_NAMES,
    ConfigError,
    config_values,
    format_config,
    parse_config,
    preset,
)
from .sim import ScenarioConfig, StepLog, run_trials, step_means


def _fmt(value: float) -> str:
    return format(float(value), ".9g")


def _opt(value) -> str:
    return "" if value is None or np.isnan(value) else _fmt(value)


def emit_csv(logs_by_trial: list[list[StepLog]], out_dir) -> dict[str, Path]:
    """Write steps.csv and summary.csv; returns the written paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_agents = len(logs_by_trial[0][0].agents) if logs_by_trial and logs_by_trial[0] else 0

    header = [
        "trial", "step",
        "truth_x", "truth_y", "truth_z",
        "fused_x", "fused_y", "fused_z",
        "tracking_error_m", "target_power_db", "max_pair_interference_db",
    ]
    for j in range(n_agents):
        header += [f"agent{j}_power_index", f"agent{j}_fallback"]

    steps_path = out_dir / "steps.csv"
    with open(steps_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for trial, logs in enumerate(logs_by_trial):
            for log in logs:
                row = [
                    str(trial), str(log.step),
                    *(_fmt(v) for v in log.true_state.position),
                    *(_fmt(v) for v in log.fused.mean.position),
                    _fmt(log.tracking_error_m),
                    _opt(log.target_power_db),
                    _opt(log.max_interference_db),
                ]
                for agent in log.agents:
                    row += [str(agent.decision.power_index), agent.decision.fallback_used.value]
                writer.writerow(row)

    summary_path = out_dir / "summary.csv"
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["step", "mean_tracking_error_m", "mean_target_power_db", "mean_max_pair_interference_db"]
        )
        if logs_by_trial:
            for log, error, power, interference in zip(logs_by_trial[0], *step_means(logs_by_trial)):
                writer.writerow([str(log.step), _fmt(error), _opt(power), _opt(interference)])
    return {"steps": steps_path, "summary": summary_path}


def _write_manifest(out_dir: Path, cfg: ScenarioConfig, paths: dict[str, Path], duration_s: float) -> Path:
    manifest_path = out_dir / "manifest.txt"
    lines = [
        f"manifest.version = {__version__}",
        f"manifest.seed = {cfg.seed}",
        f"manifest.duration_s = {duration_s:.3f}",
    ]
    lines += [f"manifest.path.{name} = {path}" for name, path in sorted(paths.items())]
    lines += [f"config.{key} = {value}" for key, value in config_values(cfg).items()]
    manifest_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest_path


def _run_one(cfg: ScenarioConfig, out_dir: Path, jobs: int) -> dict[str, Path]:
    start = time.perf_counter()
    # an unusable output path fails here, before any trial runs
    out_dir.mkdir(parents=True, exist_ok=True)
    logs = run_trials(cfg, jobs=jobs)
    paths = emit_csv(logs, out_dir)
    resolved = out_dir / "config_resolved.txt"
    resolved.write_text(format_config(cfg), encoding="utf-8")
    paths["config_resolved"] = resolved
    paths["manifest"] = _write_manifest(out_dir, cfg, dict(paths), time.perf_counter() - start)
    return paths


def _config_epilog() -> str:
    lines = ["configuration keys (key = value per line, whole-line '#' comments):"]
    lines += [f"  {key:32s} {doc}" for key, doc in KEY_DOCS.items()]
    lines.append("seed priority: --seed flag, then the config file, then $CSTJ_SIM_SEED, then 0.")
    return "\n".join(lines)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


# run flag (argparse dest) -> the config key it overrides
_RUN_FLAGS = {"seed": "sim.seed", "trials": "sim.trials", "mode": "sim.mode", "agents": "sim.agents", "steps": "sim.steps"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cstj-sim",
        description="Cooperative tracking-and-jamming pursuit simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run",
        help="run one scenario from a config file",
        epilog=_config_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    run_p.add_argument("--config", required=True, help="flat key=value config file")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--seed", type=int, default=None, help="master seed override")
    run_p.add_argument("--trials", type=int, default=None, help="Monte-Carlo trial count override")
    run_p.add_argument("--mode", default=None, help="controller mode override: cstj or ct")
    run_p.add_argument("--agents", type=int, default=None, help="agent count override")
    run_p.add_argument("--steps", type=int, default=None, help="steps-per-trial override")
    run_p.add_argument("--jobs", type=_positive_int, default=1, help="parallel trial workers (output independent)")

    preset_p = sub.add_parser("preset", help="run a named experiment bundle")
    preset_p.add_argument("name", choices=PRESET_NAMES)
    preset_p.add_argument("--out", required=True, help="output directory")
    preset_p.add_argument("--seed", type=int, default=None, help="master seed (default 0 or $CSTJ_SIM_SEED)")
    preset_p.add_argument("--jobs", type=_positive_int, default=1, help="parallel trial workers (output independent)")
    return parser


def _env_seed() -> int | None:
    raw = os.environ.get("CSTJ_SIM_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"CSTJ_SIM_SEED must be an integer, got {raw!r}") from None


def cmd_run(args) -> int:
    overrides = {key: value for dest, key in _RUN_FLAGS.items() if (value := getattr(args, dest)) is not None}
    env_seed = _env_seed()
    fallbacks = {} if env_seed is None else {"sim.seed": env_seed}
    cfg = parse_config(args.config, overrides=overrides, fallbacks=fallbacks)
    _run_one(cfg, Path(args.out), args.jobs)
    return 0


def cmd_preset(args) -> int:
    env_seed = _env_seed()
    seed = args.seed if args.seed is not None else (env_seed if env_seed is not None else 0)
    configs = preset(args.name, seed=seed)
    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    lines = [f"manifest.version = {__version__}", f"manifest.seed = {seed}", f"manifest.preset = {args.name}"]
    for label, cfg in configs:
        paths = _run_one(cfg, out_root / label, args.jobs)
        lines += [f"manifest.path.{label}.{name} = {path}" for name, path in sorted(paths.items())]
    lines.append(f"manifest.duration_s = {time.perf_counter() - start:.3f}")
    (out_root / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        return cmd_preset(args)
    except (ConfigError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
