"""cstj-sim benchmark: seeded workloads, a correctness gate, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload fig3_cstj --seed 1 --seconds 30 --trace 0

``--trace 0`` measures untraced and reports the end-to-end metrics named in
``BENCHMARK.json``:

- ``trial_ref``: median over trials of the trial's wall time divided by the
  wall time of ``reference_work`` run just before and after it. On a shared
  2-core virtual machine, host seconds per trial drifted by 10-50 % within
  minutes; the ratio cancels most of that drift, so it is the gated speed
  metric. Host seconds per trial are kept in the record, ungated.
- ``agent_steps_per_ref``: agents x steps x trials over the summed trial
  times in the same reference units (a mean, where ``trial_ref`` is a median).
- ``peak_rss_mb``: peak resident memory of the benchmark process.
- ``setup_s``: median wall time of fresh interpreters that import the
  simulator, build the workload config and warm its caches.

``--trace 1`` runs each trial once untraced and once with every layer
boundary wrapped (see ``tracing.py``), and reports the per-layer metrics. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record (gate,
quartiles, error-vs-step series, environment) is written to
``.bench_out/result_<workload>_seed<seed>_trace<t>.json``, the spans of a
traced run to ``.bench_out/spans_<workload>.jsonl.gz``.

Exit codes: 0 when the gate passes, 1 when it fails (after printing the
result), 2 when the simulator sources are not in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 7

# Child process timed by ``setup_s``: a fresh interpreter imports the
# simulator, builds the workload config and warms the move-grid cache.
_SETUP_PROBE = """
import sys
src, bench, name, seed = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
sys.path[:0] = [src, bench]
import workloads
from cstj_sim import dynamics
cfg = workloads.WORKLOADS[name].config(seed)
dynamics.enumerate_actions(dynamics.AgentState(0, cfg.arena_min), cfg.actions)
"""


def _import_program():
    """Import the simulator from this checkout's sources, or exit with code 2."""
    if not (SRC / "cstj_sim" / "__init__.py").is_file():
        print(f"error: simulator sources not found at {SRC / 'cstj_sim'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import cstj_sim

    if SRC.resolve() not in Path(cstj_sim.__file__).resolve().parents:
        print(f"error: cstj_sim was imported from {cstj_sim.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


_import_program()

import numpy as np  # noqa: E402

from cstj_sim import cli, config, sim  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# ---------------------------------------------------------------- gate


def trial_digest(logs) -> str:
    """SHA-256 over every value a trial logs, floats by their exact bits."""
    h = hashlib.sha256()

    def arrays(*values):
        for value in values:
            h.update(np.ascontiguousarray(value, dtype=float).tobytes())

    for log in logs:
        arrays(log.true_state.as_vector(), log.fused.mean.as_vector(), log.fused.covariance, log.pair_interference_db)
        h.update(
            repr(
                (log.step, log.tracking_error_m, log.target_power_db, log.max_interference_db,
                 log.any_fallback, log.violation)
            ).encode()
        )
        for agent in log.agents:
            d = agent.decision
            arrays(agent.estimate.mean.as_vector(), agent.estimate.covariance, d.chosen_position, d.aim_point)
            h.update(
                repr(
                    (agent.agent_id, d.power_index, d.objective_value_db, d.fallback_used.value,
                     agent.n_measurements, agent.interference_db, agent.uninformative_update)
                ).encode()
            )
    return h.hexdigest()


def _finite(*values) -> bool:
    return all(bool(np.isfinite(np.asarray(v, dtype=float)).all()) for v in values)


def check_trial(logs, cfg) -> str | None:
    """A description of the first problem in a trial's logs, or None.

    Every logged estimate and metric must be finite (pair interference may be
    NaN, meaning no coverage), the tracking error must be the fused-to-true
    distance, and in cstj mode a violation must come with a fallback.
    """
    if len(logs) != cfg.n_steps:
        return f"{len(logs)} steps logged, {cfg.n_steps} configured"
    for log in logs:
        where = f"step {log.step}"
        optional = [v for v in (log.target_power_db, log.max_interference_db) if v is not None]
        agent_values = [v for a in log.agents for v in (a.estimate.mean.as_vector(), a.estimate.covariance)]
        agent_optional = [a.interference_db for a in log.agents if a.interference_db is not None]
        if not _finite(log.fused.mean.as_vector(), log.fused.covariance, log.tracking_error_m,
                       *optional, *agent_values, *agent_optional):
            return f"{where}: non-finite estimate or metric"
        if np.isinf(log.pair_interference_db).any():
            return f"{where}: infinite pair interference"
        error = float(np.linalg.norm(log.fused.mean.position - log.true_state.position))
        if not math.isclose(error, log.tracking_error_m, rel_tol=1e-12, abs_tol=1e-12):
            return f"{where}: tracking error {log.tracking_error_m} is not the fused-to-true distance {error}"
        if cfg.mode == "cstj" and log.violation and not log.any_fallback:
            return f"{where}: interference violation without a fallback"
    return None


# ---------------------------------------------------------------- measurement


@dataclass
class Pass:
    """One timed pass over trial indices 0, 1, 2, ..."""

    seconds: dict = field(default_factory=dict)  # trial -> wall seconds, good trials only
    digests: dict = field(default_factory=dict)  # trial -> trial_digest
    logs: dict = field(default_factory=dict)  # trial -> logs, fixed set only
    reference: dict = field(default_factory=dict)  # trial -> reference_work seconds around it
    problems: list = field(default_factory=list)
    attempted: int = 0

    @property
    def failed(self) -> int:
        return self.attempted - len(self.seconds)


def _run_one(cfg, trial: int, result: Pass, keep: bool) -> None:
    result.attempted += 1
    t0 = time.perf_counter()
    try:
        logs = sim.run_trial(cfg, trial)
    except Exception as err:  # a raising trial counts as failed; the run goes on
        result.problems.append(f"trial {trial}: {type(err).__name__}: {err}")
        return
    elapsed = time.perf_counter() - t0
    problem = check_trial(logs, cfg)
    if problem is None:
        result.seconds[trial] = elapsed
    else:
        result.problems.append(f"trial {trial}: {problem}")
    result.digests[trial] = trial_digest(logs)
    if keep:
        result.logs[trial] = logs


_REF_STATES = np.random.default_rng(0).normal(size=(2000, 6))
_REF_COV = np.cov(_REF_STATES.T)
_REF_GRID = np.linspace(0.0, 3.0, 16)


def reference_work() -> float:
    """A fixed mix of the simulator's kinds of work, independent of its code.

    A particle-sized vectorised density (as in the filter update), then
    many 6x6 inversions and small-array calls from Python (as in CI fusion
    and the controller). Its wall time, taken next to each trial, is the unit
    of ``trial_ref``: a change in machine speed slows both alike and cancels.
    """
    acc = 0.0
    for _ in range(12):
        d = _REF_STATES[:, :3] - 0.5
        r = np.sqrt((d * d).sum(axis=-1))
        az = np.arctan2(d[:, 1], d[:, 0])
        g = np.exp(-0.5 * ((r[:, None] - _REF_GRID) ** 2 + (az[:, None] - 0.3) ** 2))
        acc += float(np.log(g.sum(axis=1) + 1e-300).sum())
        for k in range(40):
            acc += float(np.trace(np.linalg.inv(_REF_COV + k * 1e-3 * np.eye(6))))
            v = _REF_STATES[10 * k:10 * k + 12, :3]
            acc += float(np.sqrt(((v - v[0]) ** 2).sum(axis=-1)).max())
    return acc


def _time_reference() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


class SetupProbe:
    """Times ``probes`` fresh interpreters spread evenly over ``seconds``.

    Each probe imports the simulator, builds the workload config and warms the
    move-grid cache. One untimed probe first fills the bytecode cache.
    Spreading the probes over the run keeps a short slow spell of the
    machine from moving their median.
    """

    def __init__(self, name: str, seed: int, probes: int, seconds: float):
        self.cmd = [sys.executable, "-I", "-c", _SETUP_PROBE, str(SRC), str(BENCH), name, str(seed)]
        self.probes, self.seconds = probes, seconds
        self.samples: list[float] = []
        self._probe()
        self.samples.clear()

    def _probe(self) -> None:
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls in sleeps of up to 50 ms, which
        # would round every sample up to that grid
        subprocess.run(self.cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        self.samples.append(time.perf_counter() - t0)

    def __call__(self, elapsed: float) -> None:
        if len(self.samples) < self.probes and elapsed >= len(self.samples) * self.seconds / self.probes:
            self._probe()

    def finish(self) -> list[float]:
        while len(self.samples) < self.probes:
            self._probe()
        return self.samples


def run_passes(cfg, fixed_trials: int, seconds: float, tracer=None, between=None) -> tuple[Pass, Pass | None]:
    """Run trials 0, 1, 2, ... until the fixed set is done and ``seconds`` have passed.

    The reference work runs between trials; each untraced trial is paired
    with the mean of the reference times just before and after it. With a
    tracer, each trial runs untraced and then traced, back to back, so that
    the tracing overhead is measured on the same trials under the same
    machine load. ``between(elapsed)`` is called after each trial.
    """
    plain = Pass()
    traced = None if tracer is None else Pass()
    start = time.perf_counter()
    ref_before = _time_reference()
    trial = 0
    while trial < fixed_trials or time.perf_counter() - start < seconds:
        keep = trial < fixed_trials
        _run_one(cfg, trial, plain, keep)
        if tracer is not None:
            with tracer.installed():
                tracer.trial = trial
                try:
                    _run_one(cfg, trial, traced, keep)
                finally:
                    tracer.trial = None
        if between is not None:
            between(time.perf_counter() - start)
        ref_after = _time_reference()
        plain.reference[trial] = 0.5 * (ref_before + ref_after)
        ref_before = ref_after
        trial += 1
    return plain, traced


def quartiles(values) -> dict:
    values = sorted(values)
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def outcome(cfg, fixed_logs: list) -> dict:
    """Simulated results over the fixed trial set; identical for a pure speed change."""
    steps = [log for logs in fixed_logs for log in logs]
    power = sim.mean_target_power_db(fixed_logs)
    return {
        "sim.tracking_error_m": float(np.mean([log.tracking_error_m for log in steps])),
        "sim.tracking_error_last_m": float(np.mean([logs[-1].tracking_error_m for logs in fixed_logs])),
        # -300 dB stands for "nothing reached the drone in any trial-step"
        "sim.target_power_db": -300.0 if power is None else power,
        "sim.violation_share": float(np.mean([log.violation for log in steps])),
        "sim.fallback_share": float(np.mean([log.any_fallback for log in steps])),
    }


def error_by_step(fixed_logs: list) -> list[float]:
    """Mean fused tracking error at each step over the fixed trials (ungated)."""
    return np.mean([[log.tracking_error_m for log in logs] for logs in fixed_logs], axis=0).tolist()


def output_sha(digests: dict, fixed_trials: int) -> str:
    return hashlib.sha256("".join(digests[t] for t in range(fixed_trials)).encode()).hexdigest()


# ---------------------------------------------------------------- per-layer metrics


def layer_table(tracer: tracing.Tracer, trials: list[int]) -> dict:
    """Per span name: mean busy and self seconds per trial, calls, share of trial time.

    Spans outside trials (``config.preset``, ``cli.emit_csv``) report their
    once-per-run totals instead.
    """
    self_s = tracing.self_times(tracer.spans)
    wanted = set(trials)
    per_name: dict = {}
    for span in tracer.spans:
        span_id, _parent, trial, name, start, end = span
        if trial is not None and trial not in wanted:
            continue
        entry = per_name.setdefault(name, {"intervals": {}, "self": 0.0, "calls": 0, "in_trial": trial is not None})
        entry["intervals"].setdefault(trial, []).append((start, end))
        entry["self"] += self_s[span_id]
        entry["calls"] += 1
    table = {}
    for name, entry in per_name.items():
        busy = sum(tracing.union_length(iv) for iv in entry["intervals"].values())
        per = len(trials) if entry["in_trial"] else 1
        table[name] = {"s": busy / per, "self_s": entry["self"] / per, "calls": entry["calls"] / per}
    trial_s = table.get("sim.run_trial", {}).get("s")
    for row in table.values():
        row["share_of_trial"] = row["s"] / trial_s if trial_s else None
    return table


PER_LAYER_TIMES = {
    "estimation.update.s": ("estimation.update", "s"),
    "estimation.predict.s": ("estimation.predict", "s"),
    "estimation.predicted_state.s": ("estimation.predicted_state", "s"),
    "estimation.eap.s": ("estimation.eap", "s"),
    "estimation.ci_fuse.s": ("estimation.ci_fuse", "s"),
    "control.decide.self_s": ("control.decide", "self_s"),
    "control.admissible_set.s": ("control.admissible_set", "s"),
    "control.solve_jamming.s": ("control.solve_jamming", "s"),
    "geometry_rf.received_power_map.s": ("geometry_rf.received_power_map", "s"),
    "sensing.collect.s": ("sensing.collect", "s"),
    "dynamics.step_target.s": ("dynamics.step_target", "s"),
    "dynamics.enumerate_actions.s": ("dynamics.enumerate_actions", "s"),
    "sim.compute_metrics.s": ("sim.compute_metrics", "s"),
    "sim.run_trial.s": ("sim.run_trial", "s"),
    "sim.run_trial.self_s": ("sim.run_trial", "self_s"),
    "cli.emit_csv.s": ("cli.emit_csv", "s"),
    "config.preset.s": ("config.preset", "s"),
}

PER_LAYER_COUNTS = (
    "estimation.update.calls",
    "estimation.update.lik_evals",
    "estimation.update.resampled",
    "estimation.update.uninformative",
    "estimation.ci_fuse.pairs",
    "control.decide.calls",
    "control.admissible_set.kept",
    "control.admissible_set.empty",
    "control.solve_jamming.calls",
    "control.solve_jamming.pair_evals",
    "control.solve_jamming.fallback_power_off",
    "control.solve_jamming.fallback_tracking",
    "geometry_rf.received_power_map.calls",
    "sensing.collect.meas",
    "sim.compute_metrics.transmitters",
    "cli.emit_csv.bytes",
)


def per_layer_metrics(table: dict, counts) -> dict:
    """Times are seconds per traced trial; counts are totals over the fixed trial set."""
    metrics = {}
    for metric, (name, column) in PER_LAYER_TIMES.items():
        metrics[metric] = table.get(name, {}).get(column, 0.0)
    for metric in PER_LAYER_COUNTS:
        metrics[metric] = counts[metric]
    return metrics


# ---------------------------------------------------------------- environment


def _git_sha() -> str | None:
    """The checkout's commit, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _why(name: str) -> str | None:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None
    return next((w.get("why") for w in spec.get("workloads", []) if w.get("name") == name), None)


def environment(name: str, seed: int, cfg) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "seed": seed,
        "workload": name,
        "why": _why(name),
        "config": config.config_values(cfg),
    }


# ---------------------------------------------------------------- runs


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, cfg=None,
                  setup_probes: int = SETUP_PROBES, out_dir: Path = OUT) -> dict:
    """One benchmark run; returns the full record (its ``summary`` is the printed line).

    ``cfg`` replaces the workload's config (tests shrink it); the fixed trial
    set is then ``cfg.n_trials``.
    """
    workload = WORKLOADS[name]
    cfg = workload.config(seed) if cfg is None else cfg
    fixed = cfg.n_trials
    out_dir.mkdir(parents=True, exist_ok=True)
    problems = []

    warm = trial_digest(sim.run_trial(cfg, 0))  # warm-up, and the re-run compared below
    tracer = tracing.Tracer() if trace else None
    setup = None if trace else SetupProbe(name, seed, setup_probes, seconds)
    plain, traced = run_passes(cfg, fixed, seconds, tracer, between=setup)
    problems += plain.problems
    rerun_identical = plain.digests.get(0) == warm
    if not rerun_identical:
        problems.append("re-running trial 0 gave a different output hash")
    attempted, failed = plain.attempted, plain.failed

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    if not trace:
        setup_samples = setup.finish()
        good = list(plain.seconds)
        times = [plain.seconds[t] for t in good]
        refs = [plain.reference[t] for t in good]
        ratios = [t / r for t, r in zip(times, refs)]
        agent_steps = cfg.n_agents * cfg.n_steps * len(good)
        metrics = {
            "trial_ref": statistics.median(ratios) if good else float("nan"),
            "agent_steps_per_ref": agent_steps / sum(ratios) if good else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup_samples),
        }
        record["setup_s"] = {"samples": setup_samples, **quartiles(setup_samples)}
        record["trial_ref"] = quartiles(ratios) if good else None
        # host time as measured; ungated, because it moves with the machine's speed
        record["host_time"] = {
            "trial_s": quartiles(times) if good else None,
            "agent_steps_per_s": agent_steps / sum(times) if good else 0.0,
            "reference_s": quartiles(refs) if good else None,
        }
        record["trial_seconds"] = plain.seconds
        record["reference_seconds"] = plain.reference
    else:
        with tracer.installed():
            workload.config(seed)  # records config.preset
            cli.emit_csv([traced.logs[t] for t in range(fixed) if t in traced.logs], out_dir / f"csv_{name}")
        problems += traced.problems
        attempted += traced.attempted
        failed += traced.failed
        mismatched = [t for t in traced.digests if plain.digests.get(t) != traced.digests[t]]
        if mismatched:
            problems.append(f"traced trials {mismatched} differ from their untraced runs")
        common = sorted(set(traced.seconds) & set(plain.seconds))
        table = layer_table(tracer, sorted(traced.seconds))
        # the fixed trials, plus the once-per-run calls outside trials (trial id None)
        metrics = per_layer_metrics(table, tracer.trial_counts([*range(fixed), None]))
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced.seconds[t] / plain.seconds[t] for t in common) if common else float("nan")
        )
        spans_path = out_dir / f"spans_{name}.jsonl.gz"
        tracer.write_spans(spans_path)
        record["layers"] = table
        record["computed_counts"] = list(tracing.COMPUTED_COUNTS)
        record["spans_file"] = str(spans_path)
        record["host_time"] = {
            "trial_s": quartiles(list(plain.seconds.values())) if plain.seconds else None,
            "trial_s_traced": quartiles(list(traced.seconds.values())) if traced.seconds else None,
        }
        record["trial_seconds"] = {"untraced": plain.seconds, "traced": traced.seconds}

    fixed_logs = [plain.logs[t] for t in range(fixed) if t in plain.logs]
    have_fixed = len(fixed_logs) == fixed
    if have_fixed:
        outcomes = outcome(cfg, fixed_logs)
        record["outcome"] = outcomes
        record["tracking_error_by_step_m"] = error_by_step(fixed_logs)
        record["output_sha"] = output_sha(plain.digests, fixed)
        if trace:
            metrics.update(outcomes)
    else:
        problems.append("the fixed trial set did not complete")
    correct = not problems and have_fixed
    record["gate"] = {"correct": correct, "problems": problems, "rerun_identical": rerun_identical}
    record["trials"] = {"attempted": attempted, "failed": failed, "fixed": fixed,
                        "failed_share": failed / attempted if attempted else 0.0}
    record["environment"] = environment(name, seed, cfg)
    record["summary"] = {"correct": correct, "attempted": attempted, "failed": failed,
                         "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}}
    return record


def _units() -> dict:
    units = {"setup_s": "s", "trial_ref": "ref", "agent_steps_per_ref": "1/ref", "peak_rss_mb": "MB",
             "trace.overhead_ratio": "ratio", "sim.tracking_error_m": "m", "sim.tracking_error_last_m": "m",
             "sim.target_power_db": "dB", "sim.violation_share": "share", "sim.fallback_share": "share"}
    for metric in PER_LAYER_TIMES:
        units[metric] = "s" if metric.startswith(("cli.", "config.")) else "s/trial"
    units.update({metric: "count" for metric in PER_LAYER_COUNTS})
    units["cli.emit_csv.bytes"] = "bytes"
    return units


UNITS = _units()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    path = OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    summary = record["summary"]
    for metric, entry in summary["metrics"].items():
        print(f"{metric:42s} {entry['value']!r:>24} {entry['unit']}")
    for problem in record["gate"]["problems"]:
        print(f"gate: {problem}")
    if record["host_time"]["trial_s"]:
        print(f"host trial_s median (ungated) {record['host_time']['trial_s']['median']!r} s")
    print(f"output_sha {record.get('output_sha')}  record {path.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
