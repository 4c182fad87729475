"""Scenario runner: full pursuit trials, step metrics, and Monte-Carlo sweeps.

Every step runs its phases in order, each over the whole team before the
next begins: predict and predicted-state extraction, one detection grid over
the team's moves, then thresholding and the sequential jamming decisions (or
the tracking-only baseline), simultaneous agent moves, the drone's advance,
measurement collection, filter update and EAP, fast covariance-intersection
fusion of the whole team in one step, and the metrics against the truth.

Determinism: a single master seed expands into independent per-trial,
per-agent, per-subsystem streams through counter-based seed-sequence keys,
so results are reproducible and independent of trial scheduling. Each agent
draws only from its own filter and sensing streams, and the drone only from
its own, so whether a phase runs over the team before the next phase or each
agent runs all its phases in turn changes no draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .control import (
    DecisionRecord,
    Fallback,
    ct_decide,
    sequential_decide,
)
from .dynamics import (
    ActionGrid,
    AgentState,
    MotionModel,
    TargetState,
    check_count,
    enumerate_actions,
    float_tuple,
    norm,
    step_target,
)
from .estimation import Estimate, ci_fuse, eap, init_particles, predict, predicted_state, update
from .geometry_rf import AntennaParams, RfParams, db_to_linear, linear_to_db, received_power_map, sender_sum
from .sensing import SensingParams, collect

_STREAM_SCENARIO = 0
_STREAM_TARGET = 1
_STREAM_SENSE = 2
_STREAM_FILTER = 3


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


@dataclass
class ScenarioConfig:
    """Everything one trial needs; ``config._KEYS`` gives the file keys and units.

    The vectors are held as tuples of floats, so that configs compare by value.
    """

    mode: str = "cstj"  # "cstj" or "ct"
    seed: int = 0
    n_agents: int = 4
    n_steps: int = 50
    n_trials: int = 50
    arena_min: tuple = (0.0, 0.0, 0.0)
    arena_max: tuple = (100.0, 100.0, 100.0)
    target_init: TargetState | None = None  # None: drawn per trial
    prior_sigma: tuple = (5.0, 5.0, 5.0, 1.0, 1.0, 1.0)
    spawn_radius_m: float = 5.0
    motion: MotionModel = field(default_factory=lambda: MotionModel(1.0, (2.0, 2.0, 2.0)))
    actions: ActionGrid = field(default_factory=lambda: ActionGrid((1.0, 3.0, 5.0), 2, 4))
    sensing: SensingParams = field(
        default_factory=lambda: SensingParams(
            p_d_max=0.99,
            eta_per_m=0.02,
            r0_m=2.0,
            sigma_theta_rad=np.pi / 50.0,
            sigma_phi_rad=np.pi / 50.0,
            sigma_rho0_m=2.0,
            beta_rho=0.05,
            clutter_rate=15.0,
            rho_max_m=100.0 * np.sqrt(3.0),
        )
    )
    antenna: AntennaParams = field(
        default_factory=lambda: AntennaParams(effective_range_m=100.0, opening_angle_rad=np.radians(80.0))
    )
    rf: RfParams = field(
        default_factory=lambda: RfParams(
            near_field_loss_db=32.4,
            path_loss_exponent=2.5,
            attenuation_db=6.0206,
            power_levels_db=(None, -10.0, 0.0, 7.0, 10.0),
            interference_threshold_db=-50.0,
        )
    )
    tracking_threshold: float = 0.8
    ct_power_db: float = 7.0
    n_particles: int = 2000

    def __post_init__(self):
        self.arena_min = float_tuple("arena_min", self.arena_min, 3)
        self.arena_max = float_tuple("arena_max", self.arena_max, 3)
        self.prior_sigma = float_tuple("prior_sigma", self.prior_sigma, 6)
        if self.mode not in ("cstj", "ct"):
            raise ValueError(f"mode must be 'cstj' or 'ct', got {self.mode!r}")
        check_count("seed", self.seed, 0)
        for name in ("n_agents", "n_steps", "n_trials", "n_particles"):
            check_count(name, getattr(self, name), 1)
        if not (self.target_init is None or isinstance(self.target_init, TargetState)):
            raise ValueError(f"target_init must be a TargetState or None, got {type(self.target_init).__name__}")
        # each check is written so that NaN fails it
        low, high = np.array(self.arena_min), np.array(self.arena_max)
        if not (np.isfinite(low).all() and np.isfinite(high).all() and (high > low).all()):
            raise ValueError("arena_min and arena_max must be finite, with arena_max above arena_min on every axis")
        if not all(0 <= s < np.inf for s in self.prior_sigma):
            raise ValueError("prior_sigma must be finite and >= 0 on every axis")
        if not 0 < self.spawn_radius_m < np.inf:
            raise ValueError("spawn_radius_m must be finite and > 0")
        if not 0.0 <= self.tracking_threshold <= 1.0:
            raise ValueError("tracking_threshold must lie in [0, 1]")
        if not np.isfinite(self.ct_power_db):
            raise ValueError("ct_power_db must be a finite dB value")
        if self.mode == "ct" and self.ct_power_db not in self.rf.power_levels_db:
            raise ValueError(f"ct_power_db must be one of the transmit levels in ct mode, got {self.ct_power_db}")


@dataclass(slots=True)
class AgentStepLog:
    agent_id: int
    estimate: Estimate
    decision: DecisionRecord
    n_measurements: int
    interference_db: float | None
    uninformative_update: bool


@dataclass(slots=True)
class StepLog:
    step: int
    true_state: TargetState
    fused: Estimate
    agents: list[AgentStepLog]
    tracking_error_m: float
    target_power_db: float | None
    max_interference_db: float | None
    pair_interference_db: np.ndarray  # (n, n): dB at row agent from column agent, NaN where zero
    any_fallback: bool
    violation: bool


@dataclass
class StepMetrics:
    tracking_error_m: float
    target_power_db: float | None
    agent_interference_db: list
    pair_interference_db: np.ndarray
    max_interference_db: float | None
    violation: bool


def compute_metrics(
    true_state: TargetState,
    fused: Estimate,
    decisions: list[DecisionRecord],
    ant: AntennaParams,
    rf: RfParams,
) -> StepMetrics:
    """Step metrics against the true drone state and the executed decisions.

    Jamming metrics use the true drone position (what physically matters),
    not the predicted one the controller aimed at. Each receiver's total is
    summed in linear power in sender order, as the controller sums it; only
    the logged values are in dB, with None for a zero total and NaN for a
    zero pair entry.
    """
    tracking_error = float(norm(fused.mean.position - true_state.position))

    tx_db = rf.power_db([d.power_index for d in decisions])
    positions = np.array([d.chosen_position for d in decisions])
    aims = np.array([d.aim_point for d in decisions])
    # (receiver, sender), the drone as the last receiver; no antenna covers
    # its own apex, so the diagonal is zero
    receivers = np.vstack([positions, true_state.position])
    received = received_power_map(tx_db, positions, aims, ant, rf, receivers[:, None])
    pair = np.where(received[:-1] > 0.0, linear_to_db(received[:-1]), np.nan)
    totals = linear_to_db(sender_sum(received.T))  # -inf where nothing arrives
    logged = [None if v == -np.inf else float(v) for v in totals]
    target_power, per_agent = logged[-1], logged[:-1]
    worst = totals[:-1].max()
    max_interference = None if worst == -np.inf else float(worst)
    violation = bool(worst >= rf.interference_threshold_db)
    return StepMetrics(tracking_error, target_power, per_agent, pair, max_interference, violation)


def _spawn_in_sphere(center, radius, rng) -> np.ndarray:
    direction = rng.normal(size=3)
    direction /= norm(direction)
    return center + radius * rng.random() ** (1.0 / 3.0) * direction


def run_trial(cfg: ScenarioConfig, trial_index: int = 0) -> list[StepLog]:
    """Run one seeded trial and return its per-step logs."""
    scen_rng = _rng(cfg.seed, trial_index, _STREAM_SCENARIO)
    truth = cfg.target_init
    if truth is None:
        truth = TargetState(
            scen_rng.uniform(cfg.arena_min, cfg.arena_max),
            scen_rng.uniform(-2.0, 2.0, size=3),
        )
    prior_mean = TargetState.from_vector(truth.as_vector() + scen_rng.normal(size=6) * cfg.prior_sigma)
    agents = [
        AgentState(j, _spawn_in_sphere(truth.position, cfg.spawn_radius_m, scen_rng))
        for j in range(cfg.n_agents)
    ]

    target_rng = _rng(cfg.seed, trial_index, _STREAM_TARGET)
    sense_rngs = [_rng(cfg.seed, trial_index, _STREAM_SENSE, j) for j in range(cfg.n_agents)]
    filter_rngs = [_rng(cfg.seed, trial_index, _STREAM_FILTER, j) for j in range(cfg.n_agents)]
    particles = [init_particles(prior_mean, cfg.prior_sigma, cfg.n_particles, rng) for rng in filter_rngs]
    ct_index = cfg.rf.power_levels_db.index(cfg.ct_power_db) if cfg.mode == "ct" else 0

    logs: list[StepLog] = []
    for step in range(1, cfg.n_steps + 1):
        particles = [predict(ps, cfg.motion, rng) for ps, rng in zip(particles, filter_rngs)]
        predictions = [predicted_state(ps) for ps in particles]
        action_sets = [enumerate_actions(agent, cfg.actions) for agent in agents]
        if cfg.mode == "ct":
            decisions = ct_decide(agents, predictions, action_sets, cfg.sensing, ct_index)
        else:
            decisions = sequential_decide(
                agents, predictions, action_sets, cfg.antenna, cfg.rf, cfg.sensing, cfg.tracking_threshold
            )
        for agent, decision in zip(agents, decisions):
            agent.position = decision.chosen_position

        truth = step_target(truth, cfg.motion, target_rng)

        measurements = [collect(truth, agent.position, cfg.sensing, rng) for agent, rng in zip(agents, sense_rngs)]
        particles, uninformative = zip(
            *[
                update(ps, meas, agent.position, cfg.sensing, rng)
                for ps, meas, agent, rng in zip(particles, measurements, agents, filter_rngs)
            ]
        )
        estimates = [eap(ps) for ps in particles]
        fused = ci_fuse(estimates)
        metrics = compute_metrics(truth, fused, decisions, cfg.antenna, cfg.rf)

        agent_logs = [
            AgentStepLog(agent.id, estimate, decision, len(meas), interference, flag)
            for agent, estimate, decision, meas, interference, flag in zip(
                agents, estimates, decisions, measurements, metrics.agent_interference_db, uninformative
            )
        ]
        logs.append(
            StepLog(
                step=step,
                true_state=truth,
                fused=fused,
                agents=agent_logs,
                tracking_error_m=metrics.tracking_error_m,
                target_power_db=metrics.target_power_db,
                max_interference_db=metrics.max_interference_db,
                pair_interference_db=metrics.pair_interference_db,
                any_fallback=any(d.fallback_used is not Fallback.NONE for d in decisions),
                violation=metrics.violation,
            )
        )
    return logs


def run_trials(cfg: ScenarioConfig, jobs: int = 1) -> list[list[StepLog]]:
    """All trials of the configured Monte-Carlo run, ordered by trial index.

    The trials run in a pool of ``min(jobs, cfg.n_trials)`` worker processes
    when that is above one. Only then do the pool and its import exist, so
    neither a serial run nor importing the package loads ``concurrent.futures``.
    """
    indices = range(cfg.n_trials)
    jobs = min(jobs, cfg.n_trials)
    if jobs <= 1:
        return [run_trial(cfg, t) for t in indices]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(run_trial, repeat(cfg), indices))


def _nanmean_over_trials(matrix: np.ndarray) -> np.ndarray:
    mask = ~np.isnan(matrix)
    counts = mask.sum(axis=0)
    sums = np.where(mask, matrix, 0.0).sum(axis=0)
    return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)


def step_means(logs_by_trial: list[list[StepLog]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cross-trial means per step: tracking error, delivered power, worst interference.

    The tracking error averages over every trial. The delivered power and
    the largest per-agent interference are arithmetic means of the dB
    values over the trials where the value exists at that step, NaN where
    it exists in none. They are not linear-power means;
    ``mean_target_power_db`` is one, and only the benchmark reports it.
    """

    def over_trials(value) -> np.ndarray:
        # a None (nothing present at that step) becomes NaN
        return _nanmean_over_trials(np.array([[value(log) for log in logs] for logs in logs_by_trial], dtype=float))

    return (
        over_trials(lambda log: log.tracking_error_m),
        over_trials(lambda log: log.target_power_db),
        over_trials(lambda log: log.max_interference_db),
    )


def mean_target_power_db(logs_by_trial: list[list[StepLog]]) -> float | None:
    """Overall delivered power: linear-domain mean over every trial-step, in dB.

    Steps where nothing reached the drone count as zero linear power; returns
    None if no step delivered anything.
    """
    linear = db_to_linear(
        [-np.inf if log.target_power_db is None else log.target_power_db for trial in logs_by_trial for log in trial]
    )
    if linear.size == 0:
        return None
    mean = linear.mean()
    return None if mean <= 0.0 else float(linear_to_db(mean))
