"""Scenario runner: full pursuit trials, step metrics, and Monte-Carlo sweeps.

Every step runs its phases in order, each over the whole team before the
next begins: predict and the team's aim points, one detection grid over
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

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .control import DecisionRecord, Fallback, ct_decide, sequential_decide
from .dynamics import (
    ActionGrid,
    AgentState,
    MotionModel,
    TargetState,
    check_count,
    check_range,
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


# The most float64 densities that one measurement set's likelihood grid may ask for: 2**24, 128 MiB a
# grid. The grid holds a density per particle and return, and a set holds clutter_rate + 1 returns on
# average: Poisson clutter and at most the drone's own. The kernel keeps about four grids of that shape
# alive at once (the quadratic form, its term and the azimuth wrap's two buffers), so one update stays
# near half a GiB. The budget also keeps the clutter rate below 2**24, far below the about 9.2e18 that
# numpy's Poisson sampler accepts.
_DENSITY_BUDGET = 2**24


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one trial needs; ``config._KEYS`` gives the file keys and units.

    A config is a value, frozen like its records: every vector is held as a
    tuple of floats, so that configs compare and hash by value, and a field
    changes only through ``dataclasses.replace``, which runs every rule.
    """

    mode: str = "cstj"  # "cstj" or "ct"
    seed: int = 0
    n_agents: int = 4
    n_steps: int = 50
    n_trials: int = 50
    arena_min: tuple = (0.0, 0.0, 0.0)
    arena_max: tuple = (100.0, 100.0, 100.0)
    target_init: tuple | None = None  # the drone's start (x, y, z, vx, vy, vz); None: drawn per trial
    prior_sigma: tuple = (5.0, 5.0, 5.0, 1.0, 1.0, 1.0)
    spawn_radius_m: float = 5.0
    motion: MotionModel = MotionModel(1.0, (2.0, 2.0, 2.0))
    actions: ActionGrid = ActionGrid((1.0, 3.0, 5.0), 2, 4)
    sensing: SensingParams = SensingParams(
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
    antenna: AntennaParams = AntennaParams(effective_range_m=100.0, opening_angle_rad=np.radians(80.0))
    rf: RfParams = RfParams(
        near_field_loss_db=32.4,
        path_loss_exponent=2.5,
        attenuation_db=6.0206,
        power_levels_db=(None, -10.0, 0.0, 7.0, 10.0),
        interference_threshold_db=-50.0,
    )
    tracking_threshold: float = 0.8
    ct_power_db: float = 7.0
    n_particles: int = 2000

    def __post_init__(self):
        for name, n in (("arena_min", 3), ("arena_max", 3), ("prior_sigma", 6)):
            object.__setattr__(self, name, float_tuple(name, getattr(self, name), n))
        if self.target_init is not None:
            object.__setattr__(self, "target_init", float_tuple("target_init", self.target_init, 6))
            check_range("target_init", *self.target_init)
        if self.mode not in ("cstj", "ct"):
            raise ValueError(f"mode must be 'cstj' or 'ct', got {self.mode!r}")
        check_count("seed", self.seed, 0)
        for name in ("n_agents", "n_steps", "n_trials", "n_particles"):
            check_count(name, getattr(self, name), 1)
        check_range("arena_min", *self.arena_min)
        check_range("arena_max", *self.arena_max)
        # a finite width too: the drone's start is drawn as low + width * u
        if not all(low < high and high - low < np.inf for low, high in zip(self.arena_min, self.arena_max)):
            raise ValueError(
                "arena_min and arena_max must bound the arena: arena_max above arena_min on every axis,"
                " by a finite width"
            )
        # Every move must stay resolved where the team flies. Positions start within M, the largest corner (or
        # fixed start) coordinate, but the drone can drift past the arena and the agents follow it. Allowing one
        # binade of drift, to 2M, doubles the spacing s = np.spacing(M); a drift further than the arena's own
        # largest coordinate is not covered. Each coordinate rounds to within s there, so an agent-to-drone
        # offset, the difference of two rounded positions, errs by at most 2 s per axis and 2 sqrt(3) s in
        # length. Asking that to be at most 2**-10 of the smallest move step gives the rule below: with 1 m
        # steps, M below 2**41 m (2.2e12). A step under half a spacing cannot leave the drone's coordinates at
        # all (16 m spacing at 1e17), and a range of 0 follows. Every agent moves at least that step before its
        # first measurement, so the spawn radius needs no rule of its own.
        reach = max(map(abs, (*self.arena_min, *self.arena_max, *(self.target_init or ())[:3])))
        step = min(self.actions.radial_steps_m)
        if not 2**11 * 3**0.5 * np.spacing(reach) <= step:
            raise ValueError(
                "arena_max, arena_min, target_init and actions.radial_steps_m must keep every move resolved: the"
                f" smallest step, {step:g} m, at least 2**11 sqrt(3) float spacings at the largest coordinate,"
                f" {reach:.3g} m"
            )
        check_range("prior_sigma", *self.prior_sigma, low=0, low_in=True)
        # Every filter's covariance holds the square of the drone's spread, and CI inverts it, so that square
        # must stay below the float range's 1.8e308. Over a trial the spread is of the order of the prior's
        # position sigma, plus its velocity sigma times n_steps * dt, plus the acceleration noise's position
        # sigma, about 0.5 dt**2 sqrt(accel_var) n_steps**1.5. Bounding that at 1e100 m keeps its square below
        # 1e200, 1e108 short of the range's end: room for the cloud's tails, the drone's distance from the
        # filter's mean and the sums over particles and axes. A finite square is needed but not enough: CI can
        # still fail on a cloud too ill-conditioned for double precision.
        dt, n = self.motion.dt, min(self.n_steps, 1e100)  # min compares exactly: a count past float range is capped
        pos_sd, vel_sd = max(self.prior_sigma[:3]), max(self.prior_sigma[3:])
        spread = pos_sd + n * dt * vel_sd + 0.5 * dt**2 * max(self.motion.accel_var) ** 0.5 * n**1.5
        if not spread < 1e100:
            raise ValueError(
                "prior_sigma, motion.dt and motion.accel_var must keep the drone's spread over n_steps"
                f" below 1e100 m, got {spread:.3g} m"
            )
        # a quotient, since a count past the float range cannot multiply a float
        if not self.n_particles <= _DENSITY_BUDGET / (self.sensing.clutter_rate + 1.0):
            raise ValueError(
                f"n_particles and sensing.clutter_rate must keep n_particles * (clutter_rate + 1) at most"
                f" {_DENSITY_BUDGET} densities, got {self.n_particles} * ({self.sensing.clutter_rate:g} + 1)"
            )
        check_range("spawn_radius_m", self.spawn_radius_m, low=0)
        check_range("tracking_threshold", self.tracking_threshold, low=0, high=1, low_in=True, high_in=True)
        check_range("ct_power_db", self.ct_power_db)
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

    tx_db = rf.levels_db[[d.power_index for d in decisions]]
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


class TrialError(ValueError):
    """A trial that failed within a step; the message starts ``trial <t>, step <s>:``."""


def _spawn_in_sphere(center, radius, rng) -> np.ndarray:
    direction = rng.normal(size=3)
    direction /= norm(direction)
    return center + radius * rng.random() ** (1.0 / 3.0) * direction


def run_trial(cfg: ScenarioConfig, trial_index: int = 0) -> list[StepLog]:
    """Run one seeded trial and return its per-step logs.

    A ``ValueError`` raised within a step comes out as a ``TrialError`` that
    names the trial and the step.
    """
    scen_rng = _rng(cfg.seed, trial_index, _STREAM_SCENARIO)
    start = cfg.target_init
    if start is None:
        start = np.concatenate([scen_rng.uniform(cfg.arena_min, cfg.arena_max), scen_rng.uniform(-2.0, 2.0, size=3)])
    truth = np.array(start)  # the drone's (6,) state; a TargetState only in the step log
    prior_mean = truth + scen_rng.normal(size=6) * cfg.prior_sigma
    agents = [AgentState(j, _spawn_in_sphere(truth[:3], cfg.spawn_radius_m, scen_rng)) for j in range(cfg.n_agents)]

    target_rng = _rng(cfg.seed, trial_index, _STREAM_TARGET)
    sense_rngs = [_rng(cfg.seed, trial_index, _STREAM_SENSE, j) for j in range(cfg.n_agents)]
    filter_rngs = [_rng(cfg.seed, trial_index, _STREAM_FILTER, j) for j in range(cfg.n_agents)]
    particles = [init_particles(prior_mean, cfg.prior_sigma, cfg.n_particles, rng) for rng in filter_rngs]
    ct_index = cfg.rf.power_levels_db.index(cfg.ct_power_db) if cfg.mode == "ct" else 0

    logs: list[StepLog] = []
    try:
        for step in range(1, cfg.n_steps + 1):
            particles = [predict(ps, cfg.motion, rng) for ps, rng in zip(particles, filter_rngs)]
            aims = np.array([predicted_state(ps)[:3] for ps in particles])
            actions = np.array([enumerate_actions(agent, cfg.actions) for agent in agents])
            if cfg.mode == "ct":
                decisions = ct_decide(aims, actions, cfg.sensing, ct_index)
            else:
                decisions = sequential_decide(aims, actions, cfg.antenna, cfg.rf, cfg.sensing, cfg.tracking_threshold)
            for agent, decision in zip(agents, decisions):
                agent.position = decision.chosen_position

            truth = step_target(truth, cfg.motion, target_rng)
            true_state = TargetState.from_vector(truth)  # refuses a non-finite state before any measurement

            measurements = [
                collect(truth[:3], agent.position, cfg.sensing, rng) for agent, rng in zip(agents, sense_rngs)
            ]
            particles, uninformative = zip(
                *[
                    update(ps, meas, agent.position, cfg.sensing, rng)
                    for ps, meas, agent, rng in zip(particles, measurements, agents, filter_rngs)
                ]
            )
            estimates = [eap(ps) for ps in particles]
            fused = ci_fuse(estimates)
            metrics = compute_metrics(true_state, fused, decisions, cfg.antenna, cfg.rf)

            agent_logs = [
                AgentStepLog(agent.id, estimate, decision, len(meas), interference, flag)
                for agent, estimate, decision, meas, interference, flag in zip(
                    agents, estimates, decisions, measurements, metrics.agent_interference_db, uninformative
                )
            ]
            logs.append(
                StepLog(
                    step=step,
                    true_state=true_state,
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
    except ValueError as err:  # numpy's LinAlgError included
        raise TrialError(f"trial {trial_index}, step {step}: {err}") from err
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
