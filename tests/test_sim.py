import concurrent.futures
import dataclasses
import enum
import hashlib
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cstj_sim
from cstj_sim.control import DecisionRecord, Fallback
from cstj_sim.dynamics import AgentState, TargetState
from cstj_sim.estimation import Estimate
from cstj_sim import sim
from cstj_sim.config import parse_config_text, preset
from cstj_sim.geometry_rf import linear_to_db, received_power_map, sender_sum
from cstj_sim.sim import (
    ScenarioConfig,
    compute_metrics,
    mean_target_power_db,
    run_trial,
    run_trials,
    step_means,
)
from oracles import received_power_db
from test_cli import _golden_configs


def _small_cfg(**kwargs) -> ScenarioConfig:
    base = ScenarioConfig(n_steps=8, n_trials=2, n_particles=300, seed=5)
    return dataclasses.replace(base, **kwargs)


# the fields the fused estimate sets: it only scores the run, so every other
# logged value is the trajectory
FUSION_FIELDS = frozenset({"fused", "tracking_error_m"})


def _logged_digest(value, skip=frozenset(), h=None) -> str:
    """SHA-256 over every value a run logs, walked field by field, floats by their exact bits.

    Dataclass fields named in ``skip`` are left out.
    """
    h = hashlib.sha256() if h is None else h
    if dataclasses.is_dataclass(value):
        h.update(type(value).__name__.encode())
        for f in dataclasses.fields(value):
            if f.name not in skip:
                _logged_digest(getattr(value, f.name), skip, h)
    elif isinstance(value, list):
        h.update(f"list{len(value)}".encode())
        for item in value:
            _logged_digest(item, skip, h)
    elif isinstance(value, np.ndarray):
        h.update(f"{value.dtype}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, enum.Enum):
        h.update(repr(value.value).encode())
    else:
        # repr gives the shortest string that reads back as the same double
        h.update(repr(value).encode())
    return h.hexdigest()


class TestRunTrial:
    def test_zero_steps_is_refused(self):
        with pytest.raises(ValueError, match="n_steps"):
            run_trial(_small_cfg(n_steps=0))

    def test_identical_seeds_identical_logs(self):
        cfg = _small_cfg()
        assert _logged_digest(run_trial(cfg, 1)) == _logged_digest(run_trial(cfg, 1))

    def test_different_trials_differ(self):
        cfg = _small_cfg()
        assert _logged_digest(run_trial(cfg, 0)) != _logged_digest(run_trial(cfg, 1))

    def test_fixed_target_init_is_honoured(self):
        init = TargetState([40.0, 40.0, 40.0], [1.0, 0.0, 0.0])
        cfg = _small_cfg(target_init=init, n_steps=1)
        logs_a = run_trial(cfg, 0)
        logs_b = run_trial(cfg, 1)
        # both trials evolve the same start; only noise streams differ
        assert logs_a[0].step == logs_b[0].step == 1
        assert not np.allclose(logs_a[0].true_state.position, logs_b[0].true_state.position)

    def test_step_error_tends_to_shrink(self):
        # error at the last step beats the first step in most seeded trials,
        # i.e. in a strict majority. Not in nearly all: the drone's velocity
        # random walk reaches 4-11 m/s by step 10 (10th-90th percentile)
        # while the move lattice offers at most 5 m per axis per step, so
        # some teams fall behind and the error grows with range. A
        # near-exact filter (20 000 particles, this config) improves in
        # 30-38 of 50 trials at master seeds 1-8; a filter whose degenerate
        # updates collapse onto clutter improves in 16-24.
        cfg = _small_cfg(n_steps=10, n_particles=600)
        improved = 0
        for trial in range(50):
            logs = run_trial(cfg, trial)
            improved += logs[-1].tracking_error_m < logs[0].tracking_error_m
        assert improved >= 26

    @pytest.mark.parametrize("n_agents, n_particles", [(4, 300), (12, 200)])
    def test_fusion_never_feeds_the_loop(self, monkeypatch, n_agents, n_particles):
        # the fused estimate only scores the run: replacing the fusion changes
        # nothing else the trial logs, bit for bit
        cfg = _small_cfg(n_agents=n_agents, n_particles=n_particles, n_steps=6)
        plain = run_trial(cfg, 1)
        monkeypatch.setattr(sim, "ci_fuse", lambda estimates: estimates[0])
        first_only = run_trial(cfg, 1)
        assert [log.tracking_error_m for log in first_only] != [log.tracking_error_m for log in plain]
        assert _logged_digest(first_only, FUSION_FIELDS) == _logged_digest(plain, FUSION_FIELDS)

    def test_interference_safe_when_no_fallback(self):
        # figure4_sweep's 12-agent arm as the benchmark runs it: at this seed
        # and trial one agent's total gathers 8 contributions, where numpy's
        # own sum would go pairwise. There a step without any fallback is
        # rare, so each agent is checked too: one that kept the inbound limit
        # when it decided (every decision but the tracking fallback), and
        # that every later transmitter's outbound limit then covered, stays
        # under the limit to the end of the step.
        swarm = dataclasses.replace(dict(preset("figure4_sweep", seed=2))["agents_12"], n_particles=200, n_steps=15)
        crowded = 0
        for cfg, trials in ((_small_cfg(n_steps=10, n_trials=6), range(6)), (swarm, [1])):
            limit = cfg.rf.interference_threshold_db
            for trial in trials:
                for log in run_trial(cfg, trial):
                    crowded += cfg is swarm and (~np.isnan(log.pair_interference_db)).sum(axis=1).max() >= 8
                    for agent in log.agents:
                        if agent.decision.fallback_used is not Fallback.TRACKING:
                            assert agent.interference_db is None or agent.interference_db < limit
                    if log.any_fallback:
                        continue
                    assert not log.violation
                    if log.max_interference_db is not None:
                        assert log.max_interference_db < limit
        assert crowded >= 1

    @pytest.mark.parametrize(
        "overrides",
        [
            {"filter.particles": 1},
            {"filter.particles": 1, "sim.mode": "ct"},
            {"sensing.lambda_c": 0},
            {"rf.power_levels_db": "off"},
        ],
    )
    def test_inputs_the_workloads_never_reach_keep_the_gate(self, overrides):
        # the benchmark's gate on inputs its workloads never give: with one
        # particle every covariance is zero, so fusion inverts 1e-9 I alone;
        # without clutter the likelihood has its special cases; with every
        # radio off the control has nothing to transmit
        cfg = parse_config_text("", {"sim.seed": 5, "sim.steps": 8, "filter.particles": 300, **overrides})
        logs = run_trial(cfg, 0)
        assert len(logs) == cfg.n_steps
        for log in logs:
            estimates = [a.estimate for a in log.agents]
            values = [log.fused.mean.as_vector(), log.fused.covariance, log.tracking_error_m]
            values += [e.mean.as_vector() for e in estimates] + [e.covariance for e in estimates]
            optional = [log.target_power_db, log.max_interference_db, *(a.interference_db for a in log.agents)]
            assert all(np.isfinite(v).all() for v in values + [v for v in optional if v is not None])
            if cfg.n_particles == 1:
                assert not any(e.covariance.any() for e in estimates)
            assert not np.isinf(log.pair_interference_db).any()
            error = float(np.linalg.norm(log.fused.mean.position - log.true_state.position))
            assert log.tracking_error_m == pytest.approx(error, rel=1e-12, abs=1e-12)
            if cfg.mode == "cstj":
                assert log.any_fallback or not log.violation

    def test_ct_mode_keeps_constant_power(self):
        cfg = _small_cfg(mode="ct")
        expected = cfg.rf.power_levels_db.index(7.0)
        for log in run_trial(cfg, 0):
            assert all(agent.decision.power_index == expected for agent in log.agents)

    def test_metrics_recompute_from_logged_decisions(self):
        cfg = _small_cfg()
        for log in run_trial(cfg, 3):
            decisions = [agent.decision for agent in log.agents]
            metrics = compute_metrics(log.true_state, log.fused, decisions, cfg.antenna, cfg.rf)
            if log.target_power_db is None:
                assert metrics.target_power_db is None
            else:
                assert metrics.target_power_db == pytest.approx(log.target_power_db, abs=1e-9)
            if log.max_interference_db is None:
                assert metrics.max_interference_db is None
            else:
                assert metrics.max_interference_db == pytest.approx(log.max_interference_db, abs=1e-9)


def _bench_scale_configs():
    """One short trial of each bench workload that decides by ``solve_jamming``, at seed 101.

    Built as the bench builds fig3_cstj (4 agents, 2000 particles) and
    swarm12_short (12 agents, 200 particles), cut to one trial and, for
    fig3_cstj, 10 steps.
    """
    fig3 = dict(preset("figure3_compare", seed=101))["cstj"]
    swarm = dict(preset("figure4_sweep", seed=101))["agents_12"]
    return {
        "fig3_cstj_2000": dataclasses.replace(fig3, n_steps=10, n_trials=1),
        "swarm12_200": dataclasses.replace(swarm, n_particles=200, n_steps=15, n_trials=1),
    }


def _tracked_configs():
    """A figure3_compare cstj trial pair in which the team keeps the drone.

    At ``motion.accel_var`` 0.05 the mean fused error is 1.59 m and the
    largest 6.9 m, well under 11.5 m, the range within which a move keeps
    the default tracking threshold of 0.8. The other logged configs run at
    the default 2.0, where the team loses the drone; this one pins the bits
    of a filter that tracks.
    """
    arm = dict(preset("figure3_compare", seed=5))["cstj"]
    motion = parse_config_text("motion.accel_var = 0.05,0.05,0.05\n").motion
    return {"tracked_4": dataclasses.replace(arm, n_steps=10, n_trials=2, n_particles=300, motion=motion)}


def _logged_configs():
    return {**_golden_configs(), **_bench_scale_configs(), **_tracked_configs()}


class TestLoggedBits:
    """Every value ``run_trials`` logs for each golden config, bit for bit.

    ``test_golden_csv_bytes`` sees only what the CSV writes, 9 significant
    digits of a few columns; this sees every array and float of every
    record, including covariances, agent estimates and decisions. A refactor
    that claims to keep behaviour must leave these digests as they are. The
    golden configs run 100 to 300 particles; the bench-scale configs run the
    particle counts and teams the bench times. The bytes belong to this
    host's numpy build, like ``TestPowerMapBytes``': another BLAS or numpy
    version may round differently.
    """

    DIGESTS = {
        "cstj_4": "b90c8c5ce13cf99db84387c73c02dac319b492888635293f804cce062baaa263",
        "ct_4": "d53946763e8381039f89643f85e555870f9183b1746ccd17b157c97b56ae4f64",
        "agents_12": "513ff3387303ff92ef50aa71bc20ab7500f1a51fd735af9ee77987420577d139",
        "fig3_cstj_2000": "a6ee1a464a804f69bc9386c2bc02c71fac151ce6071708a330f3ed41b6cf016d",
        "swarm12_200": "6c3c87b0e043047601c4ff12f96adc440bff91ea86256a1c514985509cba8e56",
        "tracked_4": "ee6f21384b02e1f5f2397b25c7e7aeef396b3f21709bd4404f06821500c9b203",
    }

    # every logged value but ``FUSION_FIELDS``: a change to the fusion rule
    # alone must leave these as they are
    TRAJECTORY_DIGESTS = {
        "cstj_4": "cb06780ad5ce6326ceafbfa0943b5852c61c8b569b80d779b972eb136a794409",
        "ct_4": "b97ba4751ebc5c541c5f5053dd1ac5fe72d5f09dc96ae766d6b051152fa2be97",
        "agents_12": "923bffa4ffe2ea63c53d3917b126a45a9d12b74c1297d0d9e9deaf6992e07ee6",
        "fig3_cstj_2000": "fb2323c4fa438f8223b01dcdf5bed7fff8d5c17698b30f98f7c582a9026e5ff0",
        "swarm12_200": "f3c825ebbb521c5a415fdeefc19f76014a7fa95afc040de5706935641a2f1364",
        "tracked_4": "e8ca42726d779bd31cb8b38a53d622d0032afd0a65d13f57fc1dd487feb89771",
    }

    @pytest.mark.parametrize("label", sorted(DIGESTS))
    def test_every_logged_bit(self, label):
        assert _logged_digest(run_trials(_logged_configs()[label])) == self.DIGESTS[label]

    @pytest.mark.parametrize("label", sorted(TRAJECTORY_DIGESTS))
    def test_trajectory_bits(self, label):
        logs = run_trials(_logged_configs()[label])
        assert _logged_digest(logs, FUSION_FIELDS) == self.TRAJECTORY_DIGESTS[label]


class TestLogRecords:
    @pytest.mark.parametrize("mode", ["cstj", "ct"])
    def test_records_are_slotted_and_own_their_vectors(self, mode):
        # a record without a __dict__ and a vector that is no view over
        # another array keep a trial's logs small while run_trials holds them
        logs = run_trial(_small_cfg(mode=mode, n_steps=4, n_particles=100), 0)
        vectors = []
        for log in logs:
            records = [log, log.true_state, log.fused, log.fused.mean]
            vectors += [log.true_state.position, log.true_state.velocity, log.fused.mean.position]
            for agent in log.agents:
                records += [agent, agent.estimate, agent.estimate.mean, agent.decision]
                vectors += [agent.estimate.mean.position, agent.decision.chosen_position, agent.decision.aim_point]
            assert not any(hasattr(record, "__dict__") for record in records)
        for vec in vectors:
            assert vec.dtype == np.float64 and vec.shape == (3,) and vec.base is None

    def test_vector_fields_keep_the_array_given_and_refuse_wrong_sizes(self):
        position = np.array([1.0, 2.0, 3.0])
        assert TargetState(position, [0, 0, 0]).position is position
        assert AgentState(0, position).position is position
        assert DecisionRecord(0, position, 0, position, None, Fallback.NONE).aim_point is position
        np.testing.assert_array_equal(TargetState([[1, 2, 3]], [0, 0, 0]).position, position)
        for wrong in ([1.0, 2.0], np.zeros(4)):
            with pytest.raises(ValueError):
                TargetState(wrong, [0, 0, 0])
            with pytest.raises(ValueError):
                AgentState(0, wrong)
            with pytest.raises(ValueError):
                DecisionRecord(0, [0, 0, 0], 0, wrong, None, Fallback.NONE)


class TestComputeMetrics:
    def _estimate(self, position):
        return Estimate(TargetState(position, [0, 0, 0]), np.eye(6))

    def test_perfect_estimate_zero_error(self):
        cfg = ScenarioConfig()
        truth = TargetState([10.0, 10.0, 10.0], [0, 0, 0])
        decision = DecisionRecord(0, [5.0, 10.0, 10.0], 0, [10.0, 10.0, 10.0], None, Fallback.NONE)
        metrics = compute_metrics(truth, self._estimate(truth.position), [decision], cfg.antenna, cfg.rf)
        assert metrics.tracking_error_m == 0.0

    def test_all_off_means_no_target_power(self):
        cfg = ScenarioConfig()
        truth = TargetState([10.0, 10.0, 10.0], [0, 0, 0])
        decisions = [
            DecisionRecord(i, [5.0 + i, 10.0, 10.0], 0, [10.0, 10.0, 10.0], None, Fallback.NONE)
            for i in range(3)
        ]
        metrics = compute_metrics(truth, self._estimate(truth.position), decisions, cfg.antenna, cfg.rf)
        assert metrics.target_power_db is None
        assert metrics.max_interference_db is None
        assert not metrics.violation

    def test_all_off_step_logs_no_power(self):
        cfg = ScenarioConfig()
        rng = np.random.default_rng(7)
        truth = TargetState(rng.uniform(30, 70, 3), [0, 0, 0])
        decisions = [
            DecisionRecord(i, truth.position + rng.uniform(-10, 10, 3), 0, truth.position, None, Fallback.NONE)
            for i in range(4)
        ]
        # what the power map gives for the same step
        positions = np.array([d.chosen_position for d in decisions])
        aims = np.array([d.aim_point for d in decisions])
        receivers = np.vstack([positions, truth.position])
        received = received_power_map(
            cfg.rf.levels_db[[0] * 4], positions, aims, cfg.antenna, cfg.rf, receivers[:, None]
        )
        metrics = compute_metrics(truth, self._estimate(truth.position), decisions, cfg.antenna, cfg.rf)
        # the map gives zero everywhere, so every total is zero (None) and
        # every pair entry NaN
        assert (received == 0.0).all() and (sender_sum(received.T) == 0.0).all()
        np.testing.assert_array_equal(metrics.pair_interference_db, np.full((4, 4), np.nan))
        assert metrics.pair_interference_db.dtype == received.dtype
        assert metrics.target_power_db is None
        assert metrics.agent_interference_db == [None] * 4
        assert metrics.max_interference_db is None
        assert metrics.violation is False

    def test_single_transmitter_on_axis(self):
        cfg = ScenarioConfig()
        truth = TargetState([0.0, 0.0, 1.0], [0, 0, 0])
        top = cfg.rf.power_levels_db.index(10.0)
        decision = DecisionRecord(0, [0.0, 0.0, 0.0], top, [0.0, 0.0, 1.0], None, Fallback.NONE)
        metrics = compute_metrics(truth, self._estimate(truth.position), [decision], cfg.antenna, cfg.rf)
        assert metrics.target_power_db == pytest.approx(10.0 - 38.4206, rel=1e-12)

    def test_pairwise_interference_aggregates(self):
        cfg = ScenarioConfig()
        truth = TargetState([0.0, 0.0, 50.0], [0, 0, 0])
        top = cfg.rf.power_levels_db.index(10.0)
        # two transmitters aiming up, third agent sits inside both cones
        decisions = [
            DecisionRecord(0, [0.0, 0.0, 0.0], top, [0.0, 0.0, 50.0], None, Fallback.NONE),
            DecisionRecord(1, [1.0, 0.0, 0.0], top, [1.0, 0.0, 50.0], None, Fallback.NONE),
            DecisionRecord(2, [0.5, 0.0, 10.0], 0, [0.0, 0.0, 50.0], None, Fallback.NONE),
        ]
        metrics = compute_metrics(truth, self._estimate(truth.position), decisions, cfg.antenna, cfg.rf)
        contribs = [
            received_power_db(10.0, d.chosen_position, d.aim_point, cfg.antenna, cfg.rf, [0.5, 0.0, 10.0])
            for d in decisions[:2]
        ]
        expected = 10 * math.log10(sum(10 ** (c / 10) for c in contribs if c is not None))
        assert metrics.agent_interference_db[2] == pytest.approx(expected, abs=1e-12)
        assert metrics.violation == (expected >= cfg.rf.interference_threshold_db)

    def test_twelve_agents_match_scalar_loop_exactly(self):
        # agents around the drone, aimed near it, so that up to 12 senders
        # reach the drone and several reach each teammate; each total adds
        # its contributions in sender id order, as the controller does, also
        # where 8 or more meet and numpy's own sum would go pairwise
        cfg = ScenarioConfig()
        rng = np.random.default_rng(12)
        for _ in range(20):
            truth = TargetState(rng.uniform(30, 70, 3), [0, 0, 0])
            decisions = [
                DecisionRecord(
                    i,
                    truth.position + rng.uniform(-15, 15, 3),
                    int(rng.integers(0, len(cfg.rf.power_levels_db))),
                    truth.position + rng.uniform(-3, 3, 3),
                    None,
                    Fallback.NONE,
                )
                for i in range(12)
            ]
            metrics = compute_metrics(truth, self._estimate(truth.position), decisions, cfg.antenna, cfg.rf)

            def power(sender, rx_pos):
                """Linear power at ``rx_pos``; 0.0 when off or outside the cone."""
                level = cfg.rf.levels_db[sender.power_index]
                return received_power_map(level, sender.chosen_position, sender.aim_point, cfg.antenna, cfg.rf, rx_pos)

            def logged(total):
                return None if total == 0.0 else float(linear_to_db(total))

            pair = np.full((12, 12), np.nan)
            per_agent = []
            for i, receiver in enumerate(decisions):
                total = 0.0
                for j, sender in enumerate(decisions):
                    if j != i:
                        c = power(sender, receiver.chosen_position)
                        if c > 0.0:
                            pair[i, j] = linear_to_db(c)
                        total += c
                per_agent.append(logged(total))
            total = 0.0
            for sender in decisions:
                total += power(sender, truth.position)
            target = logged(total)

            np.testing.assert_array_equal(metrics.pair_interference_db, pair)
            assert metrics.agent_interference_db == per_agent
            assert metrics.target_power_db == target
            present = [v for v in per_agent if v is not None]
            assert metrics.max_interference_db == (max(present) if present else None)
            assert metrics.violation == any(v >= cfg.rf.interference_threshold_db for v in present)


class TestMonteCarlo:
    def test_single_trial_equals_summary(self):
        cfg = _small_cfg(n_trials=1)
        error, power, _ = step_means(run_trials(cfg))
        direct = run_trial(cfg, 0)
        np.testing.assert_allclose(error, [log.tracking_error_m for log in direct])
        np.testing.assert_array_equal(np.isnan(power), [log.target_power_db is None for log in direct])

    def test_aggregation_permutation_invariant(self):
        cfg = _small_cfg(n_trials=3)
        per_trial = [run_trial(cfg, t) for t in range(3)]
        forward = step_means(per_trial)
        backward = step_means(list(reversed(per_trial)))
        for a, b in zip(forward, backward):
            np.testing.assert_allclose(a, b)

    def test_jobs_do_not_change_results(self):
        # every logged value, covariances, agent estimates and decisions
        # included, comes back from the worker processes bit for bit
        cfg = _small_cfg(n_trials=4)
        serial = run_trials(cfg, jobs=1)
        parallel = run_trials(cfg, jobs=4)
        assert len(serial) == len(parallel) == 4
        for a, b in zip(serial, parallel):
            assert pickle.dumps(a) == pickle.dumps(b)

    def test_pool_has_at_most_one_worker_per_trial(self, monkeypatch):
        # a fake pool records its size and maps in this process, so no
        # worker process starts; 64 jobs on 2 trials ask for 2 workers
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        cfg = _small_cfg(n_trials=2)
        pooled = run_trials(cfg, jobs=64)
        assert sizes == [2]
        assert pickle.dumps(pooled) == pickle.dumps(run_trials(cfg, jobs=1))

    def test_import_loads_no_pool_machinery(self):
        # only run_trials with jobs > 1 needs the process pool
        src = Path(cstj_sim.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        probe = (
            "import sys, cstj_sim.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
        )
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_trial_count_override(self):
        cfg = _small_cfg(n_trials=5)
        logs = run_trials(dataclasses.replace(cfg, n_trials=2))
        assert len(logs) == 2
        assert all(len(series) == cfg.n_steps for series in step_means(logs))

    def test_mean_target_power_handles_absent(self):
        cfg = _small_cfg(n_trials=2, n_steps=4)
        logs = run_trials(cfg)
        value = mean_target_power_db(logs)
        linear = [
            0.0 if log.target_power_db is None else 10 ** (log.target_power_db / 10)
            for trial in logs
            for log in trial
        ]
        expected = 10 * math.log10(np.mean(linear)) if np.mean(linear) > 0 else None
        if expected is None:
            assert value is None
        else:
            assert value == pytest.approx(expected, rel=1e-12)
        # no trial-step at all
        assert mean_target_power_db([]) is None
