import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from cstj_sim.control import (
    DecisionRecord,
    Fallback,
    _tracking_decision,
    admissible_set,
    ct_decide,
    sequential_decide,
    solve_jamming,
)
from cstj_sim.config import preset
from cstj_sim.dynamics import ActionGrid, AgentState, MotionModel, TargetState, enumerate_actions, norm
from cstj_sim.estimation import Estimate
from cstj_sim.geometry_rf import AntennaParams, RfParams, linear_to_db, received_power_map, sender_sum
from cstj_sim import control, sim
from cstj_sim.sensing import SensingParams, detection_prob_at_distance
from cstj_sim.sim import compute_metrics
from oracles import cone_contains, detection_prob, received_power_db, solve_jamming_reference

ANT = AntennaParams(100.0, math.radians(80.0))
RF = RfParams(32.4, 2.5, 6.0206, (None, -10.0, 0.0, 7.0, 10.0), -50.0)
SENSING = SensingParams(
    p_d_max=0.99,
    eta_per_m=0.02,
    r0_m=2.0,
    sigma_theta_rad=math.pi / 50,
    sigma_phi_rad=math.pi / 50,
    sigma_rho0_m=2.0,
    beta_rho=0.05,
    clutter_rate=15.0,
    rho_max_m=100.0 * math.sqrt(3.0),
)
GRID = ActionGrid((1.0, 3.0, 5.0), 2, 4)


def _pred(position) -> np.ndarray:
    """An aim point: a predicted drone position as the float (3,) array the deciders take."""
    return np.array(position, dtype=float)


def _probs(target: np.ndarray, moves, p: SensingParams = SENSING) -> np.ndarray:
    """Each move's detection probability of the aim point, as the deciders' grid scores it."""
    return detection_prob_at_distance(norm(target - np.array(moves, dtype=float)), p)


def _assert_tracking_record(rec: DecisionRecord, target: np.ndarray, power_index: int, fallback: Fallback):
    """A best-tracking decision aims at the predicted drone and records no objective."""
    np.testing.assert_array_equal(rec.aim_point, target)
    assert rec.objective_value_db is None
    assert rec.power_index == power_index
    assert rec.fallback_used is fallback


class TestTrackingObjective:
    """The detection probability each candidate scores, as the controller computes it."""

    def test_inside_full_detection(self):
        assert _probs(_pred([1.0, 0, 0]), [[0.5, 0, 0]])[0] == SENSING.p_d_max

    def test_beyond_cutoff(self):
        assert _probs(_pred([51.5, 0, 0]), [[0.0, 0, 0]])[0] == 0.0

    def test_argmax_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            target = _pred(rng.uniform(0, 40, 3))
            actions = enumerate_actions(AgentState(0, rng.uniform(0, 40, 3)), GRID)
            scores = [detection_prob(target, a, SENSING) for a in actions]
            best = _tracking_decision(0, target, actions, _probs(target, actions), 0, Fallback.NONE).chosen_position
            assert detection_prob(target, best, SENSING) == max(scores)


class TestAdmissibleSet:
    def test_zero_threshold_keeps_everything_in_range(self):
        target = _pred([5.0, 0, 0])
        actions = enumerate_actions(AgentState(0, [0.0, 0, 0]), GRID)
        kept = admissible_set(actions, _probs(target, actions), 0.0)
        assert len(kept) == len(actions)  # all candidates well within 51.5 m

    def test_unit_threshold_empties(self):
        target = _pred([5.0, 0, 0])
        actions = enumerate_actions(AgentState(0, [0.0, 0, 0]), GRID)
        assert len(admissible_set(actions, _probs(target, actions), 1.0)) == 0

    def test_cutoff_distance_at_point_eight(self):
        # threshold 0.8 keeps exactly the candidates nearer than 11.5 m
        cutoff = SENSING.r0_m + (SENSING.p_d_max - 0.8) / SENSING.eta_per_m
        assert cutoff == pytest.approx(11.5)
        target = _pred([0.0, 0, 0])
        candidates = np.array([[d, 0.0, 0.0] for d in np.linspace(0.5, 20.0, 100)])
        kept = admissible_set(candidates, _probs(target, candidates), 0.8)
        expected = candidates[np.linalg.norm(candidates, axis=1) < cutoff - 1e-9]
        np.testing.assert_allclose(kept, expected)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(1)
        target = _pred(rng.uniform(0, 30, 3))
        actions = enumerate_actions(AgentState(0, rng.uniform(0, 30, 3)), GRID)
        loose = admissible_set(actions, _probs(target, actions), 0.0)
        tight = admissible_set(actions, _probs(target, actions), 0.85)
        as_set = {tuple(row) for row in loose}
        assert all(tuple(row) in as_set for row in tight)

    def test_order_preserved(self):
        target = _pred([3.0, 0, 0])
        actions = enumerate_actions(AgentState(0, [0.0, 0, 0]), GRID)
        kept = admissible_set(actions, _probs(target, actions), 0.5)
        rows = [tuple(r) for r in actions]
        indices = [rows.index(tuple(r)) for r in kept]
        assert indices == sorted(indices)


def _decision(agent_id, position, power_index, aim):
    return DecisionRecord(agent_id, position, power_index, aim, None, Fallback.NONE)


def _load_db(rx_pos, senders):
    """Total power at ``rx_pos`` in dB: each sender's linear power added in the order given."""
    total = 0.0
    for sender in senders:
        level = RF.levels_db[sender.power_index]
        total += received_power_map(level, sender.chosen_position, sender.aim_point, ANT, RF, rx_pos)
    return linear_to_db(total)


class TestSolveJamming:
    def test_unconstrained_picks_nearest_at_max_power(self):
        target = _pred([10.0, 0.0, 0.0])
        candidates = np.array([[4.0, 0, 0], [2.0, 0, 0], [6.0, 0, 0]])
        rec = solve_jamming(0, candidates, target, [], ANT, RF, _probs(target, candidates))
        assert rec.fallback_used is Fallback.NONE
        assert rec.power_index == len(RF.power_levels_db) - 1
        np.testing.assert_array_equal(rec.chosen_position, [6.0, 0, 0])  # nearest to the drone
        assert rec.objective_value_db == pytest.approx(10.0 - (32.4 + 25 * math.log10(4.0) + 6.0206))

    def test_saturating_interference_forces_tracking_fallback(self):
        # a committed transmitter one metre from every candidate, all candidates
        # inside its cone: every pairing violates the inbound limit
        target = _pred([0.0, 0.0, 30.0])
        half = ANT.opening_angle_rad / 2
        directions = [
            np.array([math.sin(half * f) * math.cos(t), math.sin(half * f) * math.sin(t), math.cos(half * f)])
            for f in (0.0, 0.5, 0.9)
            for t in (0.0, 2.0, 4.0)
        ]
        jammer_pos = np.array([0.0, 0.0, 0.0])
        candidates = np.array([jammer_pos + d for d in directions])  # all at 1 m
        jammer = _decision(7, jammer_pos, len(RF.power_levels_db) - 1, [0.0, 0.0, 10.0])
        rec = solve_jamming(8, candidates, target, [jammer], ANT, RF, _probs(target, candidates))
        _assert_tracking_record(rec, target, 0, Fallback.TRACKING)
        received = received_power_db(10.0, jammer_pos, [0.0, 0.0, 10.0], ANT, RF, rec.chosen_position)
        assert received == pytest.approx(10.0 - 38.4206)  # indeed above the -50 dB limit
        scores = [detection_prob(target, c, SENSING) for c in candidates]
        np.testing.assert_array_equal(rec.chosen_position, candidates[int(np.argmax(scores))])

    def test_power_off_fallback_keeps_inbound_safe_candidates(self):
        # the deciding agent would jam the committed receiver at any level from
        # anywhere nearby, but the receiver itself is silent, so staying off works
        target = _pred([0.0, 0.0, 5.0])
        receiver = _decision(3, np.array([0.0, 0.0, 2.5]), 0, [0.0, 0.0, 5.0])  # off, receives only
        candidates = np.array([[0.0, 0.0, 2.0], [0.0, 0.5, 2.0]])
        rec = solve_jamming(4, candidates, target, [receiver], ANT, RF, _probs(target, candidates))
        _assert_tracking_record(rec, target, 0, Fallback.POWER_OFF)
        np.testing.assert_array_equal(rec.chosen_position, [0.0, 0.0, 2.0])  # best tracking

    def test_matches_reference_enumeration(self):
        # up to 11 committed teammates; every other case aims them at the
        # candidate cluster, so that many cones overlap and some aggregates
        # run over 8 or more senders, where numpy's plain sum goes pairwise
        rng = np.random.default_rng(2)
        crowded = 0
        for case in range(200):
            target = _pred(rng.uniform(10, 60, 3))
            n_candidates = int(rng.integers(1, 19))
            center = rng.uniform(10, 60, 3)
            candidates = center + rng.uniform(-6, 6, (n_candidates, 3))
            aim_low, aim_high = (center - 3, center + 3) if case % 2 else (10, 60)
            decided = []
            for i in range(int(rng.integers(0, 12))):
                decided.append(
                    DecisionRecord(
                        i,
                        center + rng.uniform(-12, 12, 3),
                        int(rng.integers(0, len(RF.power_levels_db))),
                        rng.uniform(aim_low, aim_high, 3),
                        None,
                        Fallback.NONE,
                    )
                )
            transmitting = [r for r in decided if r.power_index != 0]
            receivers = [*candidates, *(r.chosen_position for r in decided)]
            crowded += any(
                sum(cone_contains(r.chosen_position, r.aim_point, ANT, x) for r in transmitting) >= 8
                for x in receivers
            )
            got = solve_jamming(9, candidates, target, decided, ANT, RF, _probs(target, candidates))
            want = solve_jamming_reference(9, candidates, target, decided, ANT, RF, SENSING)
            assert got.power_index == want.power_index
            assert got.fallback_used is want.fallback_used
            np.testing.assert_allclose(got.chosen_position, want.chosen_position)
            if want.objective_value_db is None:
                assert got.objective_value_db is None
            else:
                assert got.objective_value_db == pytest.approx(want.objective_value_db, abs=1e-9)
        assert crowded >= 10  # the sweep must reach sums over 8 or more senders

    def test_non_off_decision_recheck_passes_exactly(self):
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(100):
            target = _pred(rng.uniform(10, 60, 3))
            center = rng.uniform(10, 60, 3)
            candidates = center + rng.uniform(-6, 6, (int(rng.integers(1, 19)), 3))
            decided = [
                DecisionRecord(
                    i,
                    center + rng.uniform(-12, 12, 3),
                    int(rng.integers(0, len(RF.power_levels_db))),
                    rng.uniform(10, 60, 3),
                    None,
                    Fallback.NONE,
                )
                for i in range(int(rng.integers(0, 4)))
            ]
            rec = solve_jamming(9, candidates, target, decided, ANT, RF, _probs(target, candidates))
            if rec.fallback_used is not Fallback.NONE or rec.power_index == 0:
                continue
            checked += 1
            # inbound: what the new agent receives at its chosen spot
            assert _load_db(rec.chosen_position, decided) < RF.interference_threshold_db
            # outbound: what every committed receiver now absorbs, the new
            # agent's contribution last
            for receiver in decided:
                senders = [s for s in decided + [rec] if s.agent_id != receiver.agent_id]
                assert _load_db(receiver.chosen_position, senders) < RF.interference_threshold_db
        assert checked >= 10  # the sweep must actually exercise transmitting decisions

    def test_objective_is_what_the_scorer_logs(self):
        # with every committed teammate silent and the drone at the aim, the
        # scorer's delivered power is the controller's objective, bit for bit
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(100):
            target = _pred(rng.uniform(10, 60, 3))
            center = rng.uniform(10, 60, 3)
            candidates = center + rng.uniform(-6, 6, (int(rng.integers(1, 19)), 3))
            decided = [
                _decision(i, center + rng.uniform(-12, 12, 3), 0, rng.uniform(10, 60, 3))
                for i in range(int(rng.integers(0, 12)))
            ]
            rec = solve_jamming(12, candidates, target, decided, ANT, RF, _probs(target, candidates))
            if rec.power_index == 0:
                continue
            checked += 1
            drone = TargetState(rec.aim_point, [0.0, 0.0, 0.0])
            fused = Estimate(drone, np.eye(6))
            metrics = compute_metrics(drone, fused, [*decided, rec], ANT, RF)
            assert metrics.target_power_db == rec.objective_value_db
        assert checked >= 50  # the sweep must mostly transmit

    def test_objective_monotone_in_power(self):
        # fixed candidate toward a fixed drone: delivered power rises with the level
        values = [
            received_power_db(level, np.array([4.0, 0, 0]), np.array([10.0, 0, 0]), ANT, RF, np.array([10.0, 0, 0]))
            for level in RF.power_levels_db[1:]
        ]
        assert all(v is not None for v in values)
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_db_shift_leaves_choices_unchanged(self):
        rng = np.random.default_rng(4)
        for shift in (-7.0, 13.0):
            shifted_rf = RfParams(
                32.4,
                2.5,
                6.0206,
                (None, *[l + shift for l in RF.power_levels_db[1:]]),
                RF.interference_threshold_db + shift,
            )
            for _ in range(30):
                target = _pred(rng.uniform(10, 60, 3))
                center = rng.uniform(10, 60, 3)
                candidates = center + rng.uniform(-6, 6, (12, 3))
                decided = [
                    DecisionRecord(
                        i,
                        center + rng.uniform(-12, 12, 3),
                        int(rng.integers(0, len(RF.power_levels_db))),
                        rng.uniform(10, 60, 3),
                        None,
                        Fallback.NONE,
                    )
                    for i in range(2)
                ]
                base = solve_jamming(9, candidates, target, decided, ANT, RF, _probs(target, candidates))
                moved = solve_jamming(9, candidates, target, decided, ANT, shifted_rf, _probs(target, candidates))
                assert base.power_index == moved.power_index
                assert base.fallback_used is moved.fallback_used
                np.testing.assert_allclose(base.chosen_position, moved.chosen_position)


class TestSequentialDecide:
    def _agents(self, positions):
        return [AgentState(i, p) for i, p in enumerate(positions)]

    def test_single_agent_equals_direct_solve(self):
        agent = AgentState(0, np.array([20.0, 20.0, 20.0]))
        target = _pred([25.0, 20.0, 20.0])
        actions = enumerate_actions(agent, GRID)
        candidates = admissible_set(actions, _probs(target, actions), 0.8)
        direct = solve_jamming(0, candidates, target, [], ANT, RF, _probs(target, candidates))
        seq = sequential_decide(np.array([target]), actions[None], ANT, RF, SENSING, 0.8)
        assert len(seq) == 1
        assert seq[0].power_index == direct.power_index
        np.testing.assert_array_equal(seq[0].chosen_position, direct.chosen_position)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        positions = rng.uniform(20, 40, (4, 3))
        agents = self._agents(positions)
        targets = rng.uniform(20, 40, (len(agents), 3))
        actions = np.array([enumerate_actions(a, GRID) for a in agents])
        first = sequential_decide(targets, actions, ANT, RF, SENSING, 0.8)
        second = sequential_decide(targets, actions, ANT, RF, SENSING, 0.8)
        for a, b in zip(first, second):
            assert a.power_index == b.power_index
            np.testing.assert_array_equal(a.chosen_position, b.chosen_position)

    def test_posthoc_audit_when_no_fallback(self):
        rng = np.random.default_rng(6)
        audited = 0
        for _ in range(40):
            spot = rng.uniform(20, 60, 3)
            agents = self._agents(spot + rng.uniform(-4, 4, (4, 3)))
            target = _pred(spot + rng.uniform(-3, 3, 3))
            targets = np.array([target] * 4)
            actions = np.array([enumerate_actions(a, GRID) for a in agents])
            decisions = sequential_decide(targets, actions, ANT, RF, SENSING, 0.8)
            if any(d.fallback_used is not Fallback.NONE for d in decisions):
                continue
            audited += 1
            for receiver in decisions:
                senders = [s for s in decisions if s.agent_id != receiver.agent_id]
                assert _load_db(receiver.chosen_position, senders) < RF.interference_threshold_db
        assert audited >= 10

    def test_empty_candidate_set_takes_tracking_fallback(self):
        agent = AgentState(0, np.array([0.0, 0.0, 0.0]))
        far_target = _pred([40.0, 0.0, 0.0])  # unreachable above threshold: best is 5 m closer
        actions = enumerate_actions(agent, GRID)
        decisions = sequential_decide(np.array([far_target]), actions[None], ANT, RF, SENSING, 0.8)
        _assert_tracking_record(decisions[0], far_target, 0, Fallback.TRACKING)
        scores = [detection_prob(far_target, a, SENSING) for a in actions]
        np.testing.assert_array_equal(decisions[0].chosen_position, actions[int(np.argmax(scores))])

    def test_all_off_causes_no_interference(self):
        rng = np.random.default_rng(7)
        agents = self._agents(rng.uniform(20, 40, (3, 3)))
        decisions = [
            DecisionRecord(a.id, a.position, 0, a.position + [1.0, 0, 0], None, Fallback.NONE)
            for a in agents
        ]
        for receiver in decisions:
            senders = [s for s in decisions if s.agent_id != receiver.agent_id]
            assert _load_db(receiver.chosen_position, senders) == -np.inf


def _trial_decisions(monkeypatch, cfg, trials):
    """Inputs and output of every ``sequential_decide`` call the trials make, caught by a spy."""
    calls = []

    def spy(aims, actions, ant, rf, p, threshold):
        decisions = sequential_decide(aims, actions, ant, rf, p, threshold)
        calls.append((aims, actions, ant, rf, p, threshold, decisions))
        return decisions

    monkeypatch.setattr(sim, "sequential_decide", spy)
    for trial in trials:
        sim.run_trial(cfg, trial)
    return calls


def _better_deviations(predicted_aims, action_sets, ant, rf, p, threshold, decisions) -> tuple[int, int]:
    """(feasible, better) counts of unilateral deviations from executed decisions.

    A deviation of agent j is any (admissible candidate, level >= 1) pair.
    It is feasible against all teammates when the total at the candidate
    from every other agent's executed decision, in id order, is under the
    limit, and at every other agent i the total from all agents but i and
    j, in id order with the deviation added last, is under it too. It is
    better when it delivers more to j's aim point than j's own decision
    does, whose delivery comes from the same power map (0 with its radio
    off).
    """
    limit = rf.interference_threshold_db
    tx_db = rf.levels_db[[d.power_index for d in decisions]][:, None]
    positions = np.array([d.chosen_position for d in decisions])
    aims = np.array([d.aim_point for d in decisions])
    # (sender, receiver) among the executed decisions
    between = received_power_map(tx_db, positions[:, None], aims[:, None], ant, rf, positions)
    levels_db = rf.levels_db[np.arange(1, len(rf.power_levels_db))][:, None, None]
    feasible = better = 0
    for j, (aim, actions, own) in enumerate(zip(predicted_aims, action_sets, decisions)):
        candidates = admissible_set(actions, _probs(aim, actions, p), threshold)
        if len(candidates) == 0:
            continue
        others = [i for i in range(len(decisions)) if i != j]
        inbound = received_power_map(tx_db[others], positions[others, None], aims[others, None], ant, rf, candidates)
        inbound_ok = linear_to_db(sender_sum(inbound)) < limit
        # (level, other agent + aim point, candidate + own position)
        senders = np.vstack([candidates, own.chosen_position])
        sent = received_power_map(levels_db, senders, aim, ant, rf, np.vstack([positions[others], aim])[:, None])
        ok = np.tile(inbound_ok, (len(levels_db), 1))  # (level, candidate)
        for r, i in enumerate(others):
            base = sender_sum(between[[k for k in range(len(decisions)) if k not in (i, j)], i])
            ok = ok & (linear_to_db(base + sent[:, r, :-1]) < limit)
        own_delivery = sent[own.power_index - 1, -1, -1] if own.power_index else 0.0
        feasible += int(ok.sum())
        better += int((ok & (sent[:, -1, :-1] > own_delivery)).sum())
    return feasible, better


class TestGreedyIsAUnilateralBestResponse:
    """No agent gains by deviating alone from the executed decisions.

    Received powers are non-negative and rounded sums grow with their terms,
    so a deviation feasible against all teammates is feasible against the
    earlier deciders alone, where ``solve_jamming`` already took the maximum.
    """

    @pytest.mark.parametrize("label", ["agents_12", "cstj_accel_0.05"])
    def test_no_feasible_deviation_delivers_more(self, monkeypatch, label):
        if label == "agents_12":
            cfg = dataclasses.replace(dict(preset("figure4_sweep", seed=2))["agents_12"], n_particles=200, n_steps=15)
        else:
            cfg = dataclasses.replace(
                dict(preset("figure3_compare", seed=7))["cstj"],
                motion=MotionModel(1.0, (0.05, 0.05, 0.05)),
                n_particles=300,
                n_steps=20,
            )
        calls = _trial_decisions(monkeypatch, cfg, range(2))
        feasible, better = np.sum([_better_deviations(*call) for call in calls], axis=0)
        assert better == 0
        assert feasible >= 500


def _per_agent_decisions(aims, action_sets, ant, rf, p, threshold, ct_index=None):
    """Each agent's decision rebuilt alone, in row order, from the oracle's scalar detection probabilities.

    An agent's id is its row. With ``ct_index`` the agent takes the tracking-only decision at that level.
    """
    decided = []
    for agent_id, (aim, actions) in enumerate(zip(aims, action_sets)):
        scores = np.array([detection_prob(aim, a, p) for a in actions])
        kept = scores > threshold
        if ct_index is not None:
            record = _tracking_decision(agent_id, aim, actions, scores, ct_index, Fallback.NONE)
        elif not kept.any():
            record = _tracking_decision(agent_id, aim, actions, scores, 0, Fallback.TRACKING)
        else:
            record = solve_jamming(agent_id, actions[kept], aim, decided, ant, rf, scores[kept])
        decided.append(record)
    return decided


def _decider_calls(monkeypatch, cfg, trials):
    """(aims, actions, decisions) of every decider call the trials make."""
    name = "sequential_decide" if cfg.mode == "cstj" else "ct_decide"
    decide = getattr(sim, name)
    calls = []

    def spy(aims, actions, *rest):
        decisions = decide(aims, actions, *rest)
        calls.append((aims, actions, decisions))
        return decisions

    monkeypatch.setattr(sim, name, spy)
    for trial in trials:
        sim.run_trial(cfg, trial)
    return calls


class TestTeamGrid:
    """Scoring the whole team's moves in one grid decides as scoring each agent's alone."""

    @pytest.mark.parametrize("label", ["agents_12", "ct"])
    def test_decisions_match_per_agent_scoring_byte_for_byte(self, monkeypatch, label):
        if label == "agents_12":
            cfg = dataclasses.replace(dict(preset("figure4_sweep", seed=3))["agents_12"], n_particles=200, n_steps=15)
            ct_index = None
        else:
            cfg = dataclasses.replace(dict(preset("figure3_compare", seed=3))["ct"], n_particles=300, n_steps=20)
            ct_index = cfg.rf.power_levels_db.index(cfg.ct_power_db)
        seen = Counter()
        for aims, actions, decisions in _decider_calls(monkeypatch, cfg, range(4)):
            rebuilt = _per_agent_decisions(
                aims, actions, cfg.antenna, cfg.rf, cfg.sensing, cfg.tracking_threshold, ct_index
            )
            assert len(decisions) == len(rebuilt) == cfg.n_agents
            for got, want in zip(decisions, rebuilt):
                assert got.agent_id == want.agent_id
                assert got.chosen_position.tobytes() == want.chosen_position.tobytes()
                assert got.power_index == want.power_index
                assert got.aim_point.tobytes() == want.aim_point.tobytes()
                assert got.objective_value_db == want.objective_value_db
                assert got.fallback_used is want.fallback_used
                seen[got.fallback_used, got.power_index > 0] += 1
        if label == "agents_12":
            # the sweep must reach the empty admissible set, transmitting
            # decisions and the power-off rung, which reads a subset of the grid
            assert seen[Fallback.TRACKING, False] >= 100
            assert seen[Fallback.NONE, True] >= 100
            assert seen[Fallback.POWER_OFF, False] >= 5
        else:
            assert seen[Fallback.NONE, True] == 4 * cfg.n_steps * cfg.n_agents

    @pytest.mark.parametrize("mode", ["cstj", "ct"])
    def test_one_grid_per_decider_call(self, monkeypatch, mode):
        cfg = dataclasses.replace(
            dict(preset("figure3_compare", seed=4))[mode], n_agents=5, n_steps=6, n_particles=100
        )
        counts = Counter()

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        decider = "sequential_decide" if mode == "cstj" else "ct_decide"
        monkeypatch.setattr(sim, decider, counted("decide", getattr(sim, decider)))
        monkeypatch.setattr(control, "detection_prob_at_distance", counted("grid", control.detection_prob_at_distance))
        monkeypatch.setattr(control, "admissible_set", counted("admissible_set", control.admissible_set))
        sim.run_trial(cfg, 0)
        assert counts["decide"] == counts["grid"] == cfg.n_steps
        assert counts["admissible_set"] == (cfg.n_agents * cfg.n_steps if mode == "cstj" else 0)


    @pytest.mark.parametrize("mode", ["cstj", "ct"])
    def test_record_i_is_row_i(self, mode):
        # an agent's id is its row: record i holds row i's aim and one of row i's moves, in any row order
        rng = np.random.default_rng(12)
        agents = [AgentState(i, rng.uniform(20, 40, 3)) for i in range(5)]
        aims = rng.uniform(20, 40, (5, 3))
        actions = np.array([enumerate_actions(a, GRID) for a in agents])
        for order in (np.arange(5), np.array([3, 0, 4, 1, 2])):
            if mode == "cstj":
                records = sequential_decide(aims[order], actions[order], ANT, RF, SENSING, 0.8)
            else:
                records = ct_decide(aims[order], actions[order], SENSING, 3)
            assert [r.agent_id for r in records] == list(range(5))
            for record, row in zip(records, order):
                assert record.aim_point.tobytes() == aims[row].tobytes()
                assert (actions[row] == record.chosen_position).all(axis=1).any()


class TestCtDecide:
    def test_single_agent_best_tracking_position(self):
        agent = AgentState(0, np.array([0.0, 0.0, 0.0]))
        target = _pred([40.0, 0.0, 0.0])
        actions = enumerate_actions(agent, GRID)
        decisions = ct_decide(np.array([target]), actions[None], SENSING, 3)
        _assert_tracking_record(decisions[0], target, 3, Fallback.NONE)
        scores = [detection_prob(target, a, SENSING) for a in actions]
        np.testing.assert_array_equal(decisions[0].chosen_position, actions[int(np.argmax(scores))])

    def test_power_is_always_the_constant(self):
        rng = np.random.default_rng(8)
        agents = [AgentState(i, rng.uniform(0, 50, 3)) for i in range(5)]
        targets = rng.uniform(0, 50, (len(agents), 3))
        actions = np.array([enumerate_actions(a, GRID) for a in agents])
        decisions = ct_decide(targets, actions, SENSING, 3)
        assert all(d.power_index == 3 for d in decisions)
        assert all(d.fallback_used is Fallback.NONE for d in decisions)
